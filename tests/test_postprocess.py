import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from bodycomp import (
    GeometryMismatchError,
    dilate_sat_to_skin,
    muscular_fat_candidates,
    postprocess,
    to_hu,
)
from conftest import make_ct, make_hu, make_tissue, random_tissue_codes


# ---- brute-force references -------------------------------------------------

def dilate_oracle_added(codes_slice, hu_slice, sat_codes=(2,)):
    """Pixels that must be added: background, HU > -800, Chebyshev
    distance <= 2 from an existing SAT pixel (built from the definition
    by stamping 5x5 windows around each SAT pixel)."""
    ny, nx = codes_slice.shape
    near_sat = set()
    for y in range(ny):
        for x in range(nx):
            if codes_slice[y, x] in sat_codes:
                for dy in range(-2, 3):
                    for dx in range(-2, 3):
                        yy, xx = y + dy, x + dx
                        if 0 <= yy < ny and 0 <= xx < nx:
                            near_sat.add((yy, xx))
    return {
        (y, x)
        for (y, x) in near_sat
        if codes_slice[y, x] == 0 and hu_slice[y, x] > -800.0
    }


def components_oracle(mask_slice):
    """8-connected components via BFS flood fill."""
    ny, nx = mask_slice.shape
    seen = np.zeros_like(mask_slice, dtype=bool)
    comps = []
    for y in range(ny):
        for x in range(nx):
            if not mask_slice[y, x] or seen[y, x]:
                continue
            stack = [(y, x)]
            seen[y, x] = True
            comp = []
            while stack:
                cy, cx = stack.pop()
                comp.append((cy, cx))
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        yy, xx = cy + dy, cx + dx
                        if (
                            0 <= yy < ny
                            and 0 <= xx < nx
                            and mask_slice[yy, xx]
                            and not seen[yy, xx]
                        ):
                            seen[yy, xx] = True
                            stack.append((yy, xx))
            comps.append(comp)
    return comps


def mf_oracle(hu_slice, roi_slice, min_pixels=7):
    candidates = (hu_slice >= -220.0) & (hu_slice <= -50.0) & roi_slice
    keep = set()
    for comp in components_oracle(candidates):
        if len(comp) >= min_pixels:
            keep.update(comp)
    return keep


# ---- dilate_sat_to_skin -------------------------------------------------------

def test_dilation_blocked_by_air():
    codes = np.zeros((1, 5, 5), dtype=np.uint8)
    codes[0, 2, 2] = 2
    hu_vals = np.full((1, 5, 5), -1000.0, dtype=np.float32)
    hu_vals[0, 2, 2] = -105.0
    out = dilate_sat_to_skin(make_tissue(codes), make_hu(hu_vals))
    assert np.array_equal(out.codes, codes)


def test_dilation_adds_background_within_window():
    codes = np.zeros((1, 7, 7), dtype=np.uint8)
    codes[0, 3, 3] = 2
    hu_vals = np.full((1, 7, 7), -500.0, dtype=np.float32)
    out = dilate_sat_to_skin(make_tissue(codes), make_hu(hu_vals))
    added = np.argwhere((out.codes[0] == 2) & (codes[0] == 0))
    # exactly the 5x5 window minus the center
    assert len(added) == 24
    assert all(max(abs(y - 3), abs(x - 3)) <= 2 for y, x in added)


def test_dilation_never_relabels_other_tissue():
    codes = np.zeros((1, 5, 5), dtype=np.uint8)
    codes[0, 2, 2] = 2
    codes[0, 2, 3] = 1  # muscle neighbor stays muscle
    hu_vals = np.full((1, 5, 5), -100.0, dtype=np.float32)
    out = dilate_sat_to_skin(make_tissue(codes), make_hu(hu_vals))
    assert out.codes[0, 2, 3] == 1


def test_dilation_threshold_is_strict():
    codes = np.zeros((1, 3, 3), dtype=np.uint8)
    codes[0, 1, 1] = 2
    hu_vals = np.full((1, 3, 3), -800.0, dtype=np.float32)  # exactly -800: excluded
    out = dilate_sat_to_skin(make_tissue(codes), make_hu(hu_vals))
    assert np.count_nonzero(out.codes) == 1


def test_dilation_of_a_raw_ct_is_that_of_its_hu():
    codes = np.zeros((1, 3, 3), dtype=np.uint8)
    codes[0, 1, 1] = 2
    # slope 1, intercept -1024: raw 224 is exactly -800 HU (excluded), 225 is above
    raw = np.array([[[224, 225, 224], [225, 0, 1000], [0, 224, 225]]])
    ct = make_ct(raw)
    out = dilate_sat_to_skin(make_tissue(codes), ct)
    assert np.array_equal(out.codes, dilate_sat_to_skin(make_tissue(codes), to_hu(ct)).codes)
    assert np.array_equal(out.codes[0] == 2, (raw[0] > 224) | (codes[0] == 2))


def test_dilation_geometry_mismatch():
    with pytest.raises(GeometryMismatchError):
        dilate_sat_to_skin(
            make_tissue(np.zeros((1, 2, 2))), make_hu(np.zeros((1, 2, 3)))
        )


def test_dilation_matches_brute_force(rng):
    for _ in range(30):
        shape = (2, int(rng.integers(4, 14)), int(rng.integers(4, 14)))
        codes = random_tissue_codes(rng, shape, p_zero=0.6)
        hu_vals = rng.uniform(-1100, 200, size=shape).astype(np.float32)
        mask = make_tissue(codes)
        out = dilate_sat_to_skin(mask, make_hu(hu_vals))
        for k in range(shape[0]):
            got = set(map(tuple, np.argwhere((out.codes[k] == 2) & (codes[k] == 0))))
            want = dilate_oracle_added(codes[k], hu_vals[k])
            assert got == want
        # non-background pixels never change, SAT only grows
        nonzero = codes != 0
        assert np.array_equal(out.codes[nonzero], codes[nonzero])
        assert np.all(out.codes[codes == 2] == 2)


def test_dilation_matches_brute_force_on_stacks(rng):
    # taller stacks than above; with slices that hold no SAT at all
    for _ in range(10):
        shape = (int(rng.integers(6, 10)), int(rng.integers(4, 12)), int(rng.integers(4, 12)))
        codes = random_tissue_codes(rng, shape, p_zero=0.6)
        codes[rng.random(shape[0]) < 0.3] = 0
        hu_vals = rng.uniform(-1100, 200, size=shape).astype(np.float32)
        out = dilate_sat_to_skin(make_tissue(codes), make_hu(hu_vals))
        for k in range(shape[0]):
            got = set(map(tuple, np.argwhere((out.codes[k] == 2) & (codes[k] == 0))))
            assert got == dilate_oracle_added(codes[k], hu_vals[k])
        assert np.array_equal(out.codes[codes != 0], codes[codes != 0])


def test_dilation_does_not_leak_along_z():
    # SAT on slice 3 only; the slices above and below are open background
    # and fat-free, so any z-connectivity would add pixels there
    codes = np.zeros((7, 9, 9), dtype=np.uint8)
    codes[3, 4, 4] = 2
    codes[2, 0, 0] = 3  # VAT on the slice below: not SAT, never grown
    hu_vals = np.full(codes.shape, -100.0, dtype=np.float32)
    out = dilate_sat_to_skin(make_tissue(codes), make_hu(hu_vals))
    changed = np.argwhere(out.codes != codes)
    assert set(changed[:, 0]) == {3}
    assert len(changed) == 24


def test_dilation_with_two_sat_codes_adds_the_lowest(rng):
    label_map = {0: "background", 1: "skeletal_muscle", 3: "vat", 5: "sat", 7: "sat"}
    for _ in range(10):
        shape = (6, int(rng.integers(4, 12)), int(rng.integers(4, 12)))
        codes = rng.choice(np.array([1, 3, 5, 7], dtype=np.uint8), size=shape)
        codes[rng.random(shape) < 0.6] = 0
        hu_vals = rng.uniform(-1100, 200, size=shape).astype(np.float32)
        out = dilate_sat_to_skin(make_tissue(codes, label_map=label_map), make_hu(hu_vals))
        added = (out.codes != codes)
        assert np.all(out.codes[added] == 5)
        for k in range(shape[0]):
            got = set(map(tuple, np.argwhere(added[k])))
            assert got == dilate_oracle_added(codes[k], hu_vals[k], sat_codes=(5, 7))


# ---- muscular_fat_candidates ---------------------------------------------------

def _roi_all(shape):
    return make_tissue(np.ones(shape, dtype=np.uint8))


def test_mf_six_pixel_component_removed():
    hu_vals = np.full((1, 6, 6), 50.0, dtype=np.float32)
    hu_vals[0, 2, 0:6] = -100.0  # 6-pixel run
    out = muscular_fat_candidates(make_hu(hu_vals), _roi_all((1, 6, 6)))
    assert np.count_nonzero(out.codes) == 0


def test_mf_seven_pixel_component_retained():
    hu_vals = np.full((1, 6, 8), 50.0, dtype=np.float32)
    hu_vals[0, 2, 0:7] = -100.0  # 7-pixel run
    out = muscular_fat_candidates(make_hu(hu_vals), _roi_all((1, 6, 8)))
    assert np.count_nonzero(out.codes) == 7


def test_mf_threshold_excludes_out_of_range():
    hu_vals = np.full((1, 3, 10), -40.0, dtype=np.float32)  # above -50: not fat
    out = muscular_fat_candidates(make_hu(hu_vals), _roi_all((1, 3, 10)))
    assert np.count_nonzero(out.codes) == 0
    hu_vals2 = np.full((1, 3, 10), -230.0, dtype=np.float32)  # below -220
    out2 = muscular_fat_candidates(make_hu(hu_vals2), _roi_all((1, 3, 10)))
    assert np.count_nonzero(out2.codes) == 0


def test_mf_range_bounds_inclusive():
    hu_vals = np.full((1, 1, 14), 50.0, dtype=np.float32)
    hu_vals[0, 0, 0:7] = -220.0
    hu_vals[0, 0, 7:14] = -50.0
    out = muscular_fat_candidates(make_hu(hu_vals), _roi_all((1, 1, 14)))
    assert np.count_nonzero(out.codes) == 14


def test_mf_restricted_to_roi():
    hu_vals = np.full((1, 4, 10), -100.0, dtype=np.float32)
    roi = np.zeros((1, 4, 10), dtype=np.uint8)
    roi[0, 0:2, :] = 1
    out = muscular_fat_candidates(make_hu(hu_vals), make_tissue(roi))
    assert np.count_nonzero(out.codes) == 20
    assert np.count_nonzero(out.codes[0, 2:]) == 0


def test_mf_matches_brute_force(rng):
    for _ in range(30):
        shape = (2, int(rng.integers(5, 14)), int(rng.integers(5, 14)))
        hu_vals = rng.uniform(-400, 100, size=shape).astype(np.float32)
        roi_codes = (rng.random(shape) < 0.7).astype(np.uint8)
        hu = make_hu(hu_vals)
        roi = make_tissue(roi_codes)
        out = muscular_fat_candidates(hu, roi)
        for k in range(shape[0]):
            got = set(map(tuple, np.argwhere(out.codes[k] == 1)))
            want = mf_oracle(hu_vals[k], roi_codes[k].astype(bool))
            assert got == want
        # every retained pixel is in the fat HU range
        retained = out.codes == 1
        assert np.all(hu_vals[retained] >= -220.0)
        assert np.all(hu_vals[retained] <= -50.0)


def _fat_slice(rng, ny, nx):
    """HU for one slice whose candidates sit on borders, corners, a single
    row or a single column, at random, or nowhere."""
    hu = np.full((ny, nx), 50.0, dtype=np.float32)
    kind = rng.integers(0, 6)
    if kind == 0:  # empty
        return hu
    if kind == 1:  # one row: the first, the last, or inside
        y = rng.choice([0, ny - 1, int(rng.integers(0, ny))])
        x0 = int(rng.integers(0, nx))
        hu[y, x0 : x0 + int(rng.integers(1, nx + 1))] = -100.0
    elif kind == 2:  # one column
        x = rng.choice([0, nx - 1, int(rng.integers(0, nx))])
        y0 = int(rng.integers(0, ny))
        hu[y0 : y0 + int(rng.integers(1, ny + 1)), x] = -100.0
    elif kind == 3:  # blocks in the corners
        for ys in (slice(0, 3), slice(ny - 3, ny)):
            for xs in (slice(0, 3), slice(nx - 3, nx)):
                if rng.random() < 0.6:
                    hu[ys, xs] = -100.0
    else:  # scattered, border rows and columns included
        fat = rng.random((ny, nx)) < 0.45
        hu[fat] = rng.uniform(-220, -50, size=int(fat.sum())).astype(np.float32)
    return hu


def test_mf_matches_brute_force_on_stacks(rng):
    for _ in range(15):
        nz, ny, nx = int(rng.integers(6, 10)), int(rng.integers(5, 13)), int(rng.integers(5, 13))
        hu_vals = np.stack([_fat_slice(rng, ny, nx) for _ in range(nz)])
        roi_codes = (rng.random((nz, ny, nx)) < 0.9).astype(np.uint8)
        out = muscular_fat_candidates(make_hu(hu_vals), make_tissue(roi_codes))
        for k in range(nz):
            got = set(map(tuple, np.argwhere(out.codes[k] == 1)))
            assert got == mf_oracle(hu_vals[k], roi_codes[k].astype(bool))


def test_mf_components_do_not_join_along_z():
    # four pixels on each of two adjacent slices: eight in 3-D, four per slice
    hu_vals = np.full((6, 5, 5), 50.0, dtype=np.float32)
    hu_vals[2:4, 1:3, 1:3] = -100.0
    out = muscular_fat_candidates(make_hu(hu_vals), _roi_all((6, 5, 5)))
    assert np.count_nonzero(out.codes) == 0


def test_mf_single_row_and_column_at_the_edges():
    hu_vals = np.full((6, 8, 9), 50.0, dtype=np.float32)
    hu_vals[0, 7, 2:9] = -100.0  # last row, up to the right edge
    hu_vals[1, 0:8, 0] = -100.0  # first column, full height
    hu_vals[2, 0, 0:6] = -100.0  # first row, six pixels: dropped
    hu_vals[4, 0, 8] = hu_vals[4, 7, 0] = -100.0  # two lone corners: dropped
    out = muscular_fat_candidates(make_hu(hu_vals), _roi_all((6, 8, 9)))
    assert [int(np.count_nonzero(out.codes[k])) for k in range(6)] == [7, 8, 0, 0, 0, 0]
    assert np.all(out.codes[0, 7, 2:9] == 1) and np.all(out.codes[1, :, 0] == 1)


def test_mf_geometry_mismatch():
    with pytest.raises(GeometryMismatchError):
        muscular_fat_candidates(
            make_hu(np.zeros((1, 2, 2))), make_tissue(np.zeros((2, 2, 2)))
        )


# ---- the labelling against scipy.ndimage.label ---------------------------------

_IN_PLANE_8 = np.zeros((3, 3, 3), dtype=bool)
_IN_PLANE_8[1] = True


def scipy_kept(candidates, min_pixels):
    """Candidates in an 8-connected in-plane component of at least
    ``min_pixels``, from ``scipy.ndimage.label``."""
    labels, _ = ndimage.label(candidates, structure=_IN_PLANE_8)
    sizes = np.bincount(labels.ravel())
    sizes[0] = 0
    return sizes[labels] >= min_pixels


def kernel_kept(candidates, min_pixels):
    hu = make_hu(np.where(candidates, -100.0, 50.0))
    out = muscular_fat_candidates(hu, _roi_all(candidates.shape), min_pixels=min_pixels)
    return out.codes == 1


def spiral(n):
    """One n x n square spiral path, a pixel wide with one-pixel gaps
    between its turns: a single component whose raster order winds."""
    grid = np.zeros((n, n), dtype=bool)
    lengths = [n - 1] * 3 + [m for m in range(n - 3, 0, -2) for _ in (0, 1)]
    y = x = 0
    grid[0, 0] = True
    for i, length in enumerate(lengths):
        dy, dx = ((0, 1), (1, 0), (0, -1), (-1, 0))[i % 4]
        for _ in range(length):
            y, x = y + dy, x + dx
            grid[y, x] = True
    return grid


def _diagonal_chains(rng, ny, nx):
    """Chains along both diagonals: 8-connected only through corners."""
    grid = np.zeros((ny, nx), dtype=bool)
    for _ in range(int(rng.integers(1, 6))):
        y, x = int(rng.integers(0, ny)), int(rng.integers(0, nx))
        dx = int(rng.choice([-1, 1]))
        for _ in range(int(rng.integers(1, 2 * max(ny, nx)))):
            if not (0 <= y < ny and 0 <= x < nx):
                break
            grid[y, x] = True
            y, x = y + 1, x + dx
    return grid


def _one_pixel_gaps(rng, ny, nx):
    """Runs along every other row or column, each split by one-pixel gaps:
    pieces that must stay apart."""
    columns = rng.random() < 0.5
    h, w = (nx, ny) if columns else (ny, nx)
    grid = np.zeros((h, w), dtype=bool)
    run = int(rng.integers(1, 9))
    grid[::2] = np.arange(w) % (run + 1) != run
    return grid.T if columns else grid


def _on_the_edges(rng, ny, nx):
    """Scattered pixels, and a run along each image edge: components that
    touch every edge."""
    grid = rng.random((ny, nx)) < 0.2
    for edge in (grid[0], grid[-1], grid[:, 0], grid[:, -1]):
        lo = int(rng.integers(0, edge.size))
        edge[lo : lo + int(rng.integers(1, edge.size + 1))] = True
    return grid


def _exact_sizes(rng, ny, nx, min_pixels):
    """Pieces of min_pixels - 1, min_pixels and min_pixels + 1 pixels, a
    row run or an L over two rows, with an empty row between pieces."""
    grid = np.zeros((ny, nx), dtype=bool)
    for y in range(0, ny, 3):
        size = min_pixels + int(rng.integers(-1, 2))
        if size < 1:
            continue
        if rng.random() < 0.5 or y + 1 == ny:
            grid[y, :size] = True
        else:  # the L's second row starts below the first row's end
            top = (size + 1) // 2
            grid[y, :top] = True
            grid[y + 1, top - 1 : size - 1] = True
    return grid


KINDS = ("random", "diagonal", "gaps", "edges", "sizes", "checker", "full", "spiral", "zstack")


@st.composite
def candidate_grids(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(KINDS))
    min_pixels = draw(st.sampled_from([1, 2, 3, 7, 8, 20]))
    nz, ny, nx = draw(st.integers(1, 4)), draw(st.integers(1, 40)), draw(st.integers(1, 40))

    def plane():
        if kind == "random":
            return rng.random((ny, nx)) < rng.choice([0.05, 0.2, 0.4, 0.5, 0.6, 0.8])
        if kind == "diagonal":
            return _diagonal_chains(rng, ny, nx)
        if kind == "gaps":
            return _one_pixel_gaps(rng, ny, nx)
        if kind == "edges":
            return _on_the_edges(rng, ny, nx)
        if kind == "sizes":
            return _exact_sizes(rng, ny, nx, min_pixels)
        if kind == "checker":
            return np.indices((ny, nx)).sum(axis=0) % 2 == int(rng.integers(0, 2))
        if kind == "full":
            return np.ones((ny, nx), dtype=bool)
        if kind == "spiral":
            n = min(ny, nx)
            grid = np.zeros((ny, nx), dtype=bool)
            grid[:n, :n] = spiral(n)
            return grid
        # zstack: one small pattern on every slice, which must not join along z
        return np.broadcast_to(rng.random((ny, nx)) < 0.3, (ny, nx))

    return np.stack([plane() for _ in range(nz)]), min_pixels


@settings(max_examples=300, deadline=None)
@given(candidate_grids())
def test_labelling_keeps_what_scipy_label_keeps(case):
    candidates, min_pixels = case
    assert np.array_equal(kernel_kept(candidates, min_pixels), scipy_kept(candidates, min_pixels))


def _cut(grid, *points):
    grid = grid.copy()
    for y, x in points:
        grid[y, x] = False
    return grid


@pytest.mark.parametrize(
    "plane",
    [
        spiral(512),
        _cut(spiral(512), (256, 256), (100, 411)),  # three long pieces
        np.ones((512, 512), dtype=bool),
        np.indices((512, 512)).sum(axis=0) % 2 == 0,  # a checkerboard: the most edges
        np.fliplr(np.eye(512, dtype=bool)) | np.eye(512, dtype=bool),
    ],
    ids=["spiral", "cut-spiral", "full", "checkerboard", "both-diagonals"],
)
def test_labelling_of_large_slices_matches_scipy(plane):
    candidates = np.stack([plane, plane[::-1]])
    assert np.array_equal(kernel_kept(candidates, 7), scipy_kept(candidates, 7))


def test_labelling_flushes_blocks_between_slices(monkeypatch):
    # 6,500-odd candidates per 128x128 slice: a block holds three slices
    # before it reaches 2^14; one full slice is exactly 2^14
    rng = np.random.default_rng(7)
    candidates = rng.random((9, 128, 128)) < 0.4
    candidates[4] = True
    candidates[6] = np.broadcast_to(candidates[5], (128, 128))
    blocks = []
    kept = postprocess._kept

    def spy(offsets, ny, nx, min_pixels):
        blocks.append((offsets.dtype, int(offsets.size), int(offsets[-1]) // (ny * nx) + 1))
        return kept(offsets, ny, nx, min_pixels)

    monkeypatch.setattr(postprocess, "_kept", spy)
    for min_pixels in (1, 7):
        assert np.array_equal(
            kernel_kept(candidates, min_pixels), scipy_kept(candidates, min_pixels)
        )
    assert all(dtype == np.int32 for dtype, _, _ in blocks)
    # every slice is in exactly one block, and some blocks span slices
    assert sum(size for _, size, _ in blocks) == 2 * np.count_nonzero(candidates)
    assert max(span for _, _, span in blocks) > 1 and len(blocks) > 2


# ---- thresholds in raw values over every int16 value --------------------------

def _every_int16(slope, intercept):
    """A two-slice CT holding every int16 value once per slice, at other
    pixels on the second slice."""
    raw = np.arange(-(2**15), 2**15).reshape(256, 256)
    return make_ct(np.stack([raw, np.roll(raw, 1, axis=1)]), slope=slope, intercept=intercept)


@pytest.mark.parametrize(
    "slope, intercept",
    [
        (1.0, -1024.0),
        (1.0, -800.0),  # raw 0 is exactly the skin threshold
        (0.7, -1024.0),  # raw 320 is exactly -800 HU
        (0.7, -220.0),
        (0.7, -50.0),
        (-1.0, -800.0),
        (-1.0, -220.0),
        (0.0, -800.0),  # every voxel on the threshold: none passes
        (0.0, -100.0),  # every voxel passes
        (1e-45, -50.0),
        (1e-45, -800.0),
        (1e36, 0.5),  # overflows float32 to inf beyond raw 340
        (1e39, 0.0),  # float32(slope) is inf: raw 0 gives NaN
        (-1e39, -100.0),
    ],
)
def test_raw_thresholds_pass_exactly_the_values_whose_hu_passes(slope, intercept):
    ct = _every_int16(slope, intercept)
    hu = ct.hu_of(ct.values)
    # a SAT pixel every fifth row and column puts every pixel in the 5x5
    # window of one: a background pixel is added iff its HU passes
    codes = np.zeros(ct.values.shape, dtype=np.uint8)
    codes[:, ::5, ::5] = 2
    for vol in (ct, to_hu(ct)):
        sat = dilate_sat_to_skin(make_tissue(codes), vol).codes == 2
        assert np.array_equal(sat, (codes == 2) | (hu > -800.0))
        mf = muscular_fat_candidates(vol, _roi_all(codes.shape), min_pixels=1).codes == 1
        assert np.array_equal(mf, (hu >= -220.0) & (hu <= -50.0))
        custom = muscular_fat_candidates(
            vol, _roi_all(codes.shape), hu_range=(-1000.5, 1e30), min_pixels=1
        )
        assert np.array_equal(custom.codes == 1, (hu >= -1000.5) & (hu <= 1e30))


def test_raw_thresholds_that_pass_two_runs_raise():
    # with an infinite slope every nonzero raw value is an infinite HU and
    # raw 0 is NaN: an unbounded range passes both sides of it
    ct = _every_int16(1e39, 0.0)
    with pytest.raises(ValueError, match="not one interval"):
        muscular_fat_candidates(ct, _roi_all(ct.values.shape), hu_range=(-np.inf, np.inf))
