import re

import numpy as np
import pytest

from bodycomp import (
    LabelVocabularyError,
    SingleSlice,
    SliceRange,
    VertebraNotFoundError,
    build_phantom,
    label_area_per_slice,
    largest_label_slice,
    region_t12_l4,
    sample_slices_by_interval,
    slice_distance_cm,
    vertebra_label,
)
from bodycomp.model import code_counts
from bodycomp.regions import AllSlices, measurement_regions, region_slice
from conftest import make_tissue, make_vertebrae


def vert_volume_with_areas(areas_per_label):
    """Vertebra volume where label `code` has `areas[k]` voxels in slice k."""
    nz = max(len(a) for a in areas_per_label.values())
    nx = ny = 1 + int(np.ceil(np.sqrt(max(max(a) for a in areas_per_label.values()) + 1)))
    big = max(nx, 16)
    codes = np.zeros((nz, big, big * len(areas_per_label)), dtype=np.uint8)
    for i, (code, areas) in enumerate(sorted(areas_per_label.items())):
        x0 = big * i
        for k, count in enumerate(areas):
            flat = codes[k, :, x0 : x0 + big].reshape(-1)
            flat[:count] = code
            codes[k, :, x0 : x0 + big] = flat.reshape(big, big)
    return make_vertebrae(codes)


def test_area_all_zero_when_label_absent():
    vol = make_vertebrae(np.zeros((4, 3, 3)))
    areas = label_area_per_slice(vol, "vertebrae_L3")
    assert np.array_equal(areas, np.zeros(4))


def test_area_single_voxel_unit_spacing():
    codes = np.zeros((2, 3, 3), dtype=np.uint8)
    codes[1, 0, 0] = 2
    vol = make_vertebrae(codes, spacing=(1.0, 1.0, 1.0))
    areas = label_area_per_slice(vol, "vertebrae_L3")
    assert areas[0] == 0.0
    assert areas[1] == pytest.approx(0.01)


def test_area_block_with_submillimeter_spacing():
    codes = np.zeros((1, 12, 12), dtype=np.uint8)
    codes[0, :10, :10] = 1
    vol = make_vertebrae(codes, spacing=(0.7, 0.7, 5.0))
    areas = label_area_per_slice(vol, "vertebrae_T12")
    assert areas[0] == pytest.approx(0.49)


def test_area_unknown_label():
    vol = make_vertebrae(np.zeros((1, 2, 2)))
    with pytest.raises(LabelVocabularyError):
        label_area_per_slice(vol, "femur")


def test_largest_slice_single_occurrence():
    vol = vert_volume_with_areas({2: [0, 0, 7, 0]})
    assert largest_label_slice(vol, "vertebrae_L3") == 2


def test_largest_slice_tie_breaks_low():
    vol = vert_volume_with_areas({2: [0, 5, 9, 9, 2]})
    assert largest_label_slice(vol, "vertebrae_L3") == 2


def test_largest_slice_absent_label():
    vol = make_vertebrae(np.zeros((3, 2, 2)))
    with pytest.raises(VertebraNotFoundError):
        largest_label_slice(vol, "vertebrae_L3")


def test_largest_slice_matches_argmax_oracle(rng):
    for _ in range(100):
        nz = int(rng.integers(1, 9))
        counts = rng.integers(0, 6, size=nz)
        if counts.sum() == 0:
            counts[int(rng.integers(0, nz))] = 1
        vol = vert_volume_with_areas({2: list(counts)})
        # oracle: first index achieving the max per-slice voxel count
        best, best_count = 0, -1
        for k in range(nz):
            c = int(np.count_nonzero(vol.codes[k] == 2))
            if c > best_count:
                best, best_count = k, c
        assert largest_label_slice(vol, "vertebrae_L3") == best


def test_region_t12_l4_normalizes_order():
    vol = vert_volume_with_areas({1: [0] * 40 + [9], 3: [0] * 10 + [9] + [0] * 30})
    region = region_t12_l4(vol)
    assert region == SliceRange(10, 40)
    assert not region.degenerate


def test_region_t12_l4_same_slice_flagged():
    vol = vert_volume_with_areas({1: [0, 9, 0], 3: [0, 9, 0]})
    region = region_t12_l4(vol)
    assert (region.z_lo, region.z_hi) == (1, 1)
    assert region.degenerate


def test_region_t12_l4_missing_l4():
    vol = vert_volume_with_areas({1: [9, 0]})
    with pytest.raises(VertebraNotFoundError):
        region_t12_l4(vol)


def test_slice_range_refuses_a_reversed_range():
    with pytest.raises(ValueError, match=r"z_lo must be <= z_hi, got \(5, 4\)"):
        SliceRange(5, 4)


@pytest.mark.parametrize(
    "region, error",
    [
        (SingleSlice(4), IndexError),
        (SingleSlice(-1), IndexError),
        (SliceRange(2, 4), IndexError),
        (SliceRange(-1, 2), IndexError),
        (slice(0, 4), TypeError),
    ],
    ids=["slice4", "slice-1", "range2-4", "range-1-2", "not-a-region"],
)
def test_region_slice_refuses_what_is_not_a_region_of_the_slices(region, error):
    with pytest.raises(error):
        region_slice(region, 4)


@pytest.mark.parametrize(
    "region, want",
    [
        (SingleSlice(3), slice(3, 4)),
        (SliceRange(0, 3), slice(0, 4)),
        (SliceRange(2, 2, degenerate=True), slice(2, 3)),
        (AllSlices(), slice(0, 4)),
    ],
    ids=["slice3", "range0-3", "range2-2", "all"],
)
def test_region_slice_holds_every_slice_of_the_region(region, want):
    assert region_slice(region, 4) == want


@pytest.mark.parametrize(
    "t12, l3, l4, want",
    [(1, 3, 5, slice(1, 6)), (1, 6, 4, slice(1, 7)), (6, 2, 4, slice(2, 7)), (0, 0, 0, slice(0, 1))],
    ids=["l4 last", "l3 last", "t12 last", "one slice"],
)
def test_counted_slab_runs_from_the_lowest_level_through_the_highest(t12, l3, l4, want):
    areas = {code: [9 if k == z else 0 for k in range(7)] for code, z in ((1, t12), (2, l3), (3, l4))}
    assert measurement_regions(vert_volume_with_areas(areas)).counted_slab() == want


def test_region_contains_l3_peak_on_ordered_phantoms(rng):
    # anatomically ordered: L4 low, L3 middle, T12 high
    for _ in range(20):
        nz = int(rng.integers(8, 20))
        l4 = int(rng.integers(0, nz // 3))
        l3 = int(rng.integers(nz // 3, 2 * nz // 3))
        t12 = int(rng.integers(2 * nz // 3, nz))
        areas = {code: [0] * nz for code in (1, 2, 3)}
        areas[1][t12] = 9
        areas[2][l3] = 9
        areas[3][l4] = 9
        vol = vert_volume_with_areas(areas)
        region = region_t12_l4(vol)
        assert region.z_lo <= largest_label_slice(vol, "vertebrae_L3") <= region.z_hi


@pytest.mark.parametrize("slices", [(9, 4, 9), (9, 8, 9), (6, 5, 4), (12, 8, 3)])
def test_phantom_markers_that_would_overlap_keep_every_level(slices):
    ph = build_phantom(nx=40, ny=40, nz=16, vertebra_slices=slices)
    vert = ph.vertebrae
    for level, peak in zip(("T12", "L3", "L4"), slices):
        # the full square profile: 6x6 at the peak, 4x4 and 2x2 beside it
        expected = np.zeros(vert.nz)
        for dist, side in ((2, 2), (1, 4), (0, 6)):
            expected[[peak - dist, peak + dist]] = side * side
        pixels = code_counts(vert.codes)[:, vert.codes_for(vertebra_label(level))].sum(axis=1)
        assert np.array_equal(pixels, expected)
        assert largest_label_slice(vert, vertebra_label(level)) == peak
    lo, hi = sorted((slices[0], slices[2]))
    assert region_t12_l4(vert) == SliceRange(lo, hi, degenerate=lo == hi)
    # a marker replaces tissue and CT with bone wherever it is drawn
    assert not np.any(ph.tissue.codes[vert.codes != 0])
    assert np.all(ph.ct.values[vert.codes != 0] == ph.ct.values[vert.codes != 0].max())


def test_phantom_marker_with_no_room_raises():
    # 14 px leave no room for a third 6 px marker beside or above the others
    with pytest.raises(ValueError, match="vertebrae_L4"):
        build_phantom(nx=14, ny=14, nz=8, vertebra_slices=(4, 2, 4))


def test_phantom_marker_with_no_room_beside_moves_up_or_down():
    # 14 px wide leave no room beside a marker; 26 px high leave room above
    # and below, and no marker leaves the image
    ph = build_phantom(nx=14, ny=26, nz=8, vertebra_slices=(4, 2, 4))
    columns = np.flatnonzero(ph.vertebrae.codes.any(axis=(0, 1)))
    assert columns.min() >= 6 - 3 and columns.max() < 6 + 3
    counts = code_counts(ph.vertebrae.codes)
    for code, peak in zip((1, 2, 3), (4, 2, 4)):
        assert counts[peak, code] == 36
        assert int(np.argmax(counts[:, code])) == peak


@pytest.mark.parametrize("n", range(6, 41))
def test_phantom_keeps_every_level_or_raises(n):
    slices = (4, 2, 4)
    try:
        ph = build_phantom(nx=n, ny=n, nz=8, vertebra_slices=slices)
    except ValueError as exc:
        assert re.search(r"vertebrae_(T12|L3|L4)", str(exc))
        return
    for level, peak in zip(("T12", "L3", "L4"), slices):
        assert largest_label_slice(ph.vertebrae, vertebra_label(level)) == peak
        areas = label_area_per_slice(ph.vertebrae, vertebra_label(level))
        assert areas[peak] == 36 * ph.vertebrae.pixel_area_cm2


def test_slice_distance_same_slice():
    vol = make_tissue(np.zeros((5, 2, 2)))
    assert slice_distance_cm(3, 3, vol) == 0.0


def test_slice_distance_uniform():
    vol = make_tissue(np.zeros((20, 2, 2)), spacing=(1.0, 1.0, 5.0))
    assert slice_distance_cm(10, 14, vol) == pytest.approx(2.0)


def test_slice_distance_nonuniform():
    vol = make_tissue(np.zeros((4, 2, 2)), z=(0.0, 1.0, 3.0, 7.0))
    assert slice_distance_cm(0, 3, vol) == pytest.approx(0.7)


def test_slice_distance_out_of_range():
    vol = make_tissue(np.zeros((4, 2, 2)))
    with pytest.raises(IndexError):
        slice_distance_cm(0, 4, vol)


def test_slice_distance_symmetry_and_triangle(rng):
    vol = make_tissue(np.zeros((12, 2, 2)), spacing=(1.0, 1.0, 3.5))
    for _ in range(50):
        i, j, k = (int(x) for x in rng.integers(0, 12, size=3))
        dij = slice_distance_cm(i, j, vol)
        assert dij == slice_distance_cm(j, i, vol)
        assert dij <= slice_distance_cm(i, k, vol) + slice_distance_cm(k, j, vol) + 1e-12


def test_sampling_interval_matches_hand_scan():
    vol = make_tissue(np.zeros((11, 2, 2)), spacing=(1.0, 1.0, 5.0))
    assert sample_slices_by_interval(vol, 2.5) == [0, 5, 10]


def test_sampling_interval_below_spacing_selects_all():
    vol = make_tissue(np.zeros((6, 2, 2)), spacing=(1.0, 1.0, 5.0))
    assert sample_slices_by_interval(vol, 0.4) == [0, 1, 2, 3, 4, 5]


def test_sampling_interval_at_a_multiple_of_the_spacing_keeps_that_slice():
    # 3 * 0.7 mm rounds to 2.0999999999999996, a hair below 0.21 cm
    vol = make_tissue(np.zeros((10, 2, 2)), spacing=(1.0, 1.0, 0.7))
    assert sample_slices_by_interval(vol, 0.21) == [0, 3, 6, 9]


def test_sampling_single_slice():
    vol = make_tissue(np.zeros((1, 2, 2)))
    assert sample_slices_by_interval(vol, 2.5) == [0]


def test_sampling_rejects_nonpositive_interval():
    vol = make_tissue(np.zeros((3, 2, 2)))
    with pytest.raises(ValueError):
        sample_slices_by_interval(vol, 0.0)


def test_sampling_nonuniform_positions():
    vol = make_tissue(np.zeros((6, 2, 2)), z=(0.0, 10.0, 20.0, 24.0, 26.0, 50.0))
    # emit 0 (z=0); z=10,20 < 25; z=24 <25; z=26 >= 25 -> emit 4; z=50 (24 away) < 25
    assert sample_slices_by_interval(vol, 2.5) == [0, 4]
