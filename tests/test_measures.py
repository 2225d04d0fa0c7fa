import gc
import weakref
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bodycomp import (
    AllSlices,
    BodycompError,
    BodyCompResult,
    EmptyRegionError,
    GeometryMismatchError,
    LabelVolume,
    MergePolicy,
    NonFiniteHUError,
    SingleSlice,
    SliceRange,
    SubjectRecord,
    UndefinedRatioError,
    VertebraNotFoundError,
    apply_merge_policy,
    build_phantom,
    evaluate_case,
    measure_subject,
    muscle_density,
    muscle_density_error_pct,
    smi,
    tissue_area_2d,
    tissue_volume_3d,
    to_hu,
    largest_label_slice,
    region_t12_l4,
    vat_sat_ratio,
    vertebra_label,
)
from bodycomp.measures import (
    MuscleHistograms,
    _codes_of,
    _exact_mean_hu,
    code_classes,
    measure_pieces,
    tissue_class,
)
from bodycomp.model import select_codes
from bodycomp.regions import measurement_regions, region_slice
from conftest import VERT_MAP, make_ct, make_hu, make_tissue, random_tissue_codes


def test_density_constant_muscle():
    hu = make_hu(np.full((1, 1, 4), 50.0))
    mask = make_tissue([[[1, 1, 1, 1]]])
    assert muscle_density(hu, mask, AllSlices()) == 50.0


def test_density_two_voxel_mean():
    hu = make_hu([[[0.0, 100.0, -400.0]]])
    mask = make_tissue([[[1, 1, 0]]])
    assert muscle_density(hu, mask, AllSlices()) == 50.0


def test_density_empty_region():
    hu = make_hu(np.zeros((2, 2, 2)))
    mask = make_tissue(np.zeros((2, 2, 2)))
    with pytest.raises(EmptyRegionError):
        muscle_density(hu, mask, AllSlices())


def test_density_of_a_raw_ct_is_that_of_its_hu():
    ct = make_ct([[[1000, 1101, 7, -3]]], slope=0.7, intercept=-1024.3)
    mask = make_tissue([[[1, 1, 0, 1]]])
    density = muscle_density(ct, mask, AllSlices())
    assert density == muscle_density(to_hu(ct), mask, AllSlices())
    assert density == pytest.approx((0.7 * (1000 + 1101 - 3) - 3 * 1024.3) / 3, rel=1e-6)


def test_density_respects_policy():
    hu = make_hu([[[10.0, 30.0]]])
    mask = make_tissue([[[1, 4]]])  # muscle, muscular fat
    assert muscle_density(hu, mask, AllSlices(), MergePolicy.MUSCLE) == 20.0
    assert muscle_density(hu, mask, AllSlices(), MergePolicy.SEPARATE) == 10.0


def test_density_within_hu_bounds(rng):
    for _ in range(25):
        hu_vals = rng.uniform(-200, 200, size=(3, 5, 5)).astype(np.float32)
        codes = random_tissue_codes(rng, (3, 5, 5))
        if not (codes == 1).any():
            codes[0, 0, 0] = 1
        hu = make_hu(hu_vals)
        mask = make_tissue(codes)
        d = muscle_density(hu, mask, AllSlices(), MergePolicy.SEPARATE)
        selected = hu_vals[codes == 1]
        assert selected.min() - 1e-5 <= d <= selected.max() + 1e-5


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
def test_density_rejects_non_finite_hu(bad):
    hu = make_hu([[[10.0, bad, 30.0]]])
    mask = make_tissue([[[1, 1, 0]]])
    with pytest.raises(NonFiniteHUError):
        muscle_density(hu, mask, AllSlices())
    # a non-finite voxel outside the muscle does not matter
    assert muscle_density(hu, make_tissue([[[1, 0, 1]]]), AllSlices()) == 20.0


@pytest.mark.parametrize("policy", list(MergePolicy))
def test_policy_selection_matches_merged_copy(rng, policy):
    # the merge applied as a code selection counts what the merged copy
    # counts, also when a tissue has several codes
    label_map = {0: "background", 1: "skeletal_muscle", 2: "sat", 3: "vat",
                 4: "muscular_fat", 7: "skeletal_muscle", 9: "muscular_fat", 12: "bone"}
    codes = rng.choice([0, 1, 2, 3, 4, 7, 9, 12], size=(6, 5, 7)).astype(np.uint8)
    mask = make_tissue(codes, spacing=(0.9, 1.1, 3.0), z=(0, 2, 5, 6, 9, 13), label_map=label_map)
    merged = apply_merge_policy(mask, policy)
    hu = make_hu(rng.uniform(-200, 200, size=codes.shape), spacing=(0.9, 1.1, 3.0), z=mask.z_positions_mm)
    for label in ("skeletal_muscle", "sat", "vat", "muscular_fat"):
        for z in range(6):
            assert tissue_area_2d(mask, label, z, policy) == tissue_area_2d(merged, label, z)
        region = SliceRange(1, 4)
        assert tissue_volume_3d(mask, label, region, policy) == tissue_volume_3d(merged, label, region)
    sep = MergePolicy.SEPARATE
    for region in (SingleSlice(2), SliceRange(0, 5)):
        assert muscle_density(hu, mask, region, policy) == muscle_density(hu, merged, region, sep)
        try:
            expected = vat_sat_ratio(merged, region, sep)
        except UndefinedRatioError:
            with pytest.raises(UndefinedRatioError):
                vat_sat_ratio(mask, region, policy)
        else:
            assert vat_sat_ratio(mask, region, policy) == expected


def test_area_zero_voxels():
    mask = make_tissue(np.zeros((1, 4, 4)))
    assert tissue_area_2d(mask, "skeletal_muscle", 0) == 0.0


def test_area_hundred_unit_pixels():
    codes = np.zeros((1, 10, 10), dtype=np.uint8)
    codes[0] = 1
    mask = make_tissue(codes, spacing=(1.0, 1.0, 5.0))
    assert tissue_area_2d(mask, "skeletal_muscle", 0) == pytest.approx(1.0)


def test_area_count_oracle():
    codes = np.zeros((1, 15, 15), dtype=np.uint8)
    codes.reshape(-1)[:150] = 2
    mask = make_tissue(codes, spacing=(0.8, 0.8, 5.0))
    assert tissue_area_2d(mask, "sat", 0) == pytest.approx(0.96)


def test_volume_empty_label():
    mask = make_tissue(np.zeros((3, 2, 2)))
    assert tissue_volume_3d(mask, "vat", SliceRange(0, 2)) == 0.0


def test_volume_thousand_unit_voxels():
    mask = make_tissue(np.ones((10, 10, 10)), spacing=(1.0, 1.0, 1.0))
    assert tissue_volume_3d(mask, "skeletal_muscle", SliceRange(0, 9)) == pytest.approx(1.0)


def test_volume_scales_with_thickness():
    mask1 = make_tissue(np.ones((4, 3, 3)), spacing=(1.0, 1.0, 2.0))
    mask2 = make_tissue(np.ones((4, 3, 3)), spacing=(1.0, 1.0, 4.0))
    v1 = tissue_volume_3d(mask1, "skeletal_muscle", SliceRange(0, 3))
    v2 = tissue_volume_3d(mask2, "skeletal_muscle", SliceRange(0, 3))
    assert v2 == pytest.approx(2 * v1)


def test_volume_nonuniform_midpoint_thickness():
    # z positions 0, 2, 6 mm: thickness 2, 3, 4 mm for one 1mm² column
    codes = np.ones((3, 1, 1), dtype=np.uint8)
    mask = make_tissue(codes, spacing=(1.0, 1.0, 9.9), z=(0.0, 2.0, 6.0))
    v = tissue_volume_3d(mask, "skeletal_muscle", SliceRange(0, 2))
    assert v == pytest.approx((2.0 + 3.0 + 4.0) / 1000.0)


def test_volume_equals_sum_of_slice_areas_uniform(rng):
    codes = random_tissue_codes(rng, (5, 6, 6))
    mask = make_tissue(codes, spacing=(0.9, 1.1, 3.0))
    total = tissue_volume_3d(mask, "sat", SliceRange(1, 4))
    per_slice = sum(
        tissue_area_2d(mask, "sat", k) * (3.0 / 10.0) for k in range(1, 5)
    )
    assert total == pytest.approx(per_slice)


def test_ratio_area_counts():
    codes = np.zeros((1, 20, 20), dtype=np.uint8)
    codes.reshape(-1)[:100] = 3
    codes.reshape(-1)[100:300] = 2
    mask = make_tissue(codes)
    assert vat_sat_ratio(mask, SingleSlice(0)) == pytest.approx(0.5)


def test_ratio_zero_vat():
    mask = make_tissue([[[2, 2, 0]]])
    assert vat_sat_ratio(mask, SingleSlice(0)) == 0.0


def test_ratio_zero_sat_errors():
    mask = make_tissue([[[3, 3, 0]]])
    with pytest.raises(UndefinedRatioError):
        vat_sat_ratio(mask, SingleSlice(0))


def test_ratio_merge_into_sat_changes_denominator():
    mask = make_tissue([[[3, 3, 2, 4]]])  # 2 VAT, 1 SAT, 1 MF
    assert vat_sat_ratio(mask, SingleSlice(0), MergePolicy.SEPARATE) == pytest.approx(2.0)
    assert vat_sat_ratio(mask, SingleSlice(0), MergePolicy.SAT) == pytest.approx(1.0)
    assert vat_sat_ratio(mask, SingleSlice(0), MergePolicy.VAT) == pytest.approx(3.0)


def test_smi_unit_height():
    assert smi(150.0, 1.0) == 150.0


def test_smi_arithmetic():
    assert smi(150.0, 1.70) == pytest.approx(51.90311418685121)


def test_smi_rejects_nonpositive_height():
    with pytest.raises(ValueError):
        smi(150.0, 0.0)
    for height in (1e-200, 1e-160, 5e-324, -1.7, float("nan")):
        with pytest.raises(ValueError, match=f"height_m {height} gives no finite SMI"):
            smi(150.0, height)


def _phantom_truth(ph, policy=MergePolicy.MUSCLE):
    """Voxel-count oracle computed from the raw arrays."""
    hu_vals = ph.ct.values.astype(np.float64) * ph.ct.rescale_slope + ph.ct.rescale_intercept
    codes = np.asarray(ph.tissue.codes)
    merged = codes.copy()
    merged[codes == 4] = {MergePolicy.MUSCLE: 1, MergePolicy.SAT: 2,
                          MergePolicy.VAT: 3, MergePolicy.SEPARATE: 4}[policy]
    l3, lo, hi = ph.l3_slice, min(ph.t12_slice, ph.l4_slice), max(ph.t12_slice, ph.l4_slice)
    sx, sy, sz = ph.ct.spacing_mm
    px, vx = sx * sy / 100.0, sx * sy * sz / 1000.0
    m2 = merged[l3] == 1
    m3 = merged[lo : hi + 1] == 1
    return dict(
        region_2d=l3,
        region_3d=(lo, hi),
        muscle_density_2d=hu_vals[l3][m2].mean(),
        muscle_density_3d=hu_vals[lo : hi + 1][m3].mean(),
        vat_sat_ratio_2d=(merged[l3] == 3).sum() / (merged[l3] == 2).sum(),
        vat_sat_ratio_3d=(merged[lo : hi + 1] == 3).sum() / (merged[lo : hi + 1] == 2).sum(),
        muscle_area_2d=m2.sum() * px,
        muscle_volume_3d=m3.sum() * vx,
    )


@pytest.mark.parametrize("policy", list(MergePolicy))
def test_measure_subject_matches_phantom_oracle(policy, subject):
    ph = build_phantom(nx=48, ny=48, nz=20, spacing_mm=(0.8, 0.8, 2.5))
    truth = _phantom_truth(ph, policy)
    result = measure_subject(to_hu(ph.ct), ph.tissue, ph.vertebrae, subject, policy)
    assert result.region_2d == truth["region_2d"]
    assert result.region_3d == truth["region_3d"]
    assert result.muscle_area_2d == pytest.approx(truth["muscle_area_2d"], abs=0)
    assert result.muscle_volume_3d == pytest.approx(truth["muscle_volume_3d"], rel=1e-12)
    assert result.muscle_density_2d == pytest.approx(truth["muscle_density_2d"], abs=1e-6)
    assert result.muscle_density_3d == pytest.approx(truth["muscle_density_3d"], abs=1e-6)
    assert result.vat_sat_ratio_2d == pytest.approx(truth["vat_sat_ratio_2d"], rel=1e-12)
    assert result.vat_sat_ratio_3d == pytest.approx(truth["vat_sat_ratio_3d"], rel=1e-12)
    assert result.smi_2d == pytest.approx(truth["muscle_area_2d"] / 1.70**2, rel=1e-12)


def test_measure_subject_without_height():
    ph = build_phantom(nx=32, ny=32, nz=12)
    record = SubjectRecord("p2", 40.0)
    result = measure_subject(to_hu(ph.ct), ph.tissue, ph.vertebrae, record)
    assert result.smi_2d is None
    assert result.muscle_area_2d > 0


def test_measure_subject_zero_sat_errors(subject):
    ph = build_phantom(nx=32, ny=32, nz=12)
    codes = np.asarray(ph.tissue.codes).copy()
    codes[codes == 2] = 0  # remove SAT everywhere
    mask = make_tissue(codes, spacing=ph.tissue.spacing_mm)
    with pytest.raises(UndefinedRatioError):
        measure_subject(to_hu(ph.ct), mask, ph.vertebrae, subject)


def test_missing_level_error_keeps_no_volume_alive(subject):
    # a batch keeps going after a subject without L3: the error must not
    # hold that subject's volumes in a reference cycle until a gc pass
    ph = build_phantom(nx=24, ny=24, nz=10)
    codes = np.asarray(ph.vertebrae.codes).copy()
    codes[codes == 2] = 0
    vertebrae = replace(ph.vertebrae, codes=codes)
    hu = to_hu(ph.ct)
    alive = weakref.ref(hu)
    gc.disable()
    try:
        try:
            measure_subject(hu, ph.tissue, vertebrae, subject)
        except VertebraNotFoundError as exc:
            assert str(exc) == "label 'vertebrae_L3' has no voxels in volume"
        else:
            pytest.fail("a missing L3 level must raise")
        del hu
        assert alive() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("level", ["T12", "L3", "L4"])
def test_measure_pieces_refuses_a_missing_level_before_taking_a_piece(level, subject):
    ph = build_phantom(nx=24, ny=24, nz=10)
    codes = ph.vertebrae.codes_for(vertebra_label(level))
    picked = measurement_regions(
        replace(ph.vertebrae, codes=np.where(np.isin(ph.vertebrae.codes, codes), 0, ph.vertebrae.codes))
    )

    def pieces():
        pytest.fail("a piece was taken")
        yield

    with pytest.raises(VertebraNotFoundError, match=vertebra_label(level)):
        measure_pieces(ph.tissue, pieces(), picked, subject)


def test_spacing_scale_invariance(subject):
    ph1 = build_phantom(nx=40, ny=40, nz=16, spacing_mm=(1.0, 1.0, 2.0))
    ph2 = build_phantom(nx=40, ny=40, nz=16, spacing_mm=(2.0, 2.0, 4.0))
    r1 = measure_subject(to_hu(ph1.ct), ph1.tissue, ph1.vertebrae, subject)
    r2 = measure_subject(to_hu(ph2.ct), ph2.tissue, ph2.vertebrae, subject)
    assert r2.muscle_area_2d == pytest.approx(4 * r1.muscle_area_2d)
    assert r2.muscle_volume_3d == pytest.approx(8 * r1.muscle_volume_3d)
    assert r2.muscle_density_2d == pytest.approx(r1.muscle_density_2d)
    assert r2.vat_sat_ratio_2d == pytest.approx(r1.vat_sat_ratio_2d)


def test_merged_muscle_area_dominates_separate(rng):
    for _ in range(10):
        codes = random_tissue_codes(rng, (2, 6, 6))
        mask = make_tissue(codes)
        merged = apply_merge_policy(mask, MergePolicy.MUSCLE)
        for k in range(2):
            assert tissue_area_2d(merged, "skeletal_muscle", k) >= tissue_area_2d(
                mask, "skeletal_muscle", k
            )


# ---- measure_subject vs the per-metric public helpers ---------------------

def _measure_subject_reference(hu, tissue, vertebrae, subject, policy):
    """``apply_merge_policy`` once, then one public helper per metric.

    Metrics are taken in field order, so the first one that fails gives
    the error ``measure_subject`` must raise.
    """
    l3 = largest_label_slice(vertebrae, vertebra_label("L3"))
    r2d, r3d = SingleSlice(l3), region_t12_l4(vertebrae)
    merged = apply_merge_policy(tissue, policy)
    sep = MergePolicy.SEPARATE
    area = lambda: tissue_area_2d(merged, "skeletal_muscle", l3, sep)  # noqa: E731
    metrics = {
        "muscle_density_2d": lambda: muscle_density(hu, merged, r2d, sep),
        "muscle_density_3d": lambda: muscle_density(hu, merged, r3d, sep),
        "vat_sat_ratio_2d": lambda: vat_sat_ratio(merged, r2d, sep),
        "vat_sat_ratio_3d": lambda: vat_sat_ratio(merged, r3d, sep),
        "muscle_area_2d": area,
        "muscle_volume_3d": lambda: tissue_volume_3d(merged, "skeletal_muscle", r3d, sep),
        "smi_2d": lambda: None if subject.height_m is None else smi(area(), subject.height_m),
    }
    return BodyCompResult(
        subject_id=subject.subject_id,
        policy=policy,
        region_2d=l3,
        region_3d=(r3d.z_lo, r3d.z_hi),
        **{name: fn() for name, fn in metrics.items()},
    )


# two codes per tissue and a code for a name outside the tissue vocabulary
_NON_CANONICAL_MAP = {0: "background", 1: "skeletal_muscle", 2: "sat", 3: "vat",
                      4: "muscular_fat", 7: "skeletal_muscle", 8: "sat", 9: "muscular_fat",
                      11: "vat", 12: "bone"}


@st.composite
def subject_inputs(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nz = draw(st.integers(1, 8))
    shape = (nz, int(rng.integers(3, 7)), int(rng.integers(3, 7)))
    # any three peak slices: the L3 slice may fall outside the T12-L4
    # range, and T12 and L4 may share a slice (a degenerate range)
    t12, l3, l4 = (draw(st.integers(0, nz - 1)) for _ in range(3))
    geometry = {"spacing_mm": tuple(rng.uniform(0.3, 3.0, size=3))}
    if draw(st.booleans()):
        steps = rng.uniform(0.5, 4.0, size=nz) * rng.choice([-1, 1])
        geometry["z_positions_mm"] = tuple(np.cumsum(steps))
    label_map = _NON_CANONICAL_MAP if draw(st.booleans()) else {
        0: "background", 1: "skeletal_muscle", 2: "sat", 3: "vat", 4: "muscular_fat"}
    codes = rng.choice(list(label_map), size=shape).astype(np.uint8)
    tissue = LabelVolume(codes=codes, label_map=label_map, **geometry)
    vert = np.zeros(shape, dtype=np.uint8)
    for column, (code, z) in enumerate(((1, t12), (2, l3), (3, l4))):
        vert[z, 0, column] = code
    vertebrae = LabelVolume(codes=vert, label_map=VERT_MAP, **geometry)
    hu = make_hu(rng.uniform(-200, 200, size=shape), geometry["spacing_mm"],
                 geometry.get("z_positions_mm"))
    height = draw(st.sampled_from([None, 1.0, 1.73]))
    subject = SubjectRecord("s", 50.0, height_m=height)
    return hu, tissue, vertebrae, subject, draw(st.sampled_from(list(MergePolicy)))


@settings(max_examples=300, deadline=None)
@given(subject_inputs())
def test_measure_subject_matches_per_metric_reference(inputs):
    try:
        want = _measure_subject_reference(*inputs)
    except (EmptyRegionError, UndefinedRatioError) as exc:
        with pytest.raises(type(exc), match=str(exc)):
            measure_subject(*inputs)
        return
    assert measure_subject(*inputs) == want


# ---- slabs: measuring only the counted slices ------------------------------

def _slab(vol, sl):
    """The slices ``sl`` of ``vol``, as ``read_volume(path, z=sl)`` reads them."""
    z = vol.z_positions_mm
    z = z[sl] if z is not None else None
    if isinstance(vol, LabelVolume):
        return replace(vol, codes=vol.codes[sl], z_positions_mm=z)
    return replace(vol, values=vol.values[sl], z_positions_mm=z)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except BodycompError as exc:
        return type(exc), str(exc)


def _bits(density):
    return density.hex() if isinstance(density, float) else density


def _kind(outcome):
    """A density's bits, or the type of the error it raised."""
    return outcome.hex() if isinstance(outcome, float) else outcome[0]


def _gathered_hu(ct, mask, region, policy):
    """Float32 HU of the post-policy muscle voxels of ``mask`` in ``region``, in slice order."""
    muscle = _codes_of(code_classes(mask, policy), tissue_class("skeletal_muscle"))
    sl = region_slice(region, mask.nz)
    return ct.hu_of(ct.values[sl][select_codes(mask.codes[sl], muscle)])


def _fraction_mean(hu):
    """The mean of the float32 values ``hu`` in exact fractions, rounded once to a
    float; where a density raises, a tuple led by the error's type, as ``_outcome`` gives."""
    if hu.size == 0:
        return (EmptyRegionError,)
    if not np.isfinite(hu).all():
        return (NonFiniteHUError,)
    values, counts = np.unique(hu, return_counts=True)
    total = sum((Fraction(v) * c for v, c in zip(values.tolist(), counts.tolist())), Fraction(0))
    return float(total / hu.size)


def _float64_sum_is_exact(hu):
    """Whether every float64 partial sum of ``hu``, in any order, is exact.

    With 2^e the largest power of two dividing every nonzero value, it is
    when the sum of |value| is below 2^(53 + e); a sum of 0 is left out,
    as its sign is the summation's to choose. Where this holds, numpy's
    float64 mean is the exact mean rounded once.
    """
    values, counts = np.unique(hu[hu != 0], return_counts=True)
    if values.size == 0:
        return False
    table = [(Fraction(v), c) for v, c in zip(values.tolist(), counts.tolist())]

    def two_adic(x):  # the exponent of the largest power of two dividing x
        return ((x.numerator & -x.numerator).bit_length()
                - (x.denominator & -x.denominator).bit_length())

    e = min(two_adic(v) for v, _ in table)
    total = sum(v * c for v, c in table)
    return total != 0 and sum(abs(v) * c for v, c in table) < Fraction(2) ** (53 + e)


@settings(max_examples=300, deadline=None)
@given(subject_inputs(), st.sampled_from([None, 1.0, 0.7]))
def test_measure_subject_on_the_counted_slab_is_that_on_the_volume(inputs, slope):
    hu, tissue, vertebrae, subject, policy = inputs
    ct = hu  # an HU volume, or a raw one read at ``slope``
    if slope is not None:
        raw = np.rint(hu.values + 1024).astype(np.int16)
        ct = make_ct(raw, hu.spacing_mm, slope, -1024.0, hu.z_positions_mm)
    picked = measurement_regions(vertebrae)
    slab = picked.counted_slab()
    got = _outcome(measure_subject, _slab(ct, slab), _slab(tissue, slab), picked, subject, policy)
    want = _outcome(measure_subject, ct, tissue, vertebrae, subject, policy)
    assert got == want
    # every density is the exact mean: measure_subject's, muscle_density's,
    # and each side of evaluate_case's, on the volume or on the counted slab
    pred = replace(tissue, codes=np.roll(tissue.codes, 1, axis=2))
    case = evaluate_case(tissue, pred, _slab(ct, slab), picked, policy)
    for name, key in (("muscle_density_2d", "l3"), ("muscle_density_3d", "t12_l4")):
        region = picked.found[key]
        densities = [_outcome(muscle_density, ct, mask, region, policy) for mask in (tissue, pred)]
        assert _kind(densities[0]) == _kind(_fraction_mean(_gathered_hu(ct, tissue, region, policy)))
        if isinstance(want, BodyCompResult):
            assert _bits(getattr(want, name)) == _bits(densities[0])
        truth, predicted = densities
        if isinstance(truth, float) and isinstance(predicted, float):
            want_error = muscle_density_error_pct(abs(predicted - truth))
            assert _bits(case.metric_errors[name]) == _bits(want_error)
        else:
            assert case.metric_errors[name] is None and name in case.blank_reasons


# 14 slice positions with uneven steps, so that no two slabs' end slices
# have the same thickness by chance
_UNEVEN_Z = tuple(np.cumsum([0.0, 1.0, 1.5, 4.0, 1.0, 2.5, 1.0, 3.0, 1.0, 2.0, 5.0, 1.0, 2.0, 1.0]))


@pytest.mark.parametrize("policy", list(MergePolicy))
def test_slab_end_slices_keep_the_volume_thickness(policy, subject):
    ph = build_phantom(nx=32, ny=32, nz=14, vertebra_slices=(10, 6, 3))
    z = _UNEVEN_Z
    ct, tissue, vertebrae = (replace(v, z_positions_mm=z) for v in (ph.ct, ph.tissue, ph.vertebrae))
    picked = measurement_regions(vertebrae)
    slab = picked.counted_slab()
    assert 0 < slab.start and slab.stop < ct.nz  # both end slices are inside the volume
    want = measure_subject(ct, tissue, vertebrae, subject, policy)
    got = measure_subject(_slab(ct, slab), _slab(tissue, slab), picked, subject, policy)
    assert got == want
    # the slab's own geometry would give its end slices another thickness
    alone = tissue_volume_3d(_slab(tissue, slab), "skeletal_muscle", AllSlices(), policy)
    assert alone != pytest.approx(want.muscle_volume_3d)


def test_measure_subject_refuses_a_ct_that_is_neither_volume_nor_slab(subject):
    ph = build_phantom(nx=32, ny=32, nz=14, vertebra_slices=(10, 6, 3))
    z = _UNEVEN_Z
    ct, tissue, vertebrae = (replace(v, z_positions_mm=z) for v in (ph.ct, ph.tissue, ph.vertebrae))
    picked = measurement_regions(vertebrae)
    slab = picked.counted_slab()
    # a slab one slice off is told apart by its z positions; one slice
    # short, by its size
    for sl in (slice(slab.start + 1, slab.stop + 1), slice(slab.start, slab.stop - 1)):
        with pytest.raises(GeometryMismatchError):
            measure_subject(_slab(ct, sl), _slab(tissue, sl), picked, subject)


# ---- muscle densities from raw histograms ----------------------------------

_SLOPES = [0.0, -0.7, -1.0, -3.3e-3, 1.0, 0.7, 0.123, 3.3e-3]
_INTERCEPTS = [-1024.0, -1000.5, 0.0, -0.0, 17.25]


def _raw_values(rng, n, spread):
    """``n`` raw int16 CT values: a muscle-like peak, the whole range, or both ends."""
    if spread == "peak":
        centre, sd = rng.integers(-1100, 1500), rng.uniform(1, 60)
        values = rng.normal(centre, sd, size=n)
    elif spread == "range":
        values = rng.integers(-32768, 32768, size=n)
    else:  # values near both ends of the range and near 0, as a fallback rescale needs
        values = rng.choice([-32768, -32000, -1, 1, 2, 32000, 32767], size=n) + rng.integers(-9, 9, size=n)
    return np.clip(np.rint(values), -32768, 32767).astype(np.int16)


def _histogram_density(ct, mask, policy, reverse=False):
    """The density of a whole-volume region from ``MuscleHistograms``, a piece per plane."""
    muscle = _codes_of(code_classes(mask, policy), tissue_class("skeletal_muscle"))
    histograms = MuscleHistograms({"all": slice(0, mask.nz)})
    planes = range(mask.nz)
    for z in reversed(planes) if reverse else planes:  # each piece widens the span
        histograms.add(z, ct, z, select_codes(mask.codes[z], muscle))
        histograms.bin()
    return _outcome(histograms.density, "all")


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 2_000_000),
    slope=st.sampled_from(_SLOPES),
    intercept=st.sampled_from(_INTERCEPTS),
    spread=st.sampled_from(["peak", "range", "ends"]),
    policy=st.sampled_from(list(MergePolicy)),
    hu=st.booleans(),
    reverse=st.booleans(),
)
# a rescale whose exact sum needs more than 53 bits
@example(seed=3, n=400_000, slope=0.7, intercept=0.0, spread="ends", policy=MergePolicy.MUSCLE,
         hu=False, reverse=False)
# a rescale whose HU overflows float32 to inf
@example(seed=5, n=1_000, slope=1e36, intercept=-1024.0, spread="peak", policy=MergePolicy.MUSCLE,
         hu=False, reverse=False)
# the same values in an HU CT, its planes taken last to first
@example(seed=3, n=400_000, slope=0.7, intercept=0.0, spread="ends", policy=MergePolicy.MUSCLE,
         hu=True, reverse=True)
def test_histogram_mean_is_the_exact_mean(seed, n, slope, intercept, spread, policy, hu, reverse):
    rng = np.random.default_rng(seed)
    planes = int(rng.integers(1, 5))
    width = max(1, n // planes)
    raw = _raw_values(rng, planes * width, spread).reshape(planes, 1, width)
    codes = rng.choice([0, 1, 2, 4], size=raw.shape, p=[0.2, 0.5, 0.1, 0.2]).astype(np.uint8)
    ct, mask = make_ct(raw, slope=slope, intercept=intercept), make_tissue(codes)
    if hu:
        ct = to_hu(ct)
    gathered = _gathered_hu(ct, mask, AllSlices(), policy)
    density = _histogram_density(ct, mask, policy, reverse)
    assert _kind(density) == _kind(_fraction_mean(gathered))
    # where numpy's float64 mean is exact, the two are the same bits
    if isinstance(density, float) and _float64_sum_is_exact(gathered):
        assert _bits(density) == float(gathered.mean(dtype=np.float64)).hex()


def test_a_sum_past_53_bits_is_exact():
    # raw 1 gives HU 0.7 in float32, a multiple of 2^-24 only; next to HU
    # near 22937 the 400k voxels sum past 2^(53-24)
    raw = np.full((1, 1, 400_000), 32767, dtype=np.int16)
    raw[0, 0, ::2] = 1
    ct, mask = make_ct(raw, slope=0.7, intercept=0.0), make_tissue(np.ones(raw.shape))
    gathered = _gathered_hu(ct, mask, AllSlices(), MergePolicy.MUSCLE)
    assert not _float64_sum_is_exact(gathered)
    density = muscle_density(ct, mask, AllSlices())
    assert _bits(density) == _bits(_fraction_mean(gathered))
    assert _bits(_histogram_density(ct, mask, MergePolicy.MUSCLE)) == _bits(density)


def test_a_sum_past_int64_is_exact():
    # 2^40 voxels at each value: no int64 holds count * (HU / 2^-24)
    hu = np.array([0.7, -1024.0, 22937.0, 3.0e-5], dtype=np.float32)
    counts = np.full(hu.size, 1 << 40, dtype=np.int64)
    total = sum(Fraction(v) * c for v, c in zip(hu.tolist(), counts.tolist()))
    assert _bits(_exact_mean_hu(hu, counts)) == _bits(float(total / int(counts.sum())))
    counts[1] = 1
    total = sum(Fraction(v) * c for v, c in zip(hu.tolist(), counts.tolist()))
    assert _bits(_exact_mean_hu(hu, counts)) == _bits(float(total / int(counts.sum())))


@pytest.mark.parametrize("intercept", [-0.0, 0.0])
def test_a_mean_of_zeros_is_positive_zero(intercept):
    # at slope 0 every HU is +0.0 or -0.0
    ct = make_ct([[[-5, -7, 3]]], slope=0.0, intercept=intercept)
    mask = make_tissue([[[1, 1, 0]]])
    assert _bits(muscle_density(ct, mask, AllSlices())) == _bits(0.0)
    assert _bits(muscle_density(to_hu(ct), mask, AllSlices())) == _bits(0.0)
    assert _bits(_histogram_density(ct, mask, MergePolicy.MUSCLE)) == _bits(0.0)
