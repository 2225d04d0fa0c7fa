import math

import numpy as np
import pytest

from bodycomp import (
    BodyCompResult,
    GeometryMismatchError,
    LabelVolume,
    MergePolicy,
    SubjectRecord,
    UnitState,
    UnitStateError,
    LabelVocabularyError,
    VoxelVolume,
    apply_merge_policy,
    to_hu,
)
from bodycomp.model import Geometry, require_same_geometry
from conftest import make_ct, make_tissue, random_tissue_codes


def test_to_hu_affine_at_zero():
    ct = make_ct(np.zeros((1, 1, 1)), slope=1.0, intercept=-1024.0)
    hu = to_hu(ct)
    assert hu.values[0, 0, 0] == -1024.0
    assert hu.unit_state is UnitState.HU


def test_to_hu_identity_params():
    vals = np.arange(8, dtype=np.int16).reshape(2, 2, 2)
    hu = to_hu(make_ct(vals, slope=1.0, intercept=0.0))
    assert np.array_equal(hu.values, vals.astype(np.float32))


def test_to_hu_hand_arithmetic():
    hu = to_hu(make_ct([[[1000]]], slope=2.0, intercept=-1024.0))
    assert hu.values[0, 0, 0] == 976.0


def test_to_hu_rejects_double_conversion():
    hu = to_hu(make_ct([[[0]]]))
    with pytest.raises(UnitStateError):
        to_hu(hu)


def test_to_hu_preserves_geometry_and_metadata():
    ct = make_ct(np.zeros((3, 2, 4)), spacing=(0.7, 0.8, 2.5), z=(0.0, 2.5, 5.0), sid="s")
    hu = to_hu(ct)
    assert hu.dims == ct.dims
    assert hu.spacing_mm == ct.spacing_mm
    assert hu.z_positions_mm == ct.z_positions_mm
    assert hu.subject_id == "s"
    assert hu.rescale_slope == ct.rescale_slope


def test_to_hu_pointwise_affine_property(rng):
    # hu[v] must equal slope*v + intercept for every voxel
    for _ in range(20):
        vals = rng.integers(-1024, 3000, size=(4, 5, 6), dtype=np.int16)
        slope = float(rng.uniform(0.5, 2.5))
        intercept = float(rng.uniform(-1100, 100))
        hu = to_hu(make_ct(vals, slope=slope, intercept=intercept))
        expected = (vals.astype(np.float64) * slope + intercept).astype(np.float32)
        np.testing.assert_allclose(hu.values, expected, rtol=1e-6, atol=1e-3)


@pytest.mark.parametrize(
    "policy,target",
    [
        (MergePolicy.MUSCLE, 1),
        (MergePolicy.SAT, 2),
        (MergePolicy.VAT, 3),
    ],
)
def test_merge_policy_relabels_mf(policy, target):
    mask = make_tissue([[[0, 1, 2, 3, 4, 4]]])
    merged = apply_merge_policy(mask, policy)
    assert merged.codes[0, 0, 4] == target
    assert merged.codes[0, 0, 5] == target
    # everything else untouched
    assert np.array_equal(merged.codes[0, 0, :4], mask.codes[0, 0, :4])


def test_merge_policy_separate_is_identity():
    mask = make_tissue([[[0, 1, 2, 3, 4]]])
    assert apply_merge_policy(mask, MergePolicy.SEPARATE) is mask


def test_merge_policy_conserves_nonzero_count(rng):
    for policy in MergePolicy:
        codes = random_tissue_codes(rng, (4, 6, 5))
        mask = make_tissue(codes)
        merged = apply_merge_policy(mask, policy)
        assert np.count_nonzero(merged.codes) == np.count_nonzero(codes)


def test_merge_policy_idempotent(rng):
    codes = random_tissue_codes(rng, (3, 8, 8))
    mask = make_tissue(codes)
    for policy in MergePolicy:
        once = apply_merge_policy(mask, policy)
        twice = apply_merge_policy(once, policy)
        assert np.array_equal(once.codes, twice.codes)


def test_merge_policy_touches_only_mf_voxels(rng):
    codes = random_tissue_codes(rng, (3, 8, 8))
    mask = make_tissue(codes)
    for policy in MergePolicy:
        merged = apply_merge_policy(mask, policy)
        changed = merged.codes != codes
        assert np.all(codes[changed] == 4)


def test_merge_policy_requires_tissue_vocabulary():
    mask = LabelVolume(
        codes=np.zeros((1, 1, 1), dtype=np.uint8),
        label_map={0: "background", 1: "vertebrae_L3"},
        spacing_mm=(1, 1, 1),
    )
    with pytest.raises(LabelVocabularyError):
        apply_merge_policy(mask, MergePolicy.MUSCLE)


def test_volumes_are_immutable():
    ct = make_ct(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        ct.values[0, 0, 0] = 5
    mask = make_tissue(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        mask.codes[0, 0, 0] = 1


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(values=np.zeros((0, 2, 2), dtype=np.int16), spacing_mm=(1, 1, 1)),
        dict(values=np.zeros((2, 2, 2), dtype=np.int16), spacing_mm=(0, 1, 1)),
        dict(values=np.zeros((2, 2, 2), dtype=np.int16), spacing_mm=(1, 1, -5)),
        dict(
            values=np.zeros((2, 2, 2), dtype=np.int16),
            spacing_mm=(1, 1, 1),
            z_positions_mm=(0.0,),
        ),
        dict(
            values=np.zeros((3, 2, 2), dtype=np.int16),
            spacing_mm=(1, 1, 1),
            z_positions_mm=(0.0, 2.0, 2.0),
        ),
        dict(values=np.zeros((2, 2, 2), dtype=np.float32), spacing_mm=(1, 1, 1)),
        dict(values=np.zeros((2, 2, 2), dtype=np.int16), spacing_mm=(1, 1, 1), rescale_slope=float("nan")),
        dict(values=np.zeros((2, 2, 2), dtype=np.int16), spacing_mm=(1, 1, 1), rescale_slope=float("inf")),
        dict(values=np.zeros((2, 2, 2), dtype=np.int16), spacing_mm=(1, 1, 1), rescale_intercept=float("-inf")),
    ],
)
def test_voxel_volume_invariants(kwargs):
    with pytest.raises(ValueError):
        VoxelVolume(**kwargs)


def test_label_volume_requires_mapped_codes():
    with pytest.raises(ValueError):
        LabelVolume(
            codes=np.array([[[7]]], dtype=np.uint8),
            label_map={0: "background", 1: "sat"},
            spacing_mm=(1, 1, 1),
        )


def test_subject_record_invariants():
    with pytest.raises(ValueError):
        SubjectRecord("p", -1.0)
    with pytest.raises(ValueError):
        SubjectRecord("p", 50.0, height_m=0.0)
    assert SubjectRecord("p", 50.0).height_m is None
    for age, height in ((math.nan, None), (math.inf, None), (50.0, math.inf), (50.0, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            SubjectRecord("p", age, height_m=height)


def test_bodycomp_result_invariants():
    ok = dict(
        subject_id="p",
        policy=MergePolicy.MUSCLE,
        region_2d=3,
        region_3d=(1, 5),
        muscle_density_2d=40.0,
        muscle_density_3d=41.0,
        vat_sat_ratio_2d=0.5,
        vat_sat_ratio_3d=0.6,
        muscle_area_2d=100.0,
        muscle_volume_3d=900.0,
    )
    BodyCompResult(**ok)
    with pytest.raises(ValueError):
        BodyCompResult(**{**ok, "region_3d": (5, 1)})
    with pytest.raises(ValueError):
        BodyCompResult(**{**ok, "muscle_area_2d": -1.0})
    with pytest.raises(ValueError):
        BodyCompResult(**{**ok, "vat_sat_ratio_2d": -0.1})


_GRID = "dims (4, 4, 3) spacing (1.0, 1.0, 1.0)"


@pytest.mark.parametrize(
    "a, b, why",
    [
        ((0.0, 1.0, 2.0), (0.0, 1.0, 2.5), "slice 2 at z 2.0 vs 2.5"),
        ((0.0, 1.0, 2.0), (0.5, 1.5, 2.5), "slice 0 at z 0.0 vs 0.5"),
        ((0.0, 1.0, 2.0), None, "z positions vs no z positions"),
        (None, (0.0, 1.0, 2.0), "no z positions vs z positions"),
    ],
)
def test_a_z_only_mismatch_names_where_the_z_positions_differ(a, b, why):
    # dims and spacing agree, so printing them twice would not say what differs
    with pytest.raises(GeometryMismatchError) as caught:
        require_same_geometry(Geometry((4, 4, 3), (1, 1, 1), a), Geometry((4, 4, 3), (1, 1, 1), b))
    assert str(caught.value) == f"geometry mismatch: {_GRID}; {why}"


def test_a_dims_or_spacing_mismatch_names_both_grids():
    with pytest.raises(GeometryMismatchError) as caught:
        require_same_geometry(Geometry((4, 4, 3), (1, 1, 1), (0.0, 1.0, 2.0)), Geometry((4, 4, 3), (1, 1, 2)))
    assert str(caught.value) == f"geometry mismatch: {_GRID} vs dims (4, 4, 3) spacing (1.0, 1.0, 2.0)"
    require_same_geometry(Geometry((4, 4, 3), (1, 1, 1), (0, 1, 2)), Geometry((4, 4, 3), (1.0, 1, 1), (0.0, 1.0, 2.0)))
