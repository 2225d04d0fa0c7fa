"""The HU consumers take the CT as read: a raw CT gives exactly what its
``to_hu`` gives, converting only the voxels they read."""

import gc
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bodycomp import (
    BodycompError,
    EmptyRegionError,
    LabelVolume,
    MergePolicy,
    NonFiniteHUError,
    SubjectRecord,
    UnitState,
    VoxelVolume,
    build_phantom,
    default_tissue_label_map,
    dilate_sat_to_skin,
    evaluate_case,
    measure_subject,
    muscle_density,
    muscular_fat_candidates,
    to_hu,
)
from bodycomp.regions import measurement_regions
from conftest import VERT_MAP, make_ct


_PLANE_MASK = np.arange(4 * 5).reshape(4, 5) % 3 == 0
_SLAB_MASK = np.arange(2 * 4 * 5).reshape(2, 4, 5) % 7 == 1


@pytest.mark.parametrize(
    "index, where",
    [
        (1, None),
        ((0, 2), None),
        ((2, 1, 3), None),
        (slice(1, 3), None),
        (..., None),
        (np.s_[:, 1:, ::2], None),
        ((1, _PLANE_MASK), None),
        (np.arange(3 * 4 * 5).reshape(3, 4, 5) % 7 == 1, None),
        (1, _PLANE_MASK),
        (slice(1, 3), _SLAB_MASK),
    ],
)
@pytest.mark.parametrize("slope, intercept", [(1.0, -1024.0), (0.7, -1024.37), (1e36, 0.5)])
def test_hu_at_is_to_hu_at_the_index(index, where, slope, intercept):
    """The HU at an index, ``hu_of`` of the values there, is ``to_hu``'s there."""
    raw = np.arange(-30, 30, dtype=np.int16).reshape(3, 4, 5) * 500
    ct = make_ct(raw, slope=slope, intercept=intercept)
    hu = to_hu(ct)

    def at(values):
        values = values[index]
        return values if where is None else values[where]

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = np.asarray(ct.hu_of(at(ct.values)))
    want = np.asarray(at(hu.values))
    assert got.dtype == np.float32
    assert got.tobytes() == want.tobytes()  # bit-identical, inf included
    assert np.asarray(hu.hu_of(at(hu.values))).tobytes() == want.tobytes()


def test_hu_of_an_hu_volume_is_its_stored_values():
    hu = to_hu(make_ct(np.ones((2, 3, 3)), slope=3.0))
    assert np.shares_memory(hu.hu_of(hu.values[1]), hu.values)
    assert hu.unit_state is UnitState.HU


# ---- a raw CT gives exactly the result of its to_hu ------------------------

SLOPES = [(1.0, -1024.0), (0.7, -1024.0), (1.0, -1023.5), (0.7, 11.25), (1e36, -1024.0)]


@st.composite
def ct_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    slope, intercept = draw(st.sampled_from(SLOPES))
    nz, ny, nx = int(rng.integers(1, 7)), int(rng.integers(3, 10)), int(rng.integers(3, 10))
    geometry = {"spacing_mm": (0.8, 0.9, 2.5)}
    if draw(st.booleans()):
        geometry["z_positions_mm"] = tuple(np.cumsum(rng.uniform(0.5, 4.0, size=nz)))
    if slope > 1e30:
        # every voxel overflows float32 HU
        raw = rng.integers(400, 1400, size=(nz, ny, nx))
    else:
        # HU on the -800 skin threshold and the -220/-50 muscular-fat
        # bounds, inside the muscular-fat range (so components form), and
        # anywhere from air to bone
        hu = np.select(
            [rng.random((nz, ny, nx)) < p for p in (0.15, 0.55)],
            [
                rng.choice([-800.0, -799.0, -220.0, -221.0, -50.0, -49.0], size=(nz, ny, nx)),
                rng.uniform(-220.0, -50.0, size=(nz, ny, nx)),
            ],
            rng.uniform(-1024.0, 400.0, size=(nz, ny, nx)),
        )
        raw = np.round((hu - intercept) / slope)
    ct = VoxelVolume(
        values=raw.astype(np.int16),
        rescale_slope=slope,
        rescale_intercept=intercept,
        **geometry,
    )
    labels = default_tissue_label_map()

    def tissue():
        return LabelVolume(
            codes=rng.choice(5, size=(nz, ny, nx), p=[0.3, 0.3, 0.2, 0.1, 0.1]).astype(np.uint8),
            label_map=labels,
            **geometry,
        )

    vert_codes = rng.choice(4, size=(nz, ny, nx), p=[0.7, 0.1, 0.1, 0.1]).astype(np.uint8)
    vert_codes.reshape(-1)[rng.choice(vert_codes.size, 3, replace=False)] = [1, 2, 3]
    vertebrae = LabelVolume(codes=vert_codes, label_map=VERT_MAP, **geometry)
    policy = draw(st.sampled_from(list(MergePolicy)))
    return ct, tissue(), tissue(), vertebrae, policy


def _outcome(fn, *args):
    """The result of a call, or the type and message of the error it raised."""
    try:
        return fn(*args)
    except BodycompError as exc:
        return type(exc), str(exc)


def _codes(vol):
    return vol.codes.tobytes(), vol.label_map


@settings(max_examples=200, deadline=None)
@given(ct_cases())
def test_raw_ct_gives_the_result_of_its_hu(case):
    ct, gt, pred, vertebrae, policy = case
    regions = measurement_regions(vertebrae).found
    subject = SubjectRecord("s", 50.0, height_m=1.7)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        hu = to_hu(ct)
        outcomes = [
            [
                *(_outcome(muscle_density, vol, gt, r, policy) for r in regions.values()),
                _outcome(measure_subject, vol, gt, vertebrae, subject, policy),
                _outcome(evaluate_case, gt, pred, vol, vertebrae, policy),
                _codes(dilate_sat_to_skin(gt, vol)),
                _codes(muscular_fat_candidates(vol, gt)),
            ]
            for vol in (ct, hu)
        ]
    assert outcomes[0] == outcomes[1]
    if ct.rescale_slope > 1e30:
        # inf HU: the densities fail, in measure and in evaluate
        *densities, measured, case_eval = outcomes[0][: len(regions) + 2]
        for failed in (*densities, measured):
            assert failed[0] in (NonFiniteHUError, EmptyRegionError)
        for name in ("muscle_density_2d", "muscle_density_3d"):
            assert case_eval.metric_errors[name] is None
            assert name in case_eval.blank_reasons


def test_overflowing_rescale_is_a_non_finite_density_without_a_warning():
    ph = build_phantom(nx=32, ny=32, nz=12, rescale_slope=1.0)
    ct = replace(ph.ct, rescale_slope=1e36)
    subject = SubjectRecord("s", 50.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NonFiniteHUError):
            measure_subject(ct, ph.tissue, ph.vertebrae, subject)
        case = evaluate_case(ph.tissue, ph.tissue, ct, ph.vertebrae)
    assert case.metric_errors["muscle_density_2d"] is None
    assert "infinite HU" in case.blank_reasons["muscle_density_2d"]
    assert case.metric_errors["muscle_area_2d"] == 0.0


# ---- memory: no float32 copy of the CT ---------------------------------------

@pytest.fixture(scope="module")
def ct_sized():
    """A raw 256x256x64 phantom and a prediction with a boundary shift."""
    ph = build_phantom(nx=256, ny=256, nz=64, spacing_mm=(0.7, 0.7, 1.5), rescale_slope=0.7)
    pred = replace(ph.tissue, codes=np.roll(ph.tissue.codes, 2, axis=2))
    muscular_fat_candidates(ph.ct, ph.tissue)  # any one-time set-up runs outside the traced calls
    return ph, pred


def _peak_bytes(fn, *args):
    """Peak traced allocation of ``fn(*args)``, its result included."""
    gc.collect()
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak


@pytest.mark.parametrize(
    "call",
    [
        lambda ph, pred: (measure_subject, ph.ct, ph.tissue, ph.vertebrae, SubjectRecord("s", 0)),
        lambda ph, pred: (evaluate_case, ph.tissue, pred, ph.ct, ph.vertebrae),
        lambda ph, pred: (dilate_sat_to_skin, ph.tissue, ph.ct),
        lambda ph, pred: (muscular_fat_candidates, ph.ct, ph.tissue),
    ],
    ids=["measure_subject", "evaluate_case", "dilate_sat_to_skin", "muscular_fat_candidates"],
)
def test_peak_memory_is_under_two_bytes_per_ct_voxel(ct_sized, call):
    ph, pred = ct_sized
    fn, *args = call(ph, pred)
    # a float32 HU copy of the CT alone is 4 bytes per voxel
    assert _peak_bytes(fn, *args) < 2 * ph.ct.values.size
