import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bodycomp import (
    AllSlices,
    BodycompError,
    ConstantInputError,
    GeometryMismatchError,
    METRIC_FIELDS,
    LabelVolume,
    MergePolicy,
    SingleSlice,
    VertebraNotFoundError,
    VoxelVolume,
    aggregate_cases,
    apply_merge_policy,
    build_phantom,
    dice,
    evaluate_case,
    evaluate_masks,
    largest_label_slice,
    metric_pct_difference,
    mrae,
    muscle_density,
    muscle_density_error_pct,
    pearson_r,
    r_squared,
    region_t12_l4,
    tissue_area_2d,
    tissue_volume_3d,
    to_hu,
    vat_sat_ratio,
    vertebra_label,
    write_volume,
)
from bodycomp.cli import _csv_row, main
from bodycomp.evaluation import CaseEvaluation, PairResult
from bodycomp.io import read_header
from bodycomp.regions import region_slice
from conftest import VERT_MAP, make_tissue, random_tissue_codes


# ---- independent reference implementations -------------------------------

def dice_oracle(a, b):
    """Set-based Dice, independent of the array implementation."""
    sa = set(map(tuple, np.argwhere(np.asarray(a, dtype=bool))))
    sb = set(map(tuple, np.argwhere(np.asarray(b, dtype=bool))))
    if not sa and not sb:
        return 1.0
    return 2.0 * len(sa & sb) / (len(sa) + len(sb))


def mrae_oracle(truth, pred):
    terms = []
    skipped = 0
    for t, p in zip(truth, pred):
        if t == 0 and p == 0:
            terms.append(0.0)
        elif t == 0:
            skipped += 1
        else:
            terms.append(abs(t - p) / abs(t))
    return (sum(terms) / len(terms) if terms else float("nan")), skipped


def r_squared_oracle(obs, pred):
    mean = sum(obs) / len(obs)
    ss_tot = sum((y - mean) ** 2 for y in obs)
    ss_res = sum((y - yh) ** 2 for y, yh in zip(obs, pred))
    return 1.0 - ss_res / ss_tot


def pearson_oracle(x, y):
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y)) / n
    sx = (sum((a - mx) ** 2 for a in x) / n) ** 0.5
    sy = (sum((b - my) ** 2 for b in y) / n) ** 0.5
    return cov / (sx * sy)


# ---- dice -----------------------------------------------------------------

def test_dice_identical_masks():
    m = np.array([[1, 0], [1, 1]], dtype=bool)
    assert dice(m, m) == (1.0, False)


def test_dice_disjoint_masks():
    a = np.array([1, 1, 0, 0], dtype=bool)
    b = np.array([0, 0, 1, 1], dtype=bool)
    assert dice(a, b).value == 0.0


def test_dice_half_overlap():
    a = np.zeros(8, dtype=bool)
    b = np.zeros(8, dtype=bool)
    a[:4] = True
    b[2:6] = True
    assert dice(a, b).value == 0.5


def test_dice_both_empty_flagged():
    empty = np.zeros((2, 2), dtype=bool)
    result = dice(empty, empty)
    assert result.value == 1.0
    assert result.degenerate


def test_dice_shape_mismatch():
    with pytest.raises(GeometryMismatchError):
        dice(np.zeros((2, 2), bool), np.zeros((2, 3), bool))


def test_dice_symmetry_and_oracle(rng):
    for _ in range(200):
        shape = tuple(rng.integers(1, 7, size=3))
        a = rng.random(shape) < 0.4
        b = rng.random(shape) < 0.4
        d = dice(a, b).value
        assert d == dice(b, a).value
        assert d == pytest.approx(dice_oracle(a, b), abs=1e-12)


def test_dice_monotone_in_intersection(rng):
    # fixed |A|, |B|: growing the intersection cannot lower the score
    a = np.zeros(30, dtype=bool)
    a[:10] = True
    prev = -1.0
    for overlap in range(0, 11):
        b = np.zeros(30, dtype=bool)
        b[10 - overlap : 20 - overlap] = True
        d = dice(a, b).value
        assert d >= prev
        prev = d


# ---- mrae -----------------------------------------------------------------

def test_mrae_exact_prediction():
    assert mrae([3.0, 4.0], [3.0, 4.0]).value == 0.0


def test_mrae_ten_percent():
    assert mrae([100.0], [90.0]).value == pytest.approx(0.10)


def test_mrae_mean_of_terms():
    assert mrae([50.0, 200.0], [55.0, 180.0]).value == pytest.approx(0.10)


def test_mrae_both_zero_contributes_zero():
    result = mrae([0.0, 100.0], [0.0, 100.0])
    assert result.value == 0.0
    assert result.skipped == 0


def test_mrae_zero_truth_skipped():
    result = mrae([0.0, 100.0], [5.0, 110.0])
    assert result.skipped == 1
    assert result.value == pytest.approx(0.10)


def test_mrae_strict_mode():
    with pytest.raises(ZeroDivisionError):
        mrae([0.0], [5.0], strict=True)


def test_mrae_empty_input():
    with pytest.raises(ValueError):
        mrae([], [])


def test_mrae_oracle(rng):
    for _ in range(200):
        n = int(rng.integers(1, 30))
        truth = rng.choice([0.0, 1.0], size=n) * rng.uniform(1, 100, size=n)
        pred = rng.uniform(0, 100, size=n)
        got = mrae(truth, pred)
        want_value, want_skipped = mrae_oracle(truth, pred)
        assert got.skipped == want_skipped
        if np.isnan(want_value):
            assert np.isnan(got.value)
        else:
            assert got.value == pytest.approx(want_value, abs=1e-12)


# ---- r_squared / pearson ---------------------------------------------------

def test_r_squared_perfect_prediction():
    assert r_squared([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0


def test_r_squared_mean_prediction_is_zero():
    obs = [1.0, 2.0, 3.0, 10.0]
    mean = sum(obs) / len(obs)
    assert r_squared(obs, [mean] * 4) == pytest.approx(0.0)


def test_r_squared_half():
    assert r_squared([1.0, 2.0, 3.0], [1.0, 2.0, 4.0]) == pytest.approx(0.5)


def test_r_squared_constant_obs():
    with pytest.raises(ConstantInputError):
        r_squared([2.0, 2.0], [1.0, 3.0])


def test_r_squared_oracle_and_bound(rng):
    for _ in range(100):
        n = int(rng.integers(2, 40))
        obs = rng.uniform(-10, 10, size=n)
        if np.ptp(obs) == 0:
            obs[0] += 1.0
        pred = rng.uniform(-10, 10, size=n)
        got = r_squared(obs, pred)
        assert got <= 1.0
        assert got == pytest.approx(r_squared_oracle(list(obs), list(pred)), abs=1e-9)


def test_r_squared_least_squares_is_optimal(rng):
    # closed-form regression line maximizes r² among affine predictors
    for _ in range(30):
        n = int(rng.integers(3, 30))
        x = rng.uniform(0, 10, size=n)
        y = 2.0 * x + rng.normal(0, 1.0, size=n)
        if np.ptp(y) == 0:
            continue
        slope, intercept = np.polyfit(x, y, 1)
        fitted = slope * x + intercept
        best = r_squared(y, fitted)
        for _ in range(10):
            a = slope + rng.normal(0, 0.3)
            b = intercept + rng.normal(0, 0.3)
            assert r_squared(y, a * x + b) <= best + 1e-9


def test_pearson_positive_affine():
    x = [1.0, 2.0, 5.0]
    assert pearson_r(x, [2 * v + 1 for v in x]) == pytest.approx(1.0)


def test_pearson_negation():
    x = [1.0, 2.0, 5.0]
    assert pearson_r(x, [-v for v in x]) == pytest.approx(-1.0)


def test_pearson_hand_value():
    assert pearson_r([1.0, 2.0, 3.0], [1.0, 3.0, 2.0]) == pytest.approx(0.5)


def test_pearson_constant_series():
    with pytest.raises(ConstantInputError):
        pearson_r([1.0, 1.0], [1.0, 2.0])


def test_pearson_oracle_and_invariances(rng):
    for _ in range(100):
        n = int(rng.integers(2, 40))
        x = rng.uniform(-5, 5, size=n)
        y = rng.uniform(-5, 5, size=n)
        if np.ptp(x) == 0 or np.ptp(y) == 0:
            continue
        r = pearson_r(x, y)
        assert -1.0 - 1e-12 <= r <= 1.0 + 1e-12
        assert r == pytest.approx(pearson_oracle(list(x), list(y)), abs=1e-9)
        # invariant under positive affine transform; negates under negation
        assert pearson_r(3.0 * x + 2.0, y) == pytest.approx(r, abs=1e-9)
        assert pearson_r(-x, y) == pytest.approx(-r, abs=1e-9)


# ---- error normalizations ---------------------------------------------------

def test_density_error_pct_zero():
    assert muscle_density_error_pct(0.0) == 0.0


def test_density_error_pct_range_width():
    assert muscle_density_error_pct(1.79) == pytest.approx(1.0)
    assert muscle_density_error_pct(179.0) == pytest.approx(100.0)


def test_density_error_pct_rejects_negative():
    with pytest.raises(ValueError):
        muscle_density_error_pct(-0.1)


def test_metric_pct_difference():
    assert metric_pct_difference(5.0, 5.0) == 0.0
    assert metric_pct_difference(200.0, 220.0) == pytest.approx(10.0)
    with pytest.raises(ZeroDivisionError):
        metric_pct_difference(0.0, 1.0)


# ---- evaluate_masks ----------------------------------------------------------

def _phantom_inputs(**kw):
    ph = build_phantom(**kw)
    return to_hu(ph.ct), ph.tissue, ph.vertebrae


def test_evaluate_identical_masks_is_perfect():
    hu, tissue, vertebrae = _phantom_inputs(nx=40, ny=40, nz=16)
    report = evaluate_masks(tissue, tissue, hu, vertebrae)
    assert report.case_count == 1
    for row in report.rows:
        assert row.dice_mean == 1.0
        assert row.mrae == 0.0 or row.mrae is None
    for metric in report.metric_errors:
        assert metric.mean_pct == 0.0


def test_evaluate_merge_commutes_with_mf_relabel():
    hu, tissue, vertebrae = _phantom_inputs(nx=40, ny=40, nz=16)
    pred_codes = np.asarray(tissue.codes).copy()
    pred_codes[pred_codes == 4] = 1  # predict MF voxels as muscle
    pred = make_tissue(pred_codes, spacing=tissue.spacing_mm)
    report = evaluate_masks(tissue, pred, hu, vertebrae, MergePolicy.MUSCLE)
    for region in ("l3", "t12_l4", "all"):
        assert report.row("skeletal_muscle", region).dice_mean == 1.0
    # separate muscular fat entry records the miss
    assert report.row("muscular_fat", "all").dice_mean == 0.0


def test_evaluate_single_label_hand_count():
    gt_codes = np.zeros((1, 4, 4), dtype=np.uint8)
    pred_codes = np.zeros((1, 4, 4), dtype=np.uint8)
    gt_codes[0, 0, :4] = 1
    pred_codes[0, 0, 2:4] = 1
    pred_codes[0, 1, :2] = 1
    gt = make_tissue(gt_codes)
    pred = make_tissue(pred_codes)
    report = evaluate_masks(gt, pred)
    # |A|=4, |B|=4, |A∩B|=2 -> 0.5
    assert report.row("skeletal_muscle", "all").dice_mean == 0.5


def test_evaluate_dice_equals_premerged_dice(rng):
    for policy in MergePolicy:
        for _ in range(10):
            shape = (3, 6, 6)
            gt = make_tissue(random_tissue_codes(rng, shape))
            pred = make_tissue(random_tissue_codes(rng, shape))
            report = evaluate_masks(gt, pred, policy=policy)
            gm = apply_merge_policy(gt, policy)
            pm = apply_merge_policy(pred, policy)
            for label in ("skeletal_muscle", "sat", "vat"):
                want = dice(gm.binary(label), pm.binary(label)).value
                assert report.row(label, "all").dice_mean == want
            want_mf = dice(gt.binary("muscular_fat"), pred.binary("muscular_fat")).value
            assert report.row("muscular_fat", "all").dice_mean == want_mf


def test_evaluate_without_vertebrae_only_all_region(rng):
    gt = make_tissue(random_tissue_codes(rng, (2, 5, 5)))
    report = evaluate_masks(gt, gt)
    assert {row.region for row in report.rows} == {"all"}
    assert report.metric_errors == ()


def test_evaluate_requested_region_needs_vertebrae(rng):
    gt = make_tissue(random_tissue_codes(rng, (2, 5, 5)))
    with pytest.raises(VertebraNotFoundError):
        evaluate_masks(gt, gt, regions=["l3"])


def test_evaluate_all_region_survives_vertebrae_without_l3(rng):
    # dice rows for the requested region stand on their own; the metric
    # table is just unavailable
    from bodycomp import LabelVolume

    gt = make_tissue(random_tissue_codes(rng, (2, 5, 5)))
    vert = LabelVolume(
        codes=np.zeros((2, 5, 5), dtype=np.uint8),
        label_map={0: "background", 1: "vertebrae_T12"},
        spacing_mm=(1.0, 1.0, 5.0),
    )
    report = evaluate_masks(gt, gt, None, vert, regions=["all"])
    assert {row.region for row in report.rows} == {"all"}
    assert report.metric_errors == ()
    with pytest.raises(VertebraNotFoundError):
        evaluate_masks(gt, gt, None, vert, regions=["l3"])


@pytest.mark.parametrize("level, region", [("T12", "t12_l4"), ("L3", "l3"), ("L4", "t12_l4")])
def test_evaluate_case_refuses_a_missing_level_before_reading_a_payload(tmp_path, level, region):
    ph = build_phantom(nx=24, ny=24, nz=10)
    codes = ph.vertebrae.codes_for(vertebra_label(level))
    vertebrae = replace(ph.vertebrae, codes=np.where(np.isin(ph.vertebrae.codes, codes), 0, ph.vertebrae.codes))
    heads = {}
    for name, vol in (("gt", ph.tissue), ("pred", ph.tissue), ("ct", ph.ct), ("vertebrae", vertebrae)):
        write_volume(vol, tmp_path / f"{name}.bcv")
        heads[name] = read_header(tmp_path / f"{name}.bcv")
    # no payload of the masks or the CT is left to read
    for name in ("gt", "pred", "ct"):
        (tmp_path / f"{name}.bcv").unlink()
    with pytest.raises(VertebraNotFoundError, match=vertebra_label(level)):
        evaluate_case(**heads, regions=[region])


def test_evaluate_without_ct_gives_no_density_error_or_reason():
    hu, tissue, vertebrae = _phantom_inputs(nx=32, ny=32, nz=12)
    case = evaluate_case(tissue, tissue, None, vertebrae)
    assert case.metric_errors["muscle_density_2d"] is None
    assert case.metric_errors["muscle_density_3d"] is None
    assert case.metric_errors["muscle_area_2d"] == 0.0
    assert case.blank_reasons == {}


def test_evaluate_geometry_mismatch(rng):
    gt = make_tissue(random_tissue_codes(rng, (2, 5, 5)))
    pred = make_tissue(random_tissue_codes(rng, (2, 5, 6)))
    with pytest.raises(GeometryMismatchError):
        evaluate_masks(gt, pred)


def test_evaluate_smi_error_equals_area_error():
    ph = build_phantom(nx=40, ny=40, nz=16)
    hu, tissue, vertebrae = to_hu(ph.ct), ph.tissue, ph.vertebrae
    pred_codes = np.asarray(tissue.codes).copy()
    pred_codes[ph.l3_slice, 20, 20] = 1  # one extra muscle voxel on L3
    pred = make_tissue(pred_codes, spacing=tissue.spacing_mm)
    case = evaluate_case(tissue, pred, hu, vertebrae)
    assert case.metric_errors["smi_2d"] == case.metric_errors["muscle_area_2d"]


def test_aggregate_r_squared_over_cases(rng):
    # each case perturbs ground truth and prediction differently so the
    # per-case quantities vary and R² is defined
    cases = []
    hu, tissue, vertebrae = _phantom_inputs(nx=32, ny=32, nz=12)
    for _ in range(4):
        gt_codes = np.asarray(tissue.codes).copy()
        gt_codes[(rng.random(gt_codes.shape) < 0.05) & (gt_codes == 1)] = 0
        pred_codes = np.asarray(tissue.codes).copy()
        pred_codes[(rng.random(pred_codes.shape) < 0.05) & (pred_codes == 1)] = 0
        gt = make_tissue(gt_codes, spacing=tissue.spacing_mm)
        pred = make_tissue(pred_codes, spacing=tissue.spacing_mm)
        cases.append(evaluate_case(gt, pred, hu, vertebrae))
    report = aggregate_cases(cases)
    assert report.case_count == 4
    row = report.row("skeletal_muscle", "all")
    assert row.cases == 4
    assert row.r_squared is not None and row.r_squared <= 1.0


def test_non_finite_hu_leaves_density_errors_blank(tmp_path, capsys):
    hu, tissue, vertebrae = _phantom_inputs(nx=32, ny=32, nz=12)
    values = np.array(hu.values)
    values[tissue.codes == 1] = np.inf
    hu = replace(hu, values=values)
    case = evaluate_case(tissue, tissue, hu, vertebrae)
    assert case.metric_errors["muscle_density_2d"] is None
    assert case.metric_errors["muscle_density_3d"] is None
    assert case.metric_errors["muscle_area_2d"] == 0.0
    assert sorted(case.blank_reasons) == ["muscle_density_2d", "muscle_density_3d"]
    text = aggregate_cases([case]).to_json()
    assert "NaN" not in text and "Infinity" not in text

    # through the CLI: a rescale that overflows float32 HU is reported on
    # stderr, once per blank metric, and numpy warns about nothing
    ph = build_phantom(nx=32, ny=32, nz=12)
    paths = {}
    for name, vol in (
        ("ct", replace(ph.ct, rescale_slope=1e36)),
        ("tissue", ph.tissue),
        ("vertebrae", ph.vertebrae),
    ):
        paths[name] = tmp_path / f"{name}.bcv"
        write_volume(vol, paths[name])
    argv = ["evaluate", "--gt", str(paths["tissue"]), "--pred", str(paths["tissue"]),
            "--ct", str(paths["ct"]), "--vertebrae", str(paths["vertebrae"]),
            "--out", str(tmp_path / "out")]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == 0
    assert capsys.readouterr().err.splitlines() == [
        f"evaluate: {name} error left blank: {paths['ct']}: NaN or infinite HU among the skeletal-muscle voxels"
        for name in ("muscle_density_2d", "muscle_density_3d")
    ]


def test_report_round_trips_to_json():
    hu, tissue, vertebrae = _phantom_inputs(nx=32, ny=32, nz=12)
    report = evaluate_masks(tissue, tissue, hu, vertebrae)
    doc = report.to_dict()
    assert doc["case_count"] == 1
    assert len(doc["rows"]) == 4 * 3
    assert report.to_json().startswith("{")


# ---- per-slice overlap counts vs the per-label binarization loop -----------

def _evaluate_case_oracle(gt, pred, hu, vertebrae, policy, regions):
    """Per-label × per-region ``binary()`` + ``dice()`` loop over merged copies.

    This is how ``evaluate_case`` worked before it counted each tissue's
    per-slice overlaps; regions are given by their canonical names.
    """
    region_objs = {}
    for name in regions:
        if name == "l3":
            region_objs[name] = SingleSlice(largest_label_slice(vertebrae, vertebra_label("L3")))
        elif name == "t12_l4":
            region_objs[name] = region_t12_l4(vertebrae)
        else:
            region_objs[name] = AllSlices()
    gt_merged = apply_merge_policy(gt, policy)
    pred_merged = apply_merge_policy(pred, policy)
    pairs = {}
    for label in ("skeletal_muscle", "sat", "vat", "muscular_fat"):
        g_src = gt if label == "muscular_fat" else gt_merged
        p_src = pred if label == "muscular_fat" else pred_merged
        g_bin = g_src.binary(label)
        p_bin = p_src.binary(label)
        for name, region in region_objs.items():
            sl = region_slice(region, gt.nz)
            d = dice(g_bin[sl], p_bin[sl])
            per_slice = [dice(g, p) for g, p in zip(g_bin[sl], p_bin[sl])]
            if name == "l3":
                tq = tissue_area_2d(g_src, label, region.z)
                pq = tissue_area_2d(p_src, label, region.z)
            else:
                tq = tissue_volume_3d(g_src, label, region)
                pq = tissue_volume_3d(p_src, label, region)
            pairs[(label, name)] = PairResult(
                dice=d.value,
                degenerate=d.degenerate,
                slice_dices=tuple(s.value for s in per_slice),
                degenerate_slices=sum(s.degenerate for s in per_slice),
                truth_quantity=tq,
                pred_quantity=pq,
            )
    metric_errors = {}
    if vertebrae is not None:
        metric_errors = _metric_errors_oracle(gt_merged, pred_merged, hu, vertebrae)
    l3, t12_l4 = region_objs.get("l3"), region_objs.get("t12_l4")
    return CaseEvaluation(
        subject_id=gt.subject_id or pred.subject_id,
        policy=policy,
        pairs=pairs,
        metric_errors=metric_errors,
        region_2d=l3.z if l3 is not None else None,
        region_3d=(t12_l4.z_lo, t12_l4.z_hi) if t12_l4 is not None else None,
    )


def _metric_errors_oracle(gt_merged, pred_merged, hu, vertebrae):
    errors = dict.fromkeys(METRIC_FIELDS)
    try:
        l3 = largest_label_slice(vertebrae, vertebra_label("L3"))
        r3d = region_t12_l4(vertebrae)
    except VertebraNotFoundError:
        return errors
    r2d = SingleSlice(l3)
    sep = MergePolicy.SEPARATE  # inputs are already merged

    def attempt(name, fn):
        try:
            errors[name] = fn()
        except (BodycompError, ZeroDivisionError):
            errors[name] = None

    for name, region in (("muscle_density_2d", r2d), ("muscle_density_3d", r3d)):
        if hu is not None:
            attempt(name, lambda: muscle_density_error_pct(abs(
                muscle_density(hu, pred_merged, region, sep)
                - muscle_density(hu, gt_merged, region, sep)
            )))
    for name, region in (("vat_sat_ratio_2d", r2d), ("vat_sat_ratio_3d", r3d)):
        attempt(name, lambda: metric_pct_difference(
            vat_sat_ratio(gt_merged, region, sep), vat_sat_ratio(pred_merged, region, sep)
        ))
    attempt("muscle_area_2d", lambda: metric_pct_difference(
        tissue_area_2d(gt_merged, "skeletal_muscle", l3),
        tissue_area_2d(pred_merged, "skeletal_muscle", l3),
    ))
    attempt("muscle_volume_3d", lambda: metric_pct_difference(
        tissue_volume_3d(gt_merged, "skeletal_muscle", r3d),
        tissue_volume_3d(pred_merged, "skeletal_muscle", r3d),
    ))
    errors["smi_2d"] = errors["muscle_area_2d"]
    return errors


def _random_label_map(rng, max_code):
    """Every tissue name on one or two codes, maybe a code named "bone"."""
    names = ["skeletal_muscle", "sat", "vat", "muscular_fat"]
    names += [n for n in names if rng.random() < 0.3]
    if rng.random() < 0.5:
        names.append("bone")
    codes = rng.choice(np.arange(1, max_code + 1), size=len(names), replace=False)
    label_map = {int(c): n for c, n in zip(codes, names)}
    if rng.random() < 0.5:
        label_map[0] = "background"
    return label_map


def _random_labels(rng, label_map, shape, geometry):
    codes = rng.choice([0, *label_map], size=shape).astype(np.uint8)
    return LabelVolume(codes=codes, label_map=label_map, **geometry)


@st.composite
def evaluation_inputs(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    policy = draw(st.sampled_from(list(MergePolicy)))
    # sparse codes up to 255, as a label map may name any uint8 code
    max_code = draw(st.sampled_from([9, 15, 40, 255]))
    with_vertebrae = draw(st.booleans())
    cases = []
    for _ in range(draw(st.integers(1, 3))):
        shape = tuple(int(n) for n in rng.integers(1, 7, size=3))
        geometry = {"spacing_mm": tuple(rng.uniform(0.3, 3.0, size=3))}
        if rng.random() < 0.5:
            steps = rng.uniform(0.5, 4.0, size=shape[0]) * rng.choice([-1, 1])
            geometry["z_positions_mm"] = tuple(np.cumsum(steps))
        gt = _random_labels(rng, _random_label_map(rng, max_code), shape, geometry)
        pred = _random_labels(rng, _random_label_map(rng, max_code), shape, geometry)
        # slices empty on both sides
        empty = rng.random(shape[0]) < 0.3
        gt = replace(gt, codes=np.where(empty[:, None, None], 0, gt.codes))
        pred = replace(pred, codes=np.where(empty[:, None, None], 0, pred.codes))
        hu = vertebrae = None
        regions = ["all"]
        if with_vertebrae:
            vert_codes = rng.choice(4, size=shape, p=[0.4, 0.2, 0.2, 0.2]).astype(np.uint8)
            vertebrae = LabelVolume(codes=vert_codes, label_map=VERT_MAP, **geometry)
            if all(np.any(vert_codes == c) for c in (1, 2, 3)):
                regions = ["l3", "t12_l4", "all"]
            raw = rng.integers(-300, 400, size=shape).astype(np.int16)
            unit = rng.choice(["hu", "raw", "none"], p=[0.7, 0.15, 0.15])
            if unit != "none":
                ct = VoxelVolume(values=raw, rescale_slope=float(rng.choice([1.0, 0.7])), **geometry)
                hu = to_hu(ct) if unit == "hu" else ct
        cases.append((gt, pred, hu, vertebrae, policy, regions))
    return cases


@settings(max_examples=300, deadline=None)
@given(evaluation_inputs())
def test_joint_table_matches_binarization_loop(cases):
    got = [evaluate_case(*case) for case in cases]
    want = [_evaluate_case_oracle(*case) for case in cases]
    for g, w in zip(got, want):
        assert g.pairs == w.pairs
        assert g.metric_errors == w.metric_errors
        assert (g.region_2d, g.region_3d) == (w.region_2d, w.region_3d)
    got_report, want_report = aggregate_cases(got), aggregate_cases(want)
    assert got_report.to_json() == want_report.to_json()
    assert list(map(_csv_row, got_report.rows)) == list(map(_csv_row, want_report.rows))
