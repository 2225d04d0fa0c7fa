"""Segmentation and measurement evaluation.

Scalar metrics: Dice overlap, mean relative absolute error (MRAE) and
the coefficient of determination (Pearson r is the cohort report's).
``evaluate_case``/``evaluate_masks`` compare a predicted label volume
against ground truth per label and per region (L3 slice, T12-L4 range,
all slices), and ``aggregate_cases`` rolls per-case results into an
EvalReport with both per-volume and per-slice Dice aggregations.

``evaluate_case``, which ``bodycomp evaluate`` calls on the files'
headers, checks the grids, picks the regions and makes one pass over
both masks, a piece of slices at a time (``measures._pieces``: read a
chunk at a time from files, or sliced from volumes in memory), through
the counter ``measure`` uses (``measures._count_planes``): for every
slice and every tissue it counts the voxels of that tissue in the
ground truth, in the prediction and in both. Every per-label,
per-region number is a sum over those per-slice counts (Taha & Hanbury
2015): Dice per volume and per slice, the degenerate counts, and the
ground-truth and predicted areas and volumes. Each side's codes are
selected as ``measure`` selects them, through ``measures.code_classes``:
muscle, SAT and VAT under the merge policy, muscular fat as given. The
ground-truth and predicted counts of the three policy tissues are the
two masks' policy-applied class tables, so the metric-error table reads
them through ``measures.MaskMetrics``, built as ``measure`` builds it.
Only the muscle densities read the CT, over the counted slab and in
step with the masks: the muscle selection that counts each mask also
drops the CT values under it into that mask's
``measures.MuscleHistograms``.

Muscle-density errors are normalized to the -29..+150 HU range of normal
muscle density, so 1.79 HU of error reads as 1.00%.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import (
    BodycompError,
    ConstantInputError,
    GeometryMismatchError,
    VertebraNotFoundError,
)
from .measures import (
    N_CLASSES,
    MaskMetrics,
    _codes_of,
    _count_planes,
    _pieces,
    code_classes,
    muscle_histograms,
    tissue_class,
    tissue_measure_from_counts,
)
from .model import (
    METRIC_FIELDS,
    MUSCULAR_FAT,
    TISSUE_NAMES,
    MergePolicy,
    _same_geometry,
    require_tissue_vocabulary,
)
from .regions import AllSlices, measurement_regions, region_slice

# Normal muscle density spans -29 to +150 HU; errors are reported as a
# percentage of this 179-HU width.
MUSCLE_DENSITY_RANGE_HU = (-29.0, 150.0)
_DENSITY_RANGE_WIDTH = MUSCLE_DENSITY_RANGE_HU[1] - MUSCLE_DENSITY_RANGE_HU[0]

REGION_NAMES = ("l3", "t12_l4", "all")


class DiceResult(NamedTuple):
    """Dice value plus a flag for the degenerate both-empty case."""

    value: float
    degenerate: bool


class MraeResult(NamedTuple):
    """MRAE value plus the count of excluded zero-ground-truth terms."""

    value: float
    skipped: int


def dice(a: np.ndarray, b: np.ndarray) -> DiceResult:
    """Dice overlap 2|A∩B| / (|A|+|B|) between two binary masks.

    Two empty masks agree perfectly: the result is 1.0 with the
    degenerate flag set so aggregate statistics can stay honest.
    """
    a = np.asarray(a, dtype=bool)
    b = np.asarray(b, dtype=bool)
    if a.shape != b.shape:
        raise GeometryMismatchError(f"mask shapes differ: {a.shape} vs {b.shape}")
    na = int(np.count_nonzero(a))
    nb = int(np.count_nonzero(b))
    if na + nb == 0:
        return DiceResult(1.0, True)
    inter = int(np.count_nonzero(a & b))
    return DiceResult(2.0 * inter / (na + nb), False)


def _mrae_terms(truth: Sequence[float], pred: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """MRAE's included terms, and the mask of excluded pairs.

    A pair with both values zero contributes a 0 term; a pair with zero
    ground truth but a nonzero prediction is excluded.
    """
    t = np.asarray(truth, dtype=float)
    p = np.asarray(pred, dtype=float)
    if t.shape != p.shape:
        raise ValueError(f"length mismatch: {t.shape} vs {p.shape}")
    if t.size == 0:
        raise ValueError("mrae requires at least one pair")
    excluded = (t == 0) & (p != 0)
    t, p = t[~excluded], p[~excluded]
    terms = np.zeros_like(t)
    ok = t != 0
    terms[ok] = np.abs(t[ok] - p[ok]) / np.abs(t[ok])
    return terms, excluded


def mrae(truth: Sequence[float], pred: Sequence[float], strict: bool = False) -> MraeResult:
    """Mean of |truth_i - pred_i| / |truth_i| over paired values.

    Terms where both values are zero contribute 0. Terms with zero ground
    truth but nonzero prediction are excluded and tallied in ``skipped``;
    with ``strict=True`` they raise instead. The value is NaN when every
    term was excluded.
    """
    terms, excluded = _mrae_terms(truth, pred)
    if strict and excluded.any():
        idx = int(np.flatnonzero(excluded)[0])
        raise ZeroDivisionError(f"ground truth is zero at index {idx}")
    skipped = int(np.count_nonzero(excluded))
    if terms.size == 0:
        return MraeResult(float("nan"), skipped)
    return MraeResult(float(terms.mean()), skipped)


def r_squared(obs: Sequence[float], pred: Sequence[float]) -> float:
    """Coefficient of determination 1 - SS_res / SS_tot; at most 1."""
    y = np.asarray(obs, dtype=float)
    yhat = np.asarray(pred, dtype=float)
    if y.shape != yhat.shape:
        raise ValueError(f"length mismatch: {y.shape} vs {yhat.shape}")
    if y.size < 2:
        raise ValueError("r_squared requires at least two observations")
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0:
        raise ConstantInputError("observations are constant; r_squared undefined")
    ss_res = float(np.sum((y - yhat) ** 2))
    return 1.0 - ss_res / ss_tot


def muscle_density_error_pct(err_hu: float) -> float:
    """Express a nonnegative HU error as a percent of the 179-HU range."""
    if err_hu < 0:
        raise ValueError(f"err_hu must be >= 0, got {err_hu}")
    return err_hu / _DENSITY_RANGE_WIDTH * 100.0


def metric_pct_difference(reference: float, other: float) -> float:
    """|other - reference| / |reference| * 100; reference is the gold value."""
    if reference == 0:
        raise ZeroDivisionError("reference value is zero")
    return abs(other - reference) / abs(reference) * 100.0


@dataclass(frozen=True)
class PairResult:
    """Comparison of one label in one region for a single case."""

    dice: float
    degenerate: bool
    slice_dices: tuple[float, ...]
    degenerate_slices: int
    truth_quantity: float  # cm² for l3, cm³ otherwise
    pred_quantity: float


@dataclass(frozen=True)
class CaseEvaluation:
    """Per-case evaluation: one ground-truth/prediction volume pair."""

    subject_id: str | None
    policy: MergePolicy
    pairs: dict[tuple[str, str], PairResult]  # (label, region) -> result
    metric_errors: dict[str, float | None]
    region_2d: int | None = None
    region_3d: tuple[int, int] | None = None
    # metric -> why its error was left blank, for metrics that were attempted
    blank_reasons: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class EvalRow:
    label: str
    region: str
    cases: int
    dice_mean: float
    dice_sd: float
    dice_slice_mean: float
    dice_slice_sd: float
    degenerate_cases: int
    degenerate_slices: int
    mrae: float | None
    mrae_sd: float | None
    mrae_skipped: int
    r_squared: float | None


@dataclass(frozen=True)
class MetricErrorRow:
    metric: str
    mean_pct: float
    sd_pct: float
    cases: int


@dataclass(frozen=True)
class EvalReport:
    """Aggregate Dice/MRAE/R² table plus the metric-error table."""

    case_count: int
    policy: MergePolicy
    rows: tuple[EvalRow, ...]
    metric_errors: tuple[MetricErrorRow, ...]
    region_2d: int | None = None
    region_3d: tuple[int, int] | None = None

    def row(self, label: str, region: str) -> EvalRow:
        for r in self.rows:
            if r.label == label and r.region == region:
                return r
        raise KeyError((label, region))

    def to_dict(self) -> dict:
        return {
            "case_count": self.case_count,
            "policy": self.policy.value,
            "region_2d": self.region_2d,
            "region_3d": list(self.region_3d) if self.region_3d else None,
            "rows": [vars(r) for r in self.rows],
            "metric_errors": [vars(m) for m in self.metric_errors],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)


def _normalize_regions(regions) -> tuple[str, ...]:
    if regions is None:
        return REGION_NAMES
    canon = []
    for name in regions:
        key = name.lower().replace("-", "").replace("_", "")
        if key == "l3":
            canon.append("l3")
        elif key in ("t12l4", "t12tol4"):
            canon.append("t12_l4")
        elif key in ("all", "allslices"):
            canon.append("all")
        else:
            raise ValueError(f"unknown region {name!r}; expected l3, t12l4, or all")
    return tuple(dict.fromkeys(canon))


def _pair_result(counts: np.ndarray, geometry, region) -> PairResult:
    """One label's result in ``region`` from its ``[nz, 3]`` counts: ground
    truth, prediction, both."""
    truth, pred, inter = counts[region_slice(region, geometry.nz)].T
    total = truth + pred
    slice_dices = np.ones(total.shape)
    np.divide(2.0 * inter, total, out=slice_dices, where=total > 0)
    n = int(total.sum())
    return PairResult(
        dice=2.0 * int(inter.sum()) / n if n else 1.0,
        degenerate=n == 0,
        slice_dices=tuple(slice_dices.tolist()),
        degenerate_slices=int(np.count_nonzero(total == 0)),
        truth_quantity=tissue_measure_from_counts(truth, geometry, region),
        pred_quantity=tissue_measure_from_counts(pred, geometry, region),
    )


def evaluate_case(
    gt,
    pred,
    ct=None,
    vertebrae=None,
    policy: MergePolicy = MergePolicy.MUSCLE,
    regions: Iterable[str] | None = None,
) -> CaseEvaluation:
    """Compare one predicted mask against ground truth.

    Muscle, SAT, and VAT are compared after the merge policy is applied to
    both volumes; muscular fat is always compared in its separate form.
    Without a vertebrae volume only the all-slices region is evaluated and
    the metric-error table is skipped. ``ct`` is raw or HU, as read.

    Each input is a volume in memory or the checked `.bcv` header of its
    file (``io.read_header``); ``gt``, ``pred`` and ``ct`` are all volumes
    or all headers. Of headers, each file is read a chunk of slices at a
    time and none is held whole. Only the muscle densities read the CT,
    over the counted slab, when every vertebra level is found; else no
    CT payload is read. The first fault is, in this order: an unknown
    region name; a grid that differs from ``gt``'s (``pred``,
    ``vertebrae``, ``ct``), naming a header's file; a fault of the
    vertebrae, a level that a requested region needs included; a fault of
    a mask's or the CT's payload; a tissue label that ``gt``, then
    ``pred``, lacks.
    """
    wanted = _normalize_regions(regions)
    _same_geometry(pred, gt, pred)
    if vertebrae is not None:
        _same_geometry(vertebrae, gt, vertebrae)
    if ct is not None:
        _same_geometry(ct, ct, gt)
    # the L3 slice and the T12-L4 range are picked once and serve both the
    # requested regions and the metric-error table
    found: dict[str, object] = {"all": AllSlices()}
    missing: dict[str, str] = {}
    if vertebrae is None:
        picked = None
        needed = [r for r in wanted if r != "all"]
        if regions is None:
            wanted = ("all",)
        elif needed:
            raise VertebraNotFoundError(f"regions {needed} require a vertebrae volume")
    else:
        picked = measurement_regions(vertebrae)
        found.update(picked.found)
        missing = picked.missing
    for name in wanted:
        if name in missing:
            raise VertebraNotFoundError(missing[name])
    region_objs = {name: found[name] for name in wanted}
    found_all = picked is not None and not missing
    # with every vertebra level found, the CT is read in step with the
    # masks over the counted slab, else not at all
    with_ct = found_all and ct is not None

    # each tissue's class and the codes of each side selected for it:
    # muscular fat under SEPARATE and the others under the policy, as
    # ``measure`` counts them
    selections = []
    for label in TISSUE_NAMES:
        c = tissue_class(label)
        label_policy = MergePolicy.SEPARATE if label == MUSCULAR_FAT else policy
        selections.append((c, *(_codes_of(code_classes(m, label_policy), c) for m in (gt, pred))))
    muscle = [muscle_histograms(picked), muscle_histograms(picked)] if found_all else []
    geometry = gt.geometry
    # one pass over both masks, a piece at a time: each plane's overlaps
    # are counted, and each mask's muscle voxels binned, with one selection
    table = np.zeros((geometry.nz, N_CLASSES, 3), dtype=np.int64)
    slab = picked.counted_slab() if with_ct else slice(0, 0)
    for lo, masks, ct_piece in _pieces(slab, ct if with_ct else None, [gt, pred]):
        table[lo : lo + len(masks[0])] = _count_planes(masks, selections, muscle, lo, ct_piece)
        del masks, ct_piece  # nothing of a piece stays in this frame while the next is read

    # after the pass, as after a read of both volumes: a code a label map
    # lacks is the first fault
    require_tissue_vocabulary(gt)
    require_tissue_vocabulary(pred)

    pairs: dict[tuple[str, str], PairResult] = {}
    for label in TISSUE_NAMES:
        for name, region in region_objs.items():
            pairs[(label, name)] = _pair_result(table[:, tissue_class(label)], geometry, region)

    metric_errors: dict[str, float | None] = {}
    blank_reasons: dict[str, str] = {}
    if found_all:
        truth, predicted = muscle if with_ct else (None, None)
        metric_errors, blank_reasons = _metric_errors(
            MaskMetrics(picked, table[:, :, 0], truth),
            MaskMetrics(picked, table[:, :, 1], predicted),
        )
    elif picked is not None:
        # without all three levels the metric table is unavailable; the
        # Dice rows of the requested regions stand on their own
        metric_errors = dict.fromkeys(METRIC_FIELDS)
        blank_reasons = dict.fromkeys(METRIC_FIELDS, next(iter(missing.values())))

    l3, t12_l4 = region_objs.get("l3"), region_objs.get("t12_l4")
    return CaseEvaluation(
        subject_id=gt.subject_id or pred.subject_id,
        policy=policy,
        pairs=pairs,
        metric_errors=metric_errors,
        region_2d=l3.z if l3 is not None else None,
        region_3d=(t12_l4.z_lo, t12_l4.z_hi) if t12_l4 is not None else None,
        blank_reasons=blank_reasons,
    )


def _metric_errors(truth: MaskMetrics, predicted: MaskMetrics):
    """Percentage errors of predicted vs ground-truth measurements.

    Density errors are normalized to the 179-HU range and are attempted
    only with a CT; the others are relative differences
    against the ground-truth value. SMI is measured at a height of 1 m, since the
    height cancels in its relative error. Returns the errors and, for
    each attempted metric left blank, the reason.
    """
    errors: dict[str, float | None] = dict.fromkeys(METRIC_FIELDS)
    reasons: dict[str, str] = {}
    for name in METRIC_FIELDS:
        density = name.startswith("muscle_density")
        if density and truth.muscle is None:
            continue
        try:
            t, p = truth.metric(name, 1.0), predicted.metric(name, 1.0)
            errors[name] = (
                muscle_density_error_pct(abs(p - t)) if density else metric_pct_difference(t, p)
            )
        except (BodycompError, ZeroDivisionError) as exc:
            reasons[name] = str(exc) or type(exc).__name__
    return errors, reasons


def _mean_sd(values: Sequence[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    return float(arr.mean()), float(arr.std())


def aggregate_cases(cases: Sequence[CaseEvaluation]) -> EvalReport:
    """Combine per-case evaluations into an EvalReport.

    Dice is aggregated two ways (mean over cases and mean over all
    slices); MRAE and R² run over the per-case tissue quantities. R² is
    omitted below two cases or for constant ground truth.
    """
    if not cases:
        raise ValueError("aggregate_cases requires at least one case")
    policy = cases[0].policy
    keys: list[tuple[str, str]] = list(dict.fromkeys(k for c in cases for k in c.pairs))
    rows = []
    for key in keys:
        present = [c.pairs[key] for c in cases if key in c.pairs]
        dice_mean, dice_sd = _mean_sd([p.dice for p in present])
        all_slice_dices = [v for p in present for v in p.slice_dices]
        slice_mean, slice_sd = _mean_sd(all_slice_dices)
        truth_q = [p.truth_quantity for p in present]
        pred_q = [p.pred_quantity for p in present]
        terms, excluded = _mrae_terms(truth_q, pred_q)
        r2 = None
        if len(present) >= 2:
            try:
                r2 = r_squared(truth_q, pred_q)
            except ConstantInputError:
                r2 = None
        rows.append(
            EvalRow(
                label=key[0],
                region=key[1],
                cases=len(present),
                dice_mean=dice_mean,
                dice_sd=dice_sd,
                dice_slice_mean=slice_mean,
                dice_slice_sd=slice_sd,
                degenerate_cases=sum(p.degenerate for p in present),
                degenerate_slices=sum(p.degenerate_slices for p in present),
                mrae=float(terms.mean()) if terms.size else None,
                mrae_sd=float(terms.std()) if terms.size else None,
                mrae_skipped=int(np.count_nonzero(excluded)),
                r_squared=r2,
            )
        )

    metric_rows = []
    for name in METRIC_FIELDS:
        vals = [
            c.metric_errors[name]
            for c in cases
            if c.metric_errors.get(name) is not None
        ]
        if not vals:
            continue
        mean, sd = _mean_sd(vals)
        metric_rows.append(
            MetricErrorRow(metric=name, mean_pct=mean, sd_pct=sd, cases=len(vals))
        )

    return EvalReport(
        case_count=len(cases),
        policy=policy,
        rows=tuple(rows),
        metric_errors=tuple(metric_rows),
        region_2d=cases[0].region_2d if len(cases) == 1 else None,
        region_3d=cases[0].region_3d if len(cases) == 1 else None,
    )


def evaluate_masks(
    gt,
    pred,
    ct=None,
    vertebrae=None,
    policy: MergePolicy = MergePolicy.MUSCLE,
    regions: Iterable[str] | None = None,
) -> EvalReport:
    """Evaluate one ground-truth/prediction pair and report it."""
    return aggregate_cases(
        [evaluate_case(gt, pred, ct, vertebrae, policy, regions)]
    )
