"""Demographic grouping and correlation analysis over measurement batches.

Age bins are quantile-seeded and then adjusted until every bin holds at
least ``min_count`` subjects; when that many bins are infeasible the
count degrades gracefully with a warning. Standard deviations and
Pearson r (``pearson_r``, which only this report uses) are population
form (divide by n) throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import BodycompError, ConstantInputError
from .model import GROUP_BY_CHOICES, METRIC_FIELDS, BodyCompResult, SubjectRecord


@dataclass(frozen=True)
class AgeBinning:
    """Bin edges over the observed age range; bins are left-closed and the
    last bin includes its right edge."""

    edges: tuple[float, ...]
    counts: tuple[int, ...]
    warning: str | None = None

    @property
    def n_bins(self) -> int:
        return len(self.edges) - 1

    def bin_index(self, age: float) -> int:
        idx = int(np.searchsorted(self.edges[1:-1], age, side="right"))
        return idx

    def bin_label(self, index: int) -> str:
        # ordinal prefix keeps labels unique even when rounded edges
        # coincide
        lo, hi = self.edges[index], self.edges[index + 1]
        return f"age{index + 1} {lo:.1f}-{hi:.1f}"


def age_bins(ages: Sequence[float], n_bins: int = 6, min_count: int = 20) -> AgeBinning:
    """Partition ages into up to ``n_bins`` bins of at least ``min_count``.

    Edges are seeded at quantiles and nudged to the nearest feasible cut
    (never splitting tied values); when the requested bin count cannot be
    met the maximal feasible count is used and a warning recorded. Raises
    on empty input.
    """
    if n_bins < 1 or min_count < 1:
        raise ValueError("n_bins and min_count must be >= 1")
    values = np.sort(np.asarray(list(ages), dtype=float))
    n = values.size
    if n == 0:
        raise ValueError("age_bins requires at least one age")
    target = min(n_bins, max(1, n // min_count))
    warning = None
    if target < n_bins:
        warning = (
            f"only {target} bins feasible for {n} subjects with "
            f"min_count={min_count} (requested {n_bins})"
        )
    for k in range(target, 0, -1):
        cuts = _find_cuts(values, k, min_count)
        if cuts is None:
            continue
        if k < target and warning is None:
            warning = f"tied ages reduced the bin count to {k} (requested {n_bins})"
        # each inner edge lies above the lower bin's last age, even where
        # the midpoint of two ages one float apart rounds onto it
        edges = [float(values[0])]
        for c in cuts:
            lower, upper = values[c - 1], values[c]
            edges.append(float(max((lower + upper) / 2.0, np.nextafter(lower, upper))))
        edges.append(float(values[-1]))
        counts = []
        prev = 0
        for c in list(cuts) + [n]:
            counts.append(c - prev)
            prev = c
        return AgeBinning(edges=tuple(edges), counts=tuple(counts), warning=warning)
    raise AssertionError("unreachable: a single bin is always feasible")


def _find_cuts(values: np.ndarray, k: int, min_count: int):
    """Cut indices for k bins of >= min_count, or None when ties leave no cut.

    For k >= 2 the caller asks only for k <= n // min_count, so every cut
    has a feasible span. Cuts are seeded at quantile positions and clamped
    to it; a cut may only fall between two distinct values, so tied runs
    shift it.
    """
    n = values.size
    if k == 1:
        return []
    cuts = []
    prev = 0
    for i in range(1, k):
        lo = prev + min_count
        hi = n - (k - i) * min_count
        seed = int(round(i * n / k))
        c = min(max(seed, lo), hi)
        # never split a run of equal values: push right, then try left
        forward = c
        while forward <= hi and values[forward - 1] == values[forward]:
            forward += 1
        if forward <= hi:
            c = forward
        else:
            backward = min(max(seed, lo), hi)
            while backward >= lo and values[backward - 1] == values[backward]:
                backward -= 1
            if backward < lo:
                return None
            c = backward
        cuts.append(c)
        prev = c
    return cuts


def power_of_two_scaled(values: np.ndarray) -> tuple[np.ndarray, float]:
    """``values`` divided by a power of two, and that power: 1 unless the
    largest magnitude, not 0, lies outside [2^-500, 2^500), else the power
    that brings it into [1, 2), where the squares of the differences
    neither overflow nor underflow.

    Scaling by a power of two is exact, so a mean, a standard deviation or
    a correlation taken on the scaled values, each scaled back, is the one
    the values give where nothing overflows or underflows.
    """
    top = float(np.max(np.abs(values), initial=0.0))
    if top == 0 or 2.0**-500 <= top < 2.0**500:
        return values, 1.0
    k = math.frexp(top)[1] - 1
    return np.ldexp(values, -k), math.ldexp(1.0, k)


def pearson_r(x: Sequence[float], y: Sequence[float]) -> float:
    """Pearson correlation Cov(X, Y) / (sigma_X sigma_Y), population form.

    Finite values whose squares overflow or underflow are correlated at a
    scale that keeps them finite and normal (``power_of_two_scaled``).
    """
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    if xv.shape != yv.shape:
        raise ValueError(f"length mismatch: {xv.shape} vs {yv.shape}")
    if xv.size < 2:
        raise ValueError("pearson_r requires at least two observations")
    (xv, _), (yv, _) = power_of_two_scaled(xv), power_of_two_scaled(yv)
    dx = xv - xv.mean()
    dy = yv - yv.mean()
    sx = float(np.sqrt(np.mean(dx * dx)))
    sy = float(np.sqrt(np.mean(dy * dy)))
    if sx == 0 or sy == 0:
        raise ConstantInputError("a series is constant; pearson_r undefined")
    cov = float(np.mean(dx * dy))
    return cov / (sx * sy)


@dataclass(frozen=True)
class GroupStat:
    group: str
    metric: str
    count: int
    mean: float
    sd: float
    flagged: bool  # group size below the configured minimum


def group_stats(
    results: Sequence[BodyCompResult],
    records: Iterable[SubjectRecord],
    group_by: str,
    min_group_size: int = 20,
    binning: AgeBinning | None = None,
) -> list[GroupStat]:
    """Per-group mean and population SD of every metric.

    ``group_by`` is one of age_bin, sex, race. Every result's subject_id
    must resolve to a record. Groups smaller than ``min_group_size`` are
    flagged rather than dropped; metrics absent for a subject (no height,
    hence no SMI) are excluded from that metric's count.
    """
    if group_by not in GROUP_BY_CHOICES:
        raise ValueError(f"group_by must be one of {GROUP_BY_CHOICES}, got {group_by!r}")
    by_id = {r.subject_id: r for r in records}
    unresolved = [r.subject_id for r in results if r.subject_id not in by_id]
    if unresolved:
        raise BodycompError(f"subject ids without demographics: {unresolved}")

    if group_by == "age_bin" and binning is None:
        ages = [by_id[r.subject_id].age_years for r in results]
        binning = age_bins(ages)

    def group_of(result: BodyCompResult) -> str:
        record = by_id[result.subject_id]
        if group_by == "age_bin":
            return binning.bin_label(binning.bin_index(record.age_years))
        if group_by == "sex":
            return f"sex {record.sex.value}"
        return f"race {record.race}" if record.race else "race (unknown)"

    grouped: dict[str, list[BodyCompResult]] = {}
    for result in results:
        grouped.setdefault(group_of(result), []).append(result)

    rows: list[GroupStat] = []
    for group in sorted(grouped):
        members = grouped[group]
        flagged = len(members) < min_group_size
        for metric in METRIC_FIELDS:
            vals = [getattr(r, metric) for r in members if getattr(r, metric) is not None]
            if not vals:
                continue
            # sort before summing so the stats are exactly permutation
            # invariant in input order; values whose squares overflow or
            # underflow are summed at a scale that keeps them finite and normal
            arr, scale = power_of_two_scaled(np.sort(np.asarray(vals, dtype=float)))
            rows.append(
                GroupStat(
                    group=group,
                    metric=metric,
                    count=len(vals),
                    mean=float(arr.mean()) * scale,
                    sd=float(arr.std()) * scale,
                    flagged=flagged,
                )
            )
    return rows


@dataclass(frozen=True)
class CorrelationEntry:
    metric_a: str
    metric_b: str
    r: float | None  # None below 2 complete cases or when a series is constant
    n: int

    @property
    def undefined(self) -> bool:
        return self.r is None


def correlation_matrix(
    results: Sequence[BodyCompResult],
    pairs: Sequence[tuple[str, str]] | None = None,
) -> list[CorrelationEntry]:
    """Pearson r per metric pair over complete cases.

    The default pair set is every unordered pair of the seven metrics,
    which includes the 2D-vs-3D pairs of the same underlying metric.
    Pairs with fewer than 2 complete cases or a constant series are
    flagged undefined (r is None); unknown metric names raise ValueError.
    """
    if pairs is None:
        pairs = [
            (METRIC_FIELDS[i], METRIC_FIELDS[j])
            for i in range(len(METRIC_FIELDS))
            for j in range(i + 1, len(METRIC_FIELDS))
        ]
    entries = []
    for a, b in pairs:
        if a not in METRIC_FIELDS or b not in METRIC_FIELDS:
            raise ValueError(f"unknown metric pair ({a!r}, {b!r})")
        xs, ys = [], []
        for result in results:
            va, vb = getattr(result, a), getattr(result, b)
            if va is None or vb is None:
                continue
            xs.append(va)
            ys.append(vb)
        r = None
        if len(xs) >= 2:
            try:
                r = pearson_r(xs, ys)
            except ConstantInputError:
                pass
        entries.append(CorrelationEntry(metric_a=a, metric_b=b, r=r, n=len(xs)))
    return entries
