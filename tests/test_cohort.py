import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bodycomp import (
    BodycompError,
    BodyCompResult,
    CorrelationEntry,
    MergePolicy,
    Sex,
    SubjectRecord,
    age_bins,
    correlation_matrix,
    group_stats,
)


def make_result(sid, density=40.0, ratio=0.5, area=100.0, volume=900.0, smi=None):
    return BodyCompResult(
        subject_id=sid,
        policy=MergePolicy.MUSCLE,
        region_2d=5,
        region_3d=(2, 9),
        muscle_density_2d=density,
        muscle_density_3d=density - 1.0,
        vat_sat_ratio_2d=ratio,
        vat_sat_ratio_3d=ratio * 1.1,
        muscle_area_2d=area,
        muscle_volume_3d=volume,
        smi_2d=smi,
    )


def bin_counts(binning, ages):
    counts = [0] * binning.n_bins
    for a in ages:
        counts[binning.bin_index(a)] += 1
    return counts


# ---- age_bins --------------------------------------------------------------

def test_age_bins_uniform_371():
    rng = np.random.default_rng(7)
    ages = rng.uniform(18, 90, size=371)
    binning = age_bins(ages)
    assert binning.n_bins == 6
    assert binning.warning is None
    assert all(c >= 20 for c in binning.counts)
    assert bin_counts(binning, ages) == list(binning.counts)


def test_age_bins_infeasible_count_degrades():
    rng = np.random.default_rng(8)
    ages = rng.uniform(18, 90, size=119)  # 6*20=120 infeasible
    binning = age_bins(ages, n_bins=6, min_count=20)
    assert binning.n_bins == 5
    assert binning.warning is not None
    assert all(c >= 20 for c in binning.counts)


def test_age_bins_identical_ages_single_bin():
    binning = age_bins([50.0] * 200)
    assert binning.n_bins == 1
    assert binning.warning is not None
    assert binning.counts == (200,)


def test_age_bins_empty_input():
    with pytest.raises(ValueError):
        age_bins([])


def test_age_bins_partition_properties():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(1, 400))
        ages = rng.uniform(0, 100, size=n)
        binning = age_bins(ages)
        # edges ordered, cover the observed range, bins exhaustive
        edges = np.asarray(binning.edges)
        assert np.all(np.diff(edges) >= 0)
        assert edges[0] == ages.min() and edges[-1] == ages.max()
        assert sum(binning.counts) == n
        assert bin_counts(binning, ages) == list(binning.counts)
        if n >= binning.n_bins * 20:
            assert all(c >= 20 for c in binning.counts)


@settings(max_examples=500, deadline=None)
@given(
    st.lists(st.integers(18, 30), min_size=1, max_size=120),
    st.integers(1, 9),
    st.integers(1, 40),
)
# ties cost one bin of three; ties leave a cut only one age short of min_count
@example([20] * 5 + [21] * 5 + [22] * 10, 3, 5)
@example([20] * 4 + [21] * 6, 2, 5)
def test_age_bins_count_warning_and_minimum_with_ties(ages, n_bins, min_count):
    # integer ages over a narrow range tie heavily
    binning = age_bins(ages, n_bins=n_bins, min_count=min_count)
    assert sum(binning.counts) == len(ages)
    assert bin_counts(binning, ages) == list(binning.counts)
    if binning.n_bins > 1:
        assert all(c >= min_count for c in binning.counts)
    assert (binning.warning is not None) == (binning.n_bins < n_bins)


def test_age_bins_heavy_ties_never_split_values():
    ages = [30.0] * 50 + [40.0] * 50 + [50.0] * 50
    binning = age_bins(ages, n_bins=6, min_count=20)
    # ties cap the bin count at 3; every equal age lands in one bin
    assert binning.n_bins <= 3
    for a in (30.0, 40.0, 50.0):
        assert len({binning.bin_index(a)}) == 1
    assert all(c >= 20 for c in binning.counts)


# ---- group_stats --------------------------------------------------------------

def _records(n, sex=Sex.FEMALE, race="White", height=1.7, age=None):
    return [
        SubjectRecord(
            f"p{i}",
            age if age is not None else 30.0 + i,
            sex=sex,
            race=race,
            height_m=height,
        )
        for i in range(n)
    ]


def test_group_stats_constant_metric_zero_sd():
    records = _records(3, age=44.0)
    results = [make_result(r.subject_id, density=42.0) for r in records]
    rows = group_stats(results, records, "sex", min_group_size=2)
    density = [r for r in rows if r.metric == "muscle_density_2d"][0]
    assert density.count == 3
    assert density.mean == 42.0
    assert density.sd == 0.0
    assert not density.flagged


def test_group_stats_population_sd():
    records = _records(2)
    results = [
        make_result("p0", area=10.0),
        make_result("p1", area=20.0),
    ]
    rows = group_stats(results, records, "race", min_group_size=1)
    area = [r for r in rows if r.metric == "muscle_area_2d"][0]
    assert area.mean == 15.0
    assert area.sd == 5.0  # population SD, divide by n


def test_group_stats_smi_excluded_when_absent():
    records = _records(4)
    results = [make_result(f"p{i}", smi=50.0 if i < 2 else None) for i in range(4)]
    rows = group_stats(results, records, "sex", min_group_size=1)
    smi_rows = [r for r in rows if r.metric == "smi_2d"]
    assert smi_rows[0].count == 2
    area_rows = [r for r in rows if r.metric == "muscle_area_2d"]
    assert area_rows[0].count == 4


def test_group_stats_unresolved_subject():
    records = _records(1)
    with pytest.raises(BodycompError):
        group_stats([make_result("ghost")], records, "sex")


def test_group_stats_small_groups_flagged():
    records = _records(3, race="White") + [
        SubjectRecord("q1", 50.0, race="Asian", height_m=1.6)
    ]
    results = [make_result(r.subject_id) for r in records]
    rows = group_stats(results, records, "race", min_group_size=3)
    by_group = {r.group for r in rows if r.flagged}
    assert by_group == {"race Asian"}


def test_group_stats_permutation_invariant(rng):
    records = _records(10)
    results = [make_result(r.subject_id, area=float(rng.uniform(50, 200))) for r in records]
    rows_a = group_stats(results, records, "sex", min_group_size=1)
    shuffled = list(results)
    rng.shuffle(shuffled)
    rows_b = group_stats(shuffled, records, "sex", min_group_size=1)
    assert rows_a == rows_b


def test_group_stats_age_binning():
    rng = np.random.default_rng(11)
    records = [
        SubjectRecord(f"p{i}", float(rng.uniform(20, 90)), height_m=1.7)
        for i in range(240)
    ]
    results = [make_result(r.subject_id, area=float(rng.uniform(80, 220))) for r in records]
    rows = group_stats(results, records, "age_bin")
    groups = {r.group for r in rows}
    assert len(groups) == 6
    counts = {r.group: r.count for r in rows if r.metric == "muscle_area_2d"}
    assert sum(counts.values()) == 240
    assert all(c >= 20 for c in counts.values())


# ---- correlation_matrix ---------------------------------------------------------

def test_correlation_self_pair_is_one():
    results = [make_result(f"p{i}", area=float(50 + i * 3)) for i in range(10)]
    entries = correlation_matrix(results, [("muscle_area_2d", "muscle_area_2d")])
    assert entries[0].r == pytest.approx(1.0)


def test_correlation_linear_2d_3d_family():
    # 3D volume is a fixed multiple of 2D area across the cohort
    results = [
        make_result(f"p{i}", area=float(60 + 7 * i), volume=float((60 + 7 * i) * 9.5))
        for i in range(25)
    ]
    entries = correlation_matrix(results, [("muscle_area_2d", "muscle_volume_3d")])
    assert entries[0].r == pytest.approx(1.0, abs=1e-9)
    assert entries[0].n == 25


def test_correlation_independent_metrics_near_zero():
    rng = np.random.default_rng(12)
    results = [
        make_result(
            f"p{i}",
            density=float(rng.normal(40, 8)),
            ratio=float(abs(rng.normal(0.8, 0.3))),
        )
        for i in range(4000)
    ]
    entries = correlation_matrix(results, [("muscle_density_2d", "vat_sat_ratio_2d")])
    assert abs(entries[0].r) < 0.1  # wide statistical tolerance


def test_correlation_constant_series_flagged_undefined():
    results = [make_result(f"p{i}", density=40.0, area=float(i + 1)) for i in range(5)]
    entries = correlation_matrix(results, [("muscle_density_2d", "muscle_area_2d")])
    assert entries[0].undefined
    assert entries[0].r is None


def test_correlation_symmetric_in_pair_order():
    rng = np.random.default_rng(13)
    results = [
        make_result(f"p{i}", area=float(rng.uniform(50, 200)), volume=float(rng.uniform(400, 2000)))
        for i in range(30)
    ]
    ab = correlation_matrix(results, [("muscle_area_2d", "muscle_volume_3d")])[0]
    ba = correlation_matrix(results, [("muscle_volume_3d", "muscle_area_2d")])[0]
    assert ab.r == pytest.approx(ba.r, abs=1e-12)


def test_correlation_skips_incomplete_cases():
    results = [make_result(f"p{i}", smi=float(40 + i) if i % 2 else None) for i in range(10)]
    entries = correlation_matrix(results, [("smi_2d", "muscle_area_2d")])
    assert entries[0].n == 5


def test_correlation_default_pairs_cover_2d_3d():
    rng = np.random.default_rng(14)
    results = [
        make_result(
            f"p{i}",
            density=float(rng.normal(40, 5)),
            ratio=float(abs(rng.normal(1, 0.2))),
            area=float(rng.uniform(80, 200)),
            volume=float(rng.uniform(700, 2100)),
            smi=float(rng.uniform(30, 70)),
        )
        for i in range(12)
    ]
    entries = correlation_matrix(results)
    pairs = {(e.metric_a, e.metric_b) for e in entries}
    assert ("muscle_density_2d", "muscle_density_3d") in pairs
    assert ("vat_sat_ratio_2d", "vat_sat_ratio_3d") in pairs
    assert len(entries) == 21  # all unordered pairs of the 7 metrics


def test_correlation_of_exactly_two_cases_is_plus_or_minus_one():
    two = [
        make_result("p0", area=1.0, volume=5.0, density=3.0),
        make_result("p1", area=2.0, volume=7.0, density=1.0),
    ]
    pairs = [("muscle_area_2d", "muscle_volume_3d"), ("muscle_area_2d", "muscle_density_2d")]
    up, down = correlation_matrix(two, pairs)
    assert (up.r, up.n) == (pytest.approx(1.0), 2)
    assert (down.r, down.n) == (pytest.approx(-1.0), 2)


def test_correlation_requires_two_cases():
    # below two complete cases r is undefined, as for a constant series
    one = correlation_matrix([make_result("p0")], [("muscle_area_2d", "muscle_volume_3d")])
    assert one == [CorrelationEntry("muscle_area_2d", "muscle_volume_3d", None, 1)]
    no_smi = [make_result(f"p{i}", area=float(i)) for i in range(4)]
    assert correlation_matrix(no_smi, [("smi_2d", "muscle_area_2d")]) == [
        CorrelationEntry("smi_2d", "muscle_area_2d", None, 0)
    ]
    with pytest.raises(ValueError, match="unknown metric pair"):
        correlation_matrix(no_smi, [("smi_2d", "height_m")])
