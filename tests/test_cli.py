import csv
import gc
import json
import math
import os
import re
import statistics
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import bodycomp
from bodycomp import (
    BodyCompResult,
    Geometry,
    LabelVolume,
    MergePolicy,
    SubjectRecord,
    build_phantom,
    dice,
    evaluate_case,
    evaluate_masks,
    measure_subject,
    read_header,
    read_volume,
    to_hu,
    write_volume,
)
from bodycomp import cli, regions
from bodycomp.cli import _measure_one, main
from bodycomp.io import SCAN_CHUNK_BYTES, write_slabs
from conftest import make_ct, make_tissue, make_vertebrae
from test_io import _patch_header
from test_postprocess import scipy_kept


_RESULT = {
    "subject_id": "a",
    "policy": "muscle",
    "region_2d": 5,
    "region_3d": [2, 9],
    "muscle_density_2d": 40.5,
    "muscle_density_3d": 39.0,
    "vat_sat_ratio_2d": 0.8,
    "vat_sat_ratio_3d": 0.9,
    "muscle_area_2d": 150.0,
    "muscle_volume_3d": 1350,
    "smi_2d": 51.9,
}


def write_phantom(tmp_path, sid="p1", **kw):
    ph = build_phantom(subject_id=sid, **kw)
    paths = {}
    for name, vol in (("ct", ph.ct), ("tissue", ph.tissue), ("vertebrae", ph.vertebrae)):
        path = tmp_path / f"{sid}_{name}.bcv"
        write_volume(vol, path)
        paths[name] = path
    return ph, paths


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_measure_single_triple(tmp_path, subject):
    ph, paths = write_phantom(tmp_path, sid="p1", nx=40, ny=40, nz=16)
    out = tmp_path / "out"
    code = main(
        [
            "measure",
            "--ct", str(paths["ct"]),
            "--tissue", str(paths["tissue"]),
            "--vertebrae", str(paths["vertebrae"]),
            "--out", str(out),
        ]
    )
    assert code == 0
    rows = read_csv(out / "results.csv")
    assert len(rows) == 1
    expected = measure_subject(
        to_hu(ph.ct), ph.tissue, ph.vertebrae, SubjectRecord("p1", 0.0)
    )
    row = rows[0]
    assert row["subject_id"] == "p1"
    assert int(row["region_2d"]) == expected.region_2d
    assert float(row["muscle_area_2d_cm2"]) == pytest.approx(
        expected.muscle_area_2d, rel=1e-5
    )
    assert row["smi_2d_cm2_m2"] == ""  # no cohort file, no height
    doc = json.loads((out / "p1.json").read_text())
    assert doc["muscle_volume_3d"] == expected.muscle_volume_3d


def test_measure_degenerate_t12_l4_range(tmp_path):
    _, paths = write_phantom(tmp_path, sid="p1", nx=40, ny=40, nz=16, vertebra_slices=(9, 4, 9))
    out = tmp_path / "out"
    code = main(
        [
            "measure",
            "--ct", str(paths["ct"]),
            "--tissue", str(paths["tissue"]),
            "--vertebrae", str(paths["vertebrae"]),
            "--out", str(out),
        ]
    )
    assert code == 0
    row = read_csv(out / "results.csv")[0]
    assert row["region_3d_lo"] == row["region_3d_hi"] == "9"
    assert row["region_2d"] == "4"


def test_measure_with_cohort_enables_smi(tmp_path):
    ph, paths = write_phantom(tmp_path, sid="p1", nx=32, ny=32, nz=12)
    cohort = tmp_path / "cohort.csv"
    cohort.write_text(
        "subject_id,age_years,sex,race,height_m\np1,60,Female,White,1.70\n"
    )
    out = tmp_path / "out"
    code = main(
        [
            "measure",
            "--ct", str(paths["ct"]),
            "--tissue", str(paths["tissue"]),
            "--vertebrae", str(paths["vertebrae"]),
            "--cohort", str(cohort),
            "--out", str(out),
        ]
    )
    assert code == 0
    row = read_csv(out / "results.csv")[0]
    area = float(row["muscle_area_2d_cm2"])
    assert float(row["smi_2d_cm2_m2"]) == pytest.approx(area / 1.7**2, rel=1e-4)

    # blank height in the cohort CSV: SMI is reported absent end to end
    cohort.write_text("subject_id,age_years,sex,race,height_m\np1,60,Female,White,\n")
    out2 = tmp_path / "out2"
    code = main(
        [
            "measure",
            "--ct", str(paths["ct"]),
            "--tissue", str(paths["tissue"]),
            "--vertebrae", str(paths["vertebrae"]),
            "--cohort", str(cohort),
            "--out", str(out2),
        ]
    )
    assert code == 0
    row = read_csv(out2 / "results.csv")[0]
    assert row["smi_2d_cm2_m2"] == ""
    assert json.loads((out2 / "p1.json").read_text())["smi_2d"] is None


def test_measure_batch_partial_failure(tmp_path, capsys):
    manifest_rows = []
    for i, sid in enumerate(["a1", "a2", "a3"]):
        ph, paths = write_phantom(tmp_path, sid=sid, nx=24, ny=24, nz=10)
        manifest_rows.append(
            f"{paths['ct'].name},{paths['tissue'].name},{paths['vertebrae'].name}"
        )
    # break one input: vertebrae volume without any L3
    bad = make_vertebrae(np.zeros((10, 24, 24), dtype=np.uint8))
    write_volume(bad, tmp_path / "a2_vertebrae.bcv")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("ct,tissue,vertebrae\n" + "\n".join(manifest_rows) + "\n")
    out = tmp_path / "out"
    code = main(["measure", "--manifest", str(manifest), "--out", str(out)])
    assert code == 1
    rows = read_csv(out / "results.csv")
    assert [r["subject_id"] for r in rows] == ["a1", "a3"]
    err = capsys.readouterr().err
    ct, vertebrae = tmp_path / "a2_ct.bcv", tmp_path / "a2_vertebrae.bcv"
    assert f"measure: {ct}: {vertebrae}: label 'vertebrae_L3' has no voxels in volume\n" in err
    assert "1 of 3 inputs failed" in err


@pytest.mark.parametrize("tissue_z", ["slice 4 moved", "none"])
def test_measure_names_the_slice_whose_z_position_differs(tmp_path, capsys, tissue_z):
    ph, paths = write_phantom(tmp_path, sid="p1", nx=24, ny=24, nz=10)
    z = tuple(1.5 * k for k in range(10))
    for name in ("ct", "vertebrae"):
        write_volume(replace(getattr(ph, name), z_positions_mm=z), paths[name])
    moved = (*z[:4], 6.25, *z[5:]) if tissue_z == "slice 4 moved" else None
    write_volume(replace(ph.tissue, z_positions_mm=moved), paths["tissue"])
    out = tmp_path / "out"
    code = main(["measure", "--ct", str(paths["ct"]), "--tissue", str(paths["tissue"]),
                 "--vertebrae", str(paths["vertebrae"]), "--out", str(out)])
    assert code == 1
    # the tissue mask is compared with the vertebra mask's grid, the CT's too
    why = "slice 4 at z 6.25 vs 6.0" if moved else "no z positions vs z positions"
    grid = f"dims {ph.tissue.dims} spacing {ph.tissue.spacing_mm}"
    assert capsys.readouterr().err == (
        f"measure: {paths['ct']}: {paths['tissue']}: geometry mismatch: {grid}; {why}\n"
        "measure: 1 of 1 inputs failed\n"
    )
    assert read_csv(out / "results.csv") == []


def test_a_manifest_with_a_byte_order_mark_measures_as_without(tmp_path):
    # Excel's "CSV UTF-8" starts the file with one
    for sid in ("a1", "a2"):
        write_phantom(tmp_path, sid=sid, nx=24, ny=24, nz=10)
    text = _manifest(tmp_path, ["a1", "a2"]).read_text(encoding="utf-8")
    (tmp_path / "marked.csv").write_text(text, encoding="utf-8-sig")
    for manifest in ("manifest.csv", "marked.csv"):
        argv = ["measure", "--manifest", str(tmp_path / manifest), "--out", str(tmp_path / manifest[:-4])]
        assert main(argv) == 0
    for name in ("results.csv", "a1.json", "a2.json"):
        assert (tmp_path / "marked" / name).read_bytes() == (tmp_path / "manifest" / name).read_bytes()


@pytest.mark.parametrize(
    "manifest_id, header_id",
    [
        ("../x", None),
        ("a/b", None),
        ("a\\b", None),
        ("", "../x"),
        # no file name holds these: longer than NAME_MAX, or not UTF-8
        pytest.param("x" * 300, None, id="x*300-None"),
        pytest.param("", "\ud800", id="-lone-surrogate"),
    ],
)
def test_measure_rejects_ids_outside_out(tmp_path, capsys, manifest_id, header_id):
    # the id comes from the manifest, or from the CT header when the
    # manifest leaves it blank
    rows = []
    for sid in ("good", "bad"):
        ph, paths = write_phantom(tmp_path, sid=sid, nx=24, ny=24, nz=10)
        if sid == "bad" and header_id is not None:
            write_volume(replace(ph.ct, subject_id=header_id), paths["ct"])
        row_id = manifest_id if sid == "bad" else sid
        rows.append(f"{sid}_ct.bcv,{sid}_tissue.bcv,{sid}_vertebrae.bcv,{row_id}")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("ct,tissue,vertebrae,subject_id\n" + "\n".join(rows) + "\n")
    out = tmp_path / "deep" / "out"
    code = main(["measure", "--manifest", str(manifest), "--out", str(out)])
    assert code == 1
    assert [r["subject_id"] for r in read_csv(out / "results.csv")] == ["good"]
    assert sorted(p.name for p in out.iterdir()) == ["good.json", "results.csv"]
    assert list((tmp_path / "deep").iterdir()) == [out]
    err = capsys.readouterr().err
    assert "bad_ct.bcv" in err and "not a valid file name" in err


@pytest.mark.parametrize("slope", [1e36, 1e39])
def test_measure_rejects_rescale_overflowing_float32(tmp_path, capsys, slope):
    # finite in float64, so the header loads; HU is float32, where
    # slope * raw (or the slope itself) overflows to inf
    rows = []
    for sid in ("good", "bad"):
        ph, paths = write_phantom(tmp_path, sid=sid, nx=24, ny=24, nz=10)
        if sid == "bad":
            write_volume(replace(ph.ct, rescale_slope=slope), paths["ct"])
        rows.append(f"{sid}_ct.bcv,{sid}_tissue.bcv,{sid}_vertebrae.bcv,{sid}")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("ct,tissue,vertebrae,subject_id\n" + "\n".join(rows) + "\n")
    out = tmp_path / "out"
    code = main(["measure", "--manifest", str(manifest), "--out", str(out)])
    assert code == 1
    assert [r["subject_id"] for r in read_csv(out / "results.csv")] == ["good"]
    assert sorted(p.name for p in out.iterdir()) == ["good.json", "results.csv"]
    err = capsys.readouterr().err
    assert "bad_ct.bcv" in err and "infinite HU" in err and "1 of 2 inputs failed" in err


def test_measure_policy_changes_muscle_metrics(tmp_path):
    ph, paths = write_phantom(tmp_path, sid="p1", nx=32, ny=32, nz=12)
    areas = {}
    for policy in ("muscle", "separate"):
        out = tmp_path / f"out_{policy}"
        code = main(
            [
                "measure",
                "--ct", str(paths["ct"]),
                "--tissue", str(paths["tissue"]),
                "--vertebrae", str(paths["vertebrae"]),
                "--policy", policy,
                "--out", str(out),
            ]
        )
        assert code == 0
        areas[policy] = float(read_csv(out / "results.csv")[0]["muscle_area_2d_cm2"])
    # separate excludes muscular fat from the muscle compartment
    assert areas["separate"] < areas["muscle"]


def test_measure_outputs_are_deterministic_across_jobs(tmp_path):
    rows = []
    for sid in ("b1", "b2", "b3"):
        _, paths = write_phantom(tmp_path, sid=sid, nx=24, ny=24, nz=10)
        rows.append(
            f"{paths['ct'].name},{paths['tissue'].name},{paths['vertebrae'].name}"
        )
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("ct,tissue,vertebrae\n" + "\n".join(rows) + "\n")
    outputs = []
    for run, jobs in enumerate((1, 1, 4)):  # repeat run and worker-count change
        out = tmp_path / f"out_{run}"
        assert main(["measure", "--manifest", str(manifest), "--out", str(out), "--jobs", str(jobs)]) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outputs[0] == outputs[1] == outputs[2]


def _small_manifest(tmp_path, n=2):
    sids = ["b1", "b2"][:n]
    for sid in sids:
        write_phantom(tmp_path, sid=sid, nx=24, ny=24, nz=10)
    return _manifest(tmp_path, sids)


@pytest.mark.parametrize(
    "subjects, fork, pools",
    [(1, True, []), (2, False, []), (2, True, [(2, "fork")])],
    ids=["one subject", "no fork", "two subjects"],
)
def test_measure_starts_one_worker_per_subject_at_most(tmp_path, monkeypatch, subjects, fork, pools):
    import concurrent.futures

    started = []
    executor = concurrent.futures.ProcessPoolExecutor

    def spy(max_workers, mp_context):
        started.append((max_workers, mp_context.get_start_method()))
        if not pools:
            raise AssertionError("a process pool was started")
        return executor(max_workers, mp_context=mp_context)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spy)
    if not fork:
        monkeypatch.delattr(os, "fork")
    manifest = _small_manifest(tmp_path, subjects)
    assert main(["measure", "--manifest", str(manifest), "--jobs", "4", "--out", str(tmp_path / "out")]) == 0
    assert started == pools
    assert len(read_csv(tmp_path / "out" / "results.csv")) == subjects


def test_a_worker_that_dies_fails_the_command_cleanly(tmp_path, monkeypatch, capsys):
    # the forked workers inherit the patch
    monkeypatch.setattr("bodycomp.cli._measure_one", lambda *a: os._exit(3))
    out = tmp_path / "out"
    code = main(["measure", "--manifest", str(_small_manifest(tmp_path)), "--jobs", "2", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("bodycomp: a worker process died: ") and "Traceback" not in err
    assert not (out / "results.csv").exists()


def test_evaluate_perfect_prediction(tmp_path):
    ph, paths = write_phantom(tmp_path, sid="p1", nx=32, ny=32, nz=12)
    out = tmp_path / "eval"
    code = main(
        [
            "evaluate",
            "--gt", str(paths["tissue"]),
            "--pred", str(paths["tissue"]),
            "--ct", str(paths["ct"]),
            "--vertebrae", str(paths["vertebrae"]),
            "--out", str(out),
        ]
    )
    assert code == 0
    rows = read_csv(out / "eval.csv")
    assert len(rows) == 12  # 4 labels x 3 regions
    assert all(float(r["dice_mean"]) == 1.0 for r in rows)
    doc = json.loads((out / "eval.json").read_text())
    assert all(m["mean_pct"] == 0.0 for m in doc["metric_errors"])


def test_evaluate_shifted_mask_matches_direct_dice(tmp_path):
    ph, paths = write_phantom(tmp_path, sid="p1", nx=32, ny=32, nz=12)
    shifted = np.roll(np.asarray(ph.tissue.codes), 1, axis=2)
    pred = make_tissue(shifted, spacing=ph.tissue.spacing_mm)
    pred_path = tmp_path / "pred.bcv"
    write_volume(pred, pred_path)
    out = tmp_path / "eval"
    code = main(
        [
            "evaluate",
            "--gt", str(paths["tissue"]),
            "--pred", str(pred_path),
            "--ct", str(paths["ct"]),
            "--regions", "all",
            "--out", str(out),
        ]
    )
    assert code == 0
    rows = {r["label"]: r for r in read_csv(out / "eval.csv")}
    from bodycomp import apply_merge_policy

    gm = apply_merge_policy(ph.tissue, MergePolicy.MUSCLE)
    pm = apply_merge_policy(pred, MergePolicy.MUSCLE)
    want = dice(gm.binary("sat"), pm.binary("sat")).value
    assert float(rows["sat"]["dice_mean"]) == pytest.approx(want, rel=1e-5)


def test_evaluate_l3_region_without_vertebrae_fails(tmp_path, capsys):
    ph, paths = write_phantom(tmp_path, sid="p1", nx=24, ny=24, nz=10)
    code = main(
        [
            "evaluate",
            "--gt", str(paths["tissue"]),
            "--pred", str(paths["tissue"]),
            "--ct", str(paths["ct"]),
            "--regions", "l3",
            "--out", str(tmp_path / "eval"),
        ]
    )
    assert code == 1
    assert "vertebrae" in capsys.readouterr().err


def test_select_slice_reports_tie_winner(tmp_path, capsys):
    codes = np.zeros((5, 8, 8), dtype=np.uint8)
    for k, n in enumerate([0, 5, 9, 9, 2]):
        codes[k].reshape(-1)[:n] = 2
    write_volume(make_vertebrae(codes), tmp_path / "v.bcv")
    code = main(["select-slice", "--vertebrae", str(tmp_path / "v.bcv"), "--level", "L3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "index 2" in out
    assert "vertebrae_L3" in out


def _select_slice(tmp_path, capsys, vol, level):
    """Exit code, stdout and stderr (the path written as <path>) of select-slice."""
    path = tmp_path / "v.bcv"
    write_volume(vol, path)
    code = main(["select-slice", "--vertebrae", str(path), "--level", level])
    out, err = capsys.readouterr()
    return code, out, err.replace(str(path), "<path>")


def _vertebrae_with_counts(counts, code, **kw):
    codes = np.zeros((len(counts), 8, 8), dtype=np.uint8)
    for k, n in enumerate(counts):
        codes[k].reshape(-1)[:n] = code
    return make_vertebrae(codes, **kw)


def test_select_slice_prints_the_lowest_tied_slice_from_a_scan(tmp_path, capsys, monkeypatch):
    reads = _recording_reads(monkeypatch, tmp_path)
    vol = _vertebrae_with_counts([0, 5, 9, 9, 2], code=2)
    assert _select_slice(tmp_path, capsys, vol, "L3") == (
        0, "vertebrae_L3 index 2 area_cm2 0.09\n", ""
    )
    # one scan, a chunk of planes at a time: no slice is read as a volume
    assert reads == [("v.bcv", slice(0, 0))]


def test_select_slice_area_ignores_non_uniform_z(tmp_path, capsys):
    vol = _vertebrae_with_counts(
        [3, 1, 0, 7, 7], code=3, spacing=(0.7, 0.8, 1.5), z=(0.0, 1.5, 4.0, 4.5, 9.0)
    )
    assert _select_slice(tmp_path, capsys, vol, "L4") == (
        0, "vertebrae_L4 index 3 area_cm2 0.0392\n", ""
    )


def test_select_slice_rejects_a_ct(tmp_path, capsys):
    ct = make_ct(np.zeros((3, 4, 4)))
    assert _select_slice(tmp_path, capsys, ct, "L3") == (
        1, "", "bodycomp: <path>: expected a label volume, got CT\n"
    )


def test_select_slice_of_a_missing_level_fails(tmp_path, capsys):
    vol = _vertebrae_with_counts([0, 5, 9], code=2)
    assert _select_slice(tmp_path, capsys, vol, "L4") == (
        1, "", "bodycomp: <path>: label 'vertebrae_L4' has no voxels in volume\n"
    )
    assert _select_slice(tmp_path, capsys, vol, "L5") == (
        1, "", "bodycomp: <path>: label 'vertebrae_L5' absent from volume\n"
    )


def test_postprocess_round_trip(tmp_path):
    ph, paths = write_phantom(tmp_path, sid="p1", nx=24, ny=24, nz=6)
    out_path = tmp_path / "dilated.bcv"
    code = main(
        [
            "postprocess", "sat-skin",
            "--ct", str(paths["ct"]),
            "--mask", str(paths["tissue"]),
            "--out", str(out_path),
        ]
    )
    assert code == 0
    dilated = read_volume(out_path)
    before = np.count_nonzero(np.asarray(ph.tissue.codes) == 2)
    after = np.count_nonzero(dilated.codes == 2)
    assert after > before  # body pixels but only background ones were added

    mf_path = tmp_path / "mf.bcv"
    code = main(
        [
            "postprocess", "mf-filter",
            "--ct", str(paths["ct"]),
            "--mask", str(paths["tissue"]),
            "--out", str(mf_path),
        ]
    )
    assert code == 0
    mf = read_volume(mf_path)
    assert set(mf.label_map.values()) == {"background", "muscular_fat"}


def test_cohort_command_writes_reports(tmp_path):
    rng = np.random.default_rng(21)
    results_dir = tmp_path / "results"
    results_dir.mkdir()
    lines = ["subject_id,age_years,sex,race,height_m"]
    for i in range(140):
        sid = f"s{i:03d}"
        area = float(rng.uniform(80, 220))
        doc = {
            "subject_id": sid,
            "policy": "muscle",
            "region_2d": 5,
            "region_3d": [2, 9],
            "muscle_density_2d": float(rng.normal(40, 6)),
            "muscle_density_3d": float(rng.normal(39, 6)),
            "vat_sat_ratio_2d": float(abs(rng.normal(0.8, 0.2))),
            "vat_sat_ratio_3d": float(abs(rng.normal(0.9, 0.2))),
            "muscle_area_2d": area,
            "muscle_volume_3d": area * 9.0,
            "smi_2d": area / 2.89,
        }
        (results_dir / f"{sid}.json").write_text(json.dumps(doc))
        sex = "Female" if i % 2 else "Male"
        race = "White" if i % 3 else "Black"
        lines.append(f"{sid},{30 + i % 50},{sex},{race},1.70")
    demo = tmp_path / "demo.csv"
    demo.write_text("\n".join(lines) + "\n")
    out = tmp_path / "cohort_out"
    code = main(
        [
            "cohort",
            "--results", str(results_dir),
            "--demographics", str(demo),
            "--out", str(out),
        ]
    )
    assert code == 0
    stats = read_csv(out / "group_stats.csv")
    assert {"group", "metric", "count", "mean", "sd"} == set(stats[0].keys())
    assert any(r["group"].startswith("sex ") for r in stats)
    assert any(r["group"].startswith("age") for r in stats)
    corr = read_csv(out / "correlations.csv")
    assert len(corr) == 21
    by_pair = {(r["metric_a"], r["metric_b"]): r for r in corr}
    linear = by_pair[("muscle_area_2d", "muscle_volume_3d")]
    assert float(linear["r"]) == pytest.approx(1.0, abs=1e-6)


def test_cohort_over_areas_whose_squares_overflow(tmp_path):
    # whole-slice areas near 1e301 are finite, but their squares are not
    sids = [f"b{i}" for i in range(4)]
    lines = ["subject_id,age_years,sex,race,height_m"]
    for i, sid in enumerate(sids):
        _, paths = write_phantom(tmp_path, sid=sid, nx=40 + 4 * i, ny=40 + 4 * i, nz=10)
        for path in paths.values():
            _patch_header(path, spacing_mm=[1e150, 1e150, 1.5])
        lines.append(f"{sid},{40 + i},{('Male', 'Female')[i % 2]},White,1.{60 + i}")
    demo = tmp_path / "demo.csv"
    demo.write_text("\n".join(lines) + "\n")
    env = {**os.environ, "PYTHONPATH": str(Path(bodycomp.__file__).parent.parent)}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "bodycomp.cli", *map(str, argv)], env=env,
                              capture_output=True, text=True)

    measured = run("measure", "--manifest", _manifest(tmp_path, sids), "--cohort", demo,
                   "--out", tmp_path / "results")
    assert measured.returncode == 0, measured.stderr
    proc = run("cohort", "--results", tmp_path / "results", "--demographics", demo,
               "--min-group", 1, "--out", tmp_path / "out")
    assert (proc.returncode, proc.stderr) == (0, "")
    results = read_csv(tmp_path / "results" / "results.csv")
    areas = [float(r["muscle_area_2d_cm2"]) for r in results]
    volumes = [float(r["muscle_volume_3d_cm3"]) for r in results]
    assert min(areas) > 1e300
    stats = read_csv(tmp_path / "out" / "group_stats.csv")
    for row in stats:
        assert math.isfinite(float(row["mean"])) and math.isfinite(float(row["sd"]))
    white = {r["metric"]: r for r in stats if r["group"] == "race White"}["muscle_area_2d"]
    scaled = [a / 1e300 for a in areas]
    assert float(white["mean"]) == pytest.approx(statistics.fmean(scaled) * 1e300, rel=1e-5)
    assert float(white["sd"]) == pytest.approx(statistics.pstdev(scaled) * 1e300, rel=1e-5)
    corr = {(r["metric_a"], r["metric_b"]): r["r"] for r in read_csv(tmp_path / "out" / "correlations.csv")}
    want_r = np.corrcoef(scaled, [v / 1e300 for v in volumes])[0, 1]
    assert float(corr[("muscle_area_2d", "muscle_volume_3d")]) == pytest.approx(want_r, rel=1e-5)


def test_cohort_without_heights_reports_smi_correlations_blank(tmp_path, capsys):
    results_dir = tmp_path / "results"
    results_dir.mkdir()
    lines = ["subject_id,age_years,sex,race,height_m"]
    for i in range(4):
        doc = {**_RESULT, "subject_id": f"s{i}", "muscle_area_2d": 100.0 + i,
               "muscle_volume_3d": 900.0 + 3 * i, "smi_2d": None}
        (results_dir / f"s{i}.json").write_text(json.dumps(doc))
        lines.append(f"s{i},{40 + i},Female,White,")
    demo = tmp_path / "demo.csv"
    demo.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    code = main(["cohort", "--results", str(results_dir), "--demographics", str(demo),
                 "--out", str(out)])
    assert (code, capsys.readouterr().err) == (0, "")
    corr = {(r["metric_a"], r["metric_b"]): r for r in read_csv(out / "correlations.csv")}
    assert len(corr) == 21
    smi_pairs = [pair for pair in corr if "smi_2d" in pair]
    assert len(smi_pairs) == 6
    assert all((corr[pair]["r"], corr[pair]["n"]) == ("", "0") for pair in smi_pairs)
    linear = corr[("muscle_area_2d", "muscle_volume_3d")]
    assert (float(linear["r"]), linear["n"]) == (pytest.approx(1.0), "4")


@pytest.mark.parametrize(
    "doc, reason",
    [
        ({"subject_id": "a"}, "missing keys ['policy'"),
        ([1, 2], "expected a JSON object, got list"),
        ({**_RESULT, "policy": "fat"}, "key 'policy' must be one of"),
        ({**_RESULT, "region_3d": [2]}, "key 'region_3d' must be a list of two integers"),
        ({**_RESULT, "muscle_area_2d": "10"}, "key 'muscle_area_2d' must be a finite number"),
        ({**_RESULT, "smi_2d": float("nan")}, "key 'smi_2d' must be a finite number"),
        ("[" * 100000, "maximum recursion depth"),
        ('{"subject_id": ', "Expecting value"),
    ],
)
def test_cohort_reports_malformed_result_json(tmp_path, capsys, doc, reason):
    results_dir = tmp_path / "results"
    results_dir.mkdir()
    (results_dir / "a.json").write_text(json.dumps(_RESULT))
    bad = results_dir / "b.json"
    bad.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    demo = tmp_path / "demo.csv"
    demo.write_text("subject_id,age_years,sex,race,height_m\na,60,Female,W,1.7\n")
    code = main(
        ["cohort", "--results", str(results_dir), "--demographics", str(demo),
         "--out", str(tmp_path / "out")]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"cohort: {bad}: ") and reason in err
    assert "Traceback" not in err


def test_result_json_round_trips_through_from_dict():
    result = BodyCompResult.from_dict(_RESULT)
    assert result.to_dict() == _RESULT
    assert BodyCompResult.from_dict({**_RESULT, "smi_2d": None}).smi_2d is None


def test_measure_rejects_duplicate_manifest_ids_before_reading(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr("bodycomp.cli._measure_one", lambda *a: calls.append(a))
    rows = []
    for sid in ("a1", "a2", "a3"):
        write_phantom(tmp_path, sid=sid, nx=24, ny=24, nz=10)
        row_id = "a1" if sid == "a3" else sid
        rows.append(f"{sid}_ct.bcv,{sid}_tissue.bcv,{sid}_vertebrae.bcv,{row_id}")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("ct,tissue,vertebrae,subject_id\n" + "\n".join(rows) + "\n")
    out = tmp_path / "out"
    code = main(["measure", "--manifest", str(manifest), "--out", str(out), "--jobs", "2"])
    assert code == 2
    assert calls == []
    assert "duplicate subject_id 'a1'" in capsys.readouterr().err
    assert not (out / "results.csv").exists()


def test_measure_refuses_a_short_manifest_row_before_reading(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr("bodycomp.cli.read_header", lambda *a: calls.append(a))
    write_phantom(tmp_path, sid="a1", nx=24, ny=24, nz=10)
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("ct,tissue,vertebrae\na1_ct.bcv,a1_tissue.bcv,a1_vertebrae.bcv\na.bcv\n")
    out = tmp_path / "out"
    code = main(["measure", "--manifest", str(manifest), "--out", str(out)])
    assert code == 1
    assert calls == []
    assert capsys.readouterr().err == (
        f"bodycomp: {manifest}:3: manifest row missing columns ['tissue', 'vertebrae']\n"
    )
    assert not (out / "results.csv").exists()


def test_importing_the_cli_does_not_load_scipy():
    src = Path(bodycomp.__file__).parent.parent
    code = "import sys, bodycomp.cli; sys.exit('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_postprocess_runs_without_scipy(tmp_path):
    from scipy import ndimage

    ph = build_phantom(nx=48, ny=48, nz=8, rescale_slope=0.7, subject_id="p1")
    # noise scatters muscular-fat candidates in components of every size
    noise = np.random.default_rng(3).integers(-150, 150, size=ph.ct.values.shape)
    ct = replace(ph.ct, values=(ph.ct.values + noise).astype(np.int16))
    tissue = ph.tissue
    write_volume(ct, tmp_path / "ct.bcv")
    write_volume(tissue, tmp_path / "tissue.bcv")

    # the scipy-based oracles
    hu = ct.hu_of(ct.values)
    sat = tissue.codes_for("sat")[0]
    grown = ndimage.binary_dilation(tissue.codes == sat, structure=np.ones((1, 5, 5), dtype=bool))
    sat_skin = np.where(grown & (tissue.codes == 0) & (hu > -800.0), sat, tissue.codes)
    kept = scipy_kept((tissue.codes != 0) & (hu >= -220.0) & (hu <= -50.0), 7)
    assert 0 < np.count_nonzero(kept) < np.count_nonzero((hu >= -220.0) & (hu <= -50.0))
    expected = {
        "sat-skin": replace(tissue, codes=sat_skin.astype(np.uint8)),
        "mf-filter": LabelVolume(
            codes=kept.astype(np.uint8),
            label_map={0: "background", 1: "muscular_fat"},
            spacing_mm=tissue.spacing_mm,
            z_positions_mm=tissue.z_positions_mm,
            subject_id=tissue.subject_id,
        ),
    }

    script = (
        "import sys\n"
        "sys.modules['scipy'] = None  # any import of scipy now fails\n"
        "from bodycomp.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(bodycomp.__file__).parent.parent)}
    for mode, want in expected.items():
        out = tmp_path / f"{mode}.bcv"
        argv = ["postprocess", mode, "--ct", str(tmp_path / "ct.bcv"),
                "--mask", str(tmp_path / "tissue.bcv"), "--out", str(out)]
        proc = subprocess.run([sys.executable, "-c", script, *argv], env=env, capture_output=True)
        assert proc.returncode == 0, proc.stderr
        write_volume(want, tmp_path / "want.bcv")
        assert out.read_bytes() == (tmp_path / "want.bcv").read_bytes()


def test_numbers_use_six_significant_digits(tmp_path):
    ph, paths = write_phantom(tmp_path, sid="p1", nx=32, ny=32, nz=12)
    out = tmp_path / "out"
    main(
        [
            "measure",
            "--ct", str(paths["ct"]),
            "--tissue", str(paths["tissue"]),
            "--vertebrae", str(paths["vertebrae"]),
            "--out", str(out),
        ]
    )
    row = read_csv(out / "results.csv")[0]
    for field in ("muscle_density_2d_hu", "muscle_area_2d_cm2", "vat_sat_ratio_2d"):
        digits = [c for c in row[field] if c.isdigit()]
        assert len(digits) <= 7  # 6 significant + possible leading zero


def test_invalid_invocation_exits_two(tmp_path, capsys):
    assert main(["measure", "--out", str(tmp_path)]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["measure", "--policy", "bogus", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_bad_region_and_group_by_exit_two(tmp_path, capsys):
    ph, paths = write_phantom(tmp_path, sid="p1", nx=16, ny=16, nz=8)
    code = main(
        [
            "evaluate",
            "--gt", str(paths["tissue"]),
            "--pred", str(paths["tissue"]),
            "--ct", str(paths["ct"]),
            "--regions", "l3,lumbar",
            "--out", str(tmp_path / "e"),
        ]
    )
    assert code == 2
    assert "lumbar" in capsys.readouterr().err

    code = main(
        [
            "cohort",
            "--results", str(tmp_path),
            "--demographics", str(tmp_path / "none.csv"),
            "--group-by", "zodiac",
            "--out", str(tmp_path / "c"),
        ]
    )
    assert code == 2


def test_a_refused_invocation_makes_no_out_directory(tmp_path, capsys):
    ph, paths = write_phantom(tmp_path, sid="p1", nx=16, ny=16, nz=8)
    row = f"{paths['ct']},{paths['tissue']},{paths['vertebrae']},p1\n"
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("ct,tissue,vertebrae,subject_id\n" + row + row)
    runs = [
        (2, ["measure", "--ct", str(paths["ct"])]),
        (1, ["evaluate", "--gt", str(tmp_path / "missing.bcv"), "--pred", str(paths["tissue"]),
             "--ct", str(paths["ct"])]),
        (2, ["measure", "--manifest", str(manifest)]),
        # tmp_path holds no result JSON
        (2, ["cohort", "--results", str(tmp_path), "--demographics", str(tmp_path / "none.csv")]),
    ]
    for i, (code, argv) in enumerate(runs):
        out = tmp_path / "out" / str(i)
        assert main([*argv, "--out", str(out)]) == code, argv
        assert not (tmp_path / "out").exists(), argv


@pytest.mark.parametrize("jobs", ["0", "-1", "two"])
def test_measure_rejects_a_bad_jobs_value(tmp_path, capsys, jobs):
    ph, paths = write_phantom(tmp_path, sid="p1", nx=16, ny=16, nz=8)
    argv = ["measure", "--ct", str(paths["ct"]), "--tissue", str(paths["tissue"]),
            "--vertebrae", str(paths["vertebrae"]), "--out", str(tmp_path / "out"),
            "--jobs", jobs]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument --jobs: must be an integer >= 1, got '{jobs}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_evaluate_reports_why_a_missing_level_blanks_every_metric(tmp_path, capsys):
    ph, paths = write_phantom(tmp_path, sid="p1", nx=32, ny=32, nz=12)
    codes = np.asarray(ph.vertebrae.codes).copy()
    codes[codes == 3] = 0  # no L4
    write_volume(replace(ph.vertebrae, codes=codes), paths["vertebrae"])
    out = tmp_path / "eval"
    code = main(
        [
            "evaluate",
            "--gt", str(paths["tissue"]),
            "--pred", str(paths["tissue"]),
            "--ct", str(paths["ct"]),
            "--vertebrae", str(paths["vertebrae"]),
            "--regions", "all",
            "--out", str(out),
        ]
    )
    assert code == 0
    assert json.loads((out / "eval.json").read_text())["metric_errors"] == []
    assert capsys.readouterr().err.splitlines() == [
        f"evaluate: {name} error left blank: {paths['vertebrae']}: "
        "label 'vertebrae_L4' has no voxels in volume"
        for name in bodycomp.METRIC_FIELDS
    ]


def _readme_schema(name):
    """The column list README "CSV schemas" gives for ``name``, as a header line."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### CSV schemas")[1].split("\n## ")[0]
    columns = re.search(rf"- `{re.escape(name)}`:[^`]*`([^`]*)`", section).group(1)
    return ",".join(c.strip() for c in columns.split(",")) + "\n"


def test_csv_headers_match_the_readme(tmp_path):
    headers = {
        "results.csv": "subject_id,policy,region_2d,region_3d_lo,region_3d_hi,"
        "muscle_density_2d_hu,muscle_density_3d_hu,vat_sat_ratio_2d,vat_sat_ratio_3d,"
        "muscle_area_2d_cm2,muscle_volume_3d_cm3,smi_2d_cm2_m2\n",
        "eval.csv": "label,region,cases,dice_mean,dice_sd,dice_slice_mean,dice_slice_sd,"
        "degenerate_cases,degenerate_slices,mrae,mrae_sd,mrae_skipped,r_squared\n",
        "correlations.csv": "metric_a,metric_b,r,n\n",
    }
    rows = ["ct,tissue,vertebrae,subject_id"]
    demo = ["subject_id,age_years,sex,race,height_m"]
    for sid, nz in (("p1", 12), ("p2", 14)):
        ph, paths = write_phantom(tmp_path, sid=sid, nx=24, ny=24, nz=nz)
        rows.append(f"{paths['ct'].name},{paths['tissue'].name},{paths['vertebrae'].name},{sid}")
        demo.append(f"{sid},40,Male,White,1.70")
    (tmp_path / "manifest.csv").write_text("\n".join(rows) + "\n")
    (tmp_path / "demo.csv").write_text("\n".join(demo) + "\n")
    out = tmp_path / "out"
    assert main(["measure", "--manifest", str(tmp_path / "manifest.csv"),
                 "--cohort", str(tmp_path / "demo.csv"), "--out", str(out / "m")]) == 0
    assert main(["evaluate", "--gt", str(paths["tissue"]), "--pred", str(paths["tissue"]),
                 "--ct", str(paths["ct"]), "--vertebrae", str(paths["vertebrae"]),
                 "--out", str(out / "e")]) == 0
    assert main(["cohort", "--results", str(out / "m"), "--demographics",
                 str(tmp_path / "demo.csv"), "--min-group", "1", "--out", str(out / "c")]) == 0
    for name, path in (("results.csv", out / "m"), ("eval.csv", out / "e"),
                       ("correlations.csv", out / "c")):
        first = (path / name).read_bytes().split(b"\n")[0] + b"\n"
        assert first == headers[name].encode()
        assert _readme_schema(name) == headers[name]


# ---- slab reads: measure and evaluate read only the counted slab ----------

def _manifest(tmp_path, sids, with_ids=True):
    rows = [f"{s}_ct.bcv,{s}_tissue.bcv,{s}_vertebrae.bcv" + (f",{s}" if with_ids else "") for s in sids]
    manifest = tmp_path / "manifest.csv"
    head = "ct,tissue,vertebrae" + (",subject_id" if with_ids else "")
    manifest.write_text(head + "\n" + "\n".join(rows) + "\n")
    return manifest


class _Walks:
    """The (file name, z) of each walk appended to ``path``, one JSON line
    each, read back as a list: a forked worker's walks count too."""

    def __init__(self, path):
        self.path = path
        self.clear()

    def _list(self):
        lines = self.path.read_text().splitlines()
        return [(name, slice(start, stop)) for name, start, stop in map(json.loads, lines)]

    def __iter__(self):
        return iter(self._list())

    def __eq__(self, other):
        return self._list() == other

    def __repr__(self):
        return repr(self._list())

    def clear(self):
        self.path.write_text("")


def _recording_reads(monkeypatch, tmp_path):
    """Record the (file name, z) of every payload read, in this process or
    a worker forked from it: every read is one walk over a file
    (``io._walk``), and ``z`` names the slices it reads as volumes. A
    label file's other slices are scanned as planes; a CT's are not read
    at all."""
    reads = _Walks(tmp_path / "walks.jsonl")
    walk = bodycomp.io._walk

    def recorded(fh, head, z, step):
        with open(reads.path, "a") as log:  # one write per line: appends do not interleave
            log.write(json.dumps([Path(head.path).name, z.start, z.stop]) + "\n")
        return walk(fh, head, z, step)

    monkeypatch.setattr(bodycomp.io, "_walk", recorded)
    return reads


def test_measure_reads_only_the_counted_slab(tmp_path, monkeypatch):
    ph, _ = write_phantom(tmp_path, sid="p1", nx=32, ny=32, nz=20, vertebra_slices=(14, 9, 5))
    reads = _recording_reads(monkeypatch, tmp_path)
    out = tmp_path / "out"
    assert main(["measure", "--manifest", str(_manifest(tmp_path, ["p1"])), "--out", str(out)]) == 0
    # one read of each file: the vertebra mask is scanned a chunk at a time,
    # not read as a volume, and of the CT only the counted slab is read
    slab = slice(5, 15)
    assert sorted(reads, key=str) == [
        ("p1_ct.bcv", slab), ("p1_tissue.bcv", slab), ("p1_vertebrae.bcv", slice(0, 0))
    ]
    want = measure_subject(ph.ct, ph.tissue, ph.vertebrae, SubjectRecord("p1", 0.0))
    assert json.loads((out / "p1.json").read_text()) == json.loads(json.dumps(want.to_dict()))


@pytest.mark.parametrize("ct", ["ct", "wide_ct"])
def test_each_input_file_is_walked_once(tmp_path, monkeypatch, ct):
    # wide_ct: HU 0.7 and near 22937, whose exact sum over the T12-L4
    # muscle needs more than a float64's 53 bits
    sids = ["p1", "p2"]
    for sid in sids:
        ph, paths = write_phantom(tmp_path, sid=sid, nx=320, ny=320, nz=12, rescale_slope=0.7)
        if ct == "wide_ct":
            raw = np.random.default_rng(14).integers(32700, 32768, size=ph.ct.values.shape, dtype=np.int16)
            raw[:, :, ::5] = 1
            write_volume(replace(ph.ct, values=raw, rescale_intercept=0.0), paths["ct"])
    walks = _recording_reads(monkeypatch, tmp_path)
    out = tmp_path / "out"
    assert main(["measure", "--manifest", str(_manifest(tmp_path, sids)), "--jobs", "2",
                 "--out", str(out / "m")]) == 0
    kinds = ("ct", "tissue", "vertebrae")
    assert sorted(name for name, _ in walks) == [f"{sid}_{kind}.bcv" for sid in sids for kind in kinds]
    walks.clear()
    assert main(["evaluate", "--gt", str(paths["tissue"]), "--pred", str(tmp_path / "p1_tissue.bcv"),
                 "--ct", str(paths["ct"]), "--vertebrae", str(paths["vertebrae"]),
                 "--out", str(out / "e")]) == 0
    assert sorted(name for name, _ in walks) == ["p1_tissue.bcv", "p2_ct.bcv", "p2_tissue.bcv",
                                                 "p2_vertebrae.bcv"]


@pytest.mark.parametrize("mode", ["sat-skin", "mf-filter"])
def test_postprocess_walks_each_input_once(tmp_path, monkeypatch, mode):
    ph, paths = write_phantom(tmp_path, sid="p1", nx=32, ny=32, nz=12)
    # 5 slices a chunk: each walk is read in three steps
    monkeypatch.setattr(bodycomp.io, "SCAN_CHUNK_BYTES", 5 * ph.ct.values[0].nbytes)
    reads = _recording_reads(monkeypatch, tmp_path)
    assert main(["postprocess", mode, "--ct", str(paths["ct"]), "--mask", str(paths["tissue"]),
                 "--out", str(tmp_path / "out.bcv")]) == 0
    assert sorted(reads, key=str) == [("p1_ct.bcv", slice(0, 12)), ("p1_tissue.bcv", slice(0, 12))]


def _header_commands(tmp_path):
    """``(argv, parses)`` of each command on phantom files under ``tmp_path``:
    ``parses`` is the number of times each file's header is parsed."""
    paths = {sid: write_phantom(tmp_path, sid=sid, nx=24, ny=24, nz=10)[1] for sid in ("b1", "b2")}
    b1 = {name: str(path) for name, path in paths["b1"].items()}
    write_volume(read_volume(b1["tissue"]), tmp_path / "pred.bcv")
    once = {"b1_ct.bcv": 1, "b1_tissue.bcv": 1}
    evaluate = ["evaluate", "--gt", b1["tissue"], "--pred", str(tmp_path / "pred.bcv"), "--ct", b1["ct"]]
    triple = ["--ct", b1["ct"], "--tissue", b1["tissue"], "--vertebrae", b1["vertebrae"]]
    # measure parses each CT header twice: once in the pass over every CT
    # header, and again where its subject is measured
    measured = {f"{sid}_{name}.bcv": 1 + (name == "ct") for sid in paths for name in paths[sid]}
    return {
        "select-slice": (["select-slice", "--vertebrae", b1["vertebrae"], "--level", "L3"],
                         {"b1_vertebrae.bcv": 1}),
        **{f"postprocess {mode}": (["postprocess", mode, "--ct", b1["ct"], "--mask", b1["tissue"],
                                    "--out", str(tmp_path / "out.bcv")], once)
           for mode in ("sat-skin", "mf-filter")},
        "evaluate": ([*evaluate, "--out", str(tmp_path / "e")], {**once, "pred.bcv": 1}),
        "evaluate --vertebrae": ([*evaluate, "--vertebrae", b1["vertebrae"], "--out", str(tmp_path / "e")],
                                 {**once, "pred.bcv": 1, "b1_vertebrae.bcv": 1}),
        "measure": (["measure", *triple, "--out", str(tmp_path / "m")],
                    {name: n for name, n in measured.items() if name.startswith("b1_")}),
        "measure --manifest": (["measure", "--manifest", str(_manifest(tmp_path, list(paths))),
                                "--jobs", "1", "--out", str(tmp_path / "m")], measured),
    }


@pytest.mark.parametrize("command", [
    "select-slice", "postprocess sat-skin", "postprocess mf-filter", "evaluate", "evaluate --vertebrae",
    "measure", "measure --manifest",
])
def test_each_command_parses_each_header_once(tmp_path, monkeypatch, command):
    argv, want = _header_commands(tmp_path)[command]
    parses = {}
    parse = bodycomp.io._parse_header

    def counted(fh, path):
        name = Path(path).name
        parses[name] = parses.get(name, 0) + 1
        return parse(fh, path)

    monkeypatch.setattr(bodycomp.io, "_parse_header", counted)
    assert main(argv) == 0
    assert parses == want


@pytest.mark.parametrize("mode", ["sat-skin", "mf-filter"])
def test_postprocess_refuses_a_mask_replaced_after_its_header_was_read(tmp_path, capsys, monkeypatch, mode):
    ph, paths = write_phantom(tmp_path, sid="p1", nx=24, ny=24, nz=10)
    # another valid mask of the same grid, put in place of the one whose
    # header was checked just before the payloads are read
    other = tmp_path / "other.bcv"
    write_volume(replace(ph.tissue, codes=ph.tissue.codes[:, ::-1]), other)
    read_in_step = cli.read_in_step

    def replaced_first(heads, z):
        os.replace(other, paths["tissue"])
        return read_in_step(heads, z)

    monkeypatch.setattr(cli, "read_in_step", replaced_first)
    out = tmp_path / "out.bcv"
    out.write_bytes(b"before")
    code = main(["postprocess", mode, "--ct", str(paths["ct"]), "--mask", str(paths["tissue"]),
                 "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err == f"bodycomp: {paths['tissue']}: changed since its header was read\n"
    assert out.read_bytes() == b"before"
    assert sorted(os.listdir(tmp_path)) == ["out.bcv", "p1_ct.bcv", "p1_tissue.bcv", "p1_vertebrae.bcv"]


@pytest.mark.parametrize("mask", ["gt", "pred", "tissue"])
def test_a_mask_without_the_tissue_vocabulary_is_named(tmp_path, capsys, mask):
    ph, paths = write_phantom(tmp_path, sid="p1", nx=32, ny=32, nz=12)
    # VAT relabelled as a name that is no tissue
    lacking = tmp_path / "lacking.bcv"
    write_volume(replace(ph.tissue, label_map={**ph.tissue.label_map, 3: "organ"}), lacking)
    why = f"{lacking}: mask lacks tissue labels ['vat']; expected the tissue vocabulary\n"
    if mask == "tissue":
        argv = ["measure", "--ct", str(paths["ct"]), "--tissue", str(lacking),
                "--vertebrae", str(paths["vertebrae"]), "--out", str(tmp_path / "out")]
        want = f"measure: {paths['ct']}: {why}measure: 1 of 1 inputs failed\n"
    else:
        masks = {"gt": paths["tissue"], "pred": paths["tissue"], mask: lacking}
        argv = ["evaluate", "--gt", str(masks["gt"]), "--pred", str(masks["pred"]),
                "--ct", str(paths["ct"]), "--out", str(tmp_path / "out")]
        want = f"bodycomp: {why}"
    assert main(argv) == 1
    assert capsys.readouterr().err == want


def test_evaluate_refuses_a_missing_level_before_reading_the_masks(tmp_path, capsys, monkeypatch):
    ph, paths = write_phantom(tmp_path, sid="p1", nx=32, ny=32, nz=12)
    # code 9, which the label map lacks, on the last slice of gt
    codes = ph.tissue.codes.copy()
    codes[-1, 0, 0] = 9
    data = bytearray(paths["tissue"].read_bytes())
    data[-codes.nbytes :] = codes.tobytes()
    paths["tissue"].write_bytes(bytes(data))
    vertebrae = np.where(ph.vertebrae.codes == 3, 0, ph.vertebrae.codes).astype(np.uint8)  # no L4
    write_volume(replace(ph.vertebrae, codes=vertebrae), paths["vertebrae"])
    write_volume(ph.tissue, tmp_path / "pred.bcv")
    reads = _recording_reads(monkeypatch, tmp_path)
    code = main(["evaluate", "--gt", str(paths["tissue"]), "--pred", str(tmp_path / "pred.bcv"),
                 "--ct", str(paths["ct"]), "--vertebrae", str(paths["vertebrae"]),
                 "--regions", "t12l4", "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == (
        f"bodycomp: {paths['vertebrae']}: label 'vertebrae_L4' has no voxels in volume\n"
    )
    assert reads == [("p1_vertebrae.bcv", slice(0, 0))]  # only the vertebra scan


def test_measure_fails_on_an_unmapped_tissue_code_outside_the_slab(tmp_path, capsys):
    for sid in ("good", "bad"):
        ph, paths = write_phantom(tmp_path, sid=sid, nx=32, ny=32, nz=20, vertebra_slices=(14, 9, 5))
    # code 9, which the label map lacks, on slice 18: outside the slab 5-14
    codes = ph.tissue.codes.copy()
    codes[18, 0, 0] = 9
    data = bytearray(paths["tissue"].read_bytes())
    data[-codes.nbytes :] = codes.tobytes()
    paths["tissue"].write_bytes(bytes(data))
    out = tmp_path / "out"
    code = main(["measure", "--manifest", str(_manifest(tmp_path, ["good", "bad"])), "--out", str(out)])
    assert code == 1
    assert [r["subject_id"] for r in read_csv(out / "results.csv")] == ["good"]
    err = capsys.readouterr().err
    assert "bad_ct.bcv" in err and "codes [9] present in volume but not in label_map" in err


def test_measure_fails_on_a_ct_cut_after_its_slab(tmp_path, capsys):
    for sid in ("good", "bad"):
        ph, paths = write_phantom(tmp_path, sid=sid, nx=32, ny=32, nz=20, vertebra_slices=(14, 9, 5))
    # slices 15-19 are outside the slab 5-14; cut the last three
    paths["ct"].write_bytes(paths["ct"].read_bytes()[: -3 * 32 * 32 * 2])
    out = tmp_path / "out"
    code = main(["measure", "--manifest", str(_manifest(tmp_path, ["good", "bad"])), "--out", str(out)])
    assert code == 1
    assert [r["subject_id"] for r in read_csv(out / "results.csv")] == ["good"]
    err = capsys.readouterr().err
    ct = re.escape(str(paths["ct"]))
    assert re.search(rf"^measure: {ct}: payload has \d+ bytes, dims imply \d+$", err, re.M)
    assert "1 of 2 inputs failed" in err


def test_measure_rejects_duplicate_header_ids_before_reading_payloads(tmp_path, capsys, monkeypatch):
    for sid in ("a1", "a2", "a3"):
        ph, paths = write_phantom(tmp_path, sid=sid, nx=24, ny=24, nz=10)
    write_volume(replace(ph.ct, subject_id="a1"), paths["ct"])  # a3's CT says a1
    reads = _recording_reads(monkeypatch, tmp_path)
    manifest = _manifest(tmp_path, ["a1", "a2", "a3"], with_ids=False)
    out = tmp_path / "out"
    assert main(["measure", "--manifest", str(manifest), "--out", str(out), "--jobs", "2"]) == 2
    assert reads == []
    assert "duplicate subject_id 'a1'" in capsys.readouterr().err
    assert not (out / "results.csv").exists()


def test_measure_header_that_fails_is_its_subject_failure(tmp_path, capsys):
    for sid in ("a1", "a2"):
        _, paths = write_phantom(tmp_path, sid=sid, nx=24, ny=24, nz=10)
    paths["ct"].write_bytes(paths["ct"].read_bytes()[:-5])
    out = tmp_path / "out"
    code = main(["measure", "--manifest", str(_manifest(tmp_path, ["a1", "a2"], with_ids=False)),
                 "--out", str(out)])
    assert code == 1
    assert [r["subject_id"] for r in read_csv(out / "results.csv")] == ["a1"]
    err = capsys.readouterr().err
    assert "a2_ct.bcv" in err and "payload has" in err and "1 of 2 inputs failed" in err


# 10 slices: the first at -1.5e308, the rest from 1.5e308 on, so the first step overflows
_OVERFLOWING_Z = [-1.5e308, *(1.5e308 + k * 1e295 for k in range(9))]
# 10 slices whose steps are finite but whose z extent, 2.6e308, is not
_OVERFLOWING_Z_EXTENT = [-1.5e308, -1.4e308, -0.5e308, *(k * 1e307 for k in range(5, 12))]
# grids whose every spacing, step and voxel is finite but whose whole-plane
# area (40x40 pixels of 1e306 cm²) or whole volume is not
_OVERFLOWING_GRIDS = {
    "1e154": {"spacing_mm": [1e154, 1e154, 1.5]},
    "z extent": {"z_positions_mm": _OVERFLOWING_Z_EXTENT},
}


@pytest.mark.parametrize(
    "grid",
    [
        {"spacing_mm": [float("inf"), 0.7, 1.5]},  # written as JSON Infinity
        {"spacing_mm": [1e200, 1e200, 1.5]},  # the pixel area overflows
        {"z_positions_mm": _OVERFLOWING_Z},
        *_OVERFLOWING_GRIDS.values(),
    ],
    ids=["infinity", "1e200", "z steps", *_OVERFLOWING_GRIDS],
)
def test_measure_a_non_finite_grid_fails_its_subject_alone(tmp_path, grid):
    for sid in ("g1", "b1"):
        _, paths = write_phantom(tmp_path, sid=sid, nx=40, ny=40, nz=10)
    for path in paths.values():
        _patch_header(path, **grid)
    env = {**os.environ, "PYTHONPATH": str(Path(bodycomp.__file__).parent.parent)}

    def measure(sids, out):
        argv = ["measure", "--manifest", str(_manifest(tmp_path, sids)), "--out", str(out)]
        return subprocess.run([sys.executable, "-m", "bodycomp.cli", *argv], env=env,
                              capture_output=True, text=True)

    alone = measure(["g1"], tmp_path / "alone")
    assert alone.returncode == 0, alone.stderr
    proc = measure(["g1", "b1"], tmp_path / "out")
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    # the failure line names the CT, at fault, once
    assert f"measure: {paths['ct']}: " in proc.stderr
    assert proc.stderr.count(str(paths["ct"])) == 1
    rows = read_csv(tmp_path / "out" / "results.csv")
    assert not any(re.search("nan|inf", cell, re.I) for row in rows for cell in row.values())
    assert (tmp_path / "out" / "results.csv").read_bytes() == (
        tmp_path / "alone" / "results.csv"
    ).read_bytes()
    assert (tmp_path / "out" / "g1.json").read_bytes() == (
        tmp_path / "alone" / "g1.json"
    ).read_bytes()
    assert not (tmp_path / "out" / "b1.json").exists()


@pytest.mark.parametrize("grid", list(_OVERFLOWING_GRIDS))
@pytest.mark.parametrize("command", ["evaluate", "select-slice"])
def test_a_grid_whose_whole_measures_overflow_is_refused(tmp_path, command, grid):
    _, paths = write_phantom(tmp_path, sid="g1", nx=40, ny=40, nz=10)
    for path in paths.values():
        _patch_header(path, **_OVERFLOWING_GRIDS[grid])
    out = tmp_path / "out"
    argv = ["select-slice", "--vertebrae", str(paths["vertebrae"]), "--level", "L3"]
    if command == "evaluate":
        argv = ["evaluate", "--gt", str(paths["tissue"]), "--pred", str(paths["tissue"]),
                "--ct", str(paths["ct"]), "--vertebrae", str(paths["vertebrae"]), "--out", str(out)]
    env = {**os.environ, "PYTHONPATH": str(Path(bodycomp.__file__).parent.parent)}
    proc = subprocess.run([sys.executable, "-m", "bodycomp.cli", *argv], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    named = paths["vertebrae"] if command == "select-slice" else paths["tissue"]
    assert str(named) in proc.stderr
    assert not (out / "eval.json").exists() and not (out / "eval.csv").exists()


@pytest.mark.parametrize("vertebrae", ["all levels", "no L4", "none"])
def test_evaluate_reads_only_the_ct_slab_its_densities_read(tmp_path, monkeypatch, vertebrae):
    ph, paths = write_phantom(tmp_path, sid="p1", nx=32, ny=32, nz=20, vertebra_slices=(14, 9, 5),
                              rescale_slope=0.7)
    pred = replace(ph.tissue, codes=np.roll(ph.tissue.codes, 1, axis=2))
    write_volume(pred, tmp_path / "pred.bcv")
    vert = ph.vertebrae
    if vertebrae == "no L4":
        vert = replace(vert, codes=np.where(vert.codes == 3, 0, vert.codes).astype(np.uint8))
        write_volume(vert, paths["vertebrae"])
    argv = ["evaluate", "--gt", str(paths["tissue"]), "--pred", str(tmp_path / "pred.bcv"),
            "--ct", str(paths["ct"]), "--out", str(tmp_path / "out")]
    regions = ["l3", "all"] if vertebrae == "no L4" else None
    if vertebrae != "none":
        argv += ["--vertebrae", str(paths["vertebrae"])]
    if regions:
        argv += ["--regions", ",".join(regions)]
    reads = _recording_reads(monkeypatch, tmp_path)
    assert main(argv) == 0
    ct_reads = [z for name, z in reads if name == "p1_ct.bcv"]
    assert ct_reads == ([slice(5, 15)] if vertebrae == "all levels" else [])
    want = evaluate_masks(ph.tissue, pred, ph.ct, vert if vertebrae != "none" else None,
                          regions=regions)
    assert (tmp_path / "out" / "eval.json").read_text() == want.to_json() + "\n"


@pytest.mark.parametrize(
    "fault",
    [
        "gt missing", "gt is a CT",
        "pred missing", "pred is a CT", "pred geometry",
        "vertebrae missing", "vertebrae is a CT", "vertebrae geometry",
        "ct missing", "ct is labels", "ct geometry",
    ],
)
def test_evaluate_checks_every_header_before_any_payload(tmp_path, capsys, monkeypatch, fault):
    ph, paths = write_phantom(tmp_path, sid="p1", nx=24, ny=24, nz=10)
    other, other_paths = write_phantom(tmp_path, sid="q1", nx=24, ny=24, nz=12)
    inputs = {"gt": paths["tissue"], "pred": paths["tissue"],
              "vertebrae": paths["vertebrae"], "ct": paths["ct"]}
    name, problem = fault.split(" ", 1)

    def grid(vol):
        return f"dims {vol.dims} spacing {vol.spacing_mm}"

    if problem == "missing":
        inputs[name] = tmp_path / "missing.bcv"
        want = f"[Errno 2] No such file or directory: '{inputs[name]}'"
    elif problem == "is a CT":
        inputs[name] = paths["ct"]
        want = f"{paths['ct']}: expected a label volume, got CT"
    elif problem == "is labels":
        inputs[name] = paths["tissue"]
        want = f"{paths['tissue']}: expected a CT volume, got labels"
    else:
        inputs[name] = other_paths["tissue" if name == "pred" else name]
        # the CT's own geometry comes first, the others' after gt's
        first, second = (other.ct, ph.tissue) if name == "ct" else (ph.tissue, other.tissue)
        want = f"{inputs[name]}: geometry mismatch: {grid(first)} vs {grid(second)}"
    argv = ["evaluate", "--out", str(tmp_path / "out")]
    for option, path in inputs.items():
        argv += [f"--{option}", str(path)]
    reads = _recording_reads(monkeypatch, tmp_path)  # the vertebra scan included
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"bodycomp: {want}\n")
    assert reads == []


_MiB = 1 << 20


@pytest.fixture(scope="module")
def ct_sized(tmp_path_factory):
    """512x512x245 inputs.

    ``ct.bcv`` is read at slope 0.7 and intercept -1024. ``wide_ct.bcv``
    holds raw values near 32767 under intercept 0, and 1 in every fifth
    column: HU 0.7 and near 22937, whose exact sum over more than a few
    thousand voxels needs more than a float64's 53 bits. ``v40.bcv`` and
    ``v240.bcv`` put the counted slab on slices 5-44 and 5-244.
    """
    tmp, nz = tmp_path_factory.mktemp("ct_sized"), 245
    ph = build_phantom(nx=512, ny=512, nz=3, spacing_mm=(0.7, 0.7, 1.5), rescale_slope=0.7)
    rng = np.random.default_rng(13)
    raw = np.tile(ph.ct.values[:1], (nz, 1, 1))
    raw += rng.integers(-17, 18, size=raw.shape, dtype=np.int16)
    write_volume(replace(ph.ct, values=raw), tmp / "ct.bcv")  # freezes raw
    raw = rng.integers(30000, 32768, size=raw.shape, dtype=np.int16)
    raw[:, :, ::5] = 1
    write_volume(replace(ph.ct, values=raw, rescale_intercept=0.0), tmp / "wide_ct.bcv")
    del raw
    codes = np.broadcast_to(ph.tissue.codes[:1], (nz, 512, 512))
    write_volume(replace(ph.tissue, codes=codes), tmp / "tissue.bcv")
    write_volume(replace(ph.tissue, codes=np.roll(codes, 3, axis=2)), tmp / "pred.bcv")
    for slab in (40, 240):
        vert = np.zeros((nz, 512, 512), dtype=np.uint8)
        for code, z in ((1, 5), (2, 5 + slab // 2), (3, 4 + slab)):
            vert[z, 250:260, 250:260] = code
        write_volume(replace(ph.vertebrae, codes=vert), tmp / f"v{slab}.bcv")
    return tmp


def _traced_peak(fn, *args):
    """``fn(*args)`` and the peak of the memory traced while it ran."""
    gc.collect()
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def _ct_sized_run(files, command, slab, ct="ct.bcv"):
    """Run ``command`` (measure or evaluate, or measure_subject or evaluate_case
    on the headers) on the ``ct_sized`` files; the result and the traced peak."""
    paths = {name: str(files / f"{name}.bcv") for name in ("tissue", "pred")}
    paths.update(ct=str(files / ct), vertebrae=str(files / f"v{slab}.bcv"))
    if command == "measure":
        entry = {"ct": paths["ct"], "tissue": paths["tissue"], "vertebrae": paths["vertebrae"],
                 "subject_id": "p1"}
        return _traced_peak(_measure_one, entry, "p1", MergePolicy.MUSCLE, None)
    if command == "evaluate":
        args = cli.build_parser().parse_args(
            ["evaluate", "--gt", paths["tissue"], "--pred", paths["pred"], "--ct", paths["ct"],
             "--vertebrae", paths["vertebrae"], "--out", str(files / "out")])
        return _traced_peak(cli.cmd_evaluate, args)
    heads = {name: read_header(path) for name, path in paths.items()}
    if command == "measure_subject":
        return _traced_peak(measure_subject, heads["ct"], heads["tissue"], heads["vertebrae"],
                            SubjectRecord("p1", 0.0))
    return _traced_peak(evaluate_case, heads["tissue"], heads["pred"], heads["ct"], heads["vertebrae"])


@pytest.mark.parametrize(
    "command, ct",
    [
        pytest.param("measure", "ct.bcv", id="measure"),
        pytest.param("evaluate", "ct.bcv", id="evaluate"),
        pytest.param("measure", "wide_ct.bcv", id="measure-wide_ct"),
        pytest.param("evaluate", "wide_ct.bcv", id="evaluate-wide_ct"),
        # the library on the files' headers
        pytest.param("measure_subject", "ct.bcv", id="measure_subject"),
        pytest.param("evaluate_case", "ct.bcv", id="evaluate_case"),
    ],
)
def test_peak_memory_does_not_grow_with_the_counted_slab(ct_sized, command, ct):
    peaks = {}
    for slab in (40, 240):
        result, peaks[slab] = _ct_sized_run(ct_sized, command, slab, ct)
        assert result == 0 if command == "evaluate" else result.region_3d == (5, 4 + slab)
    # a slab six times as deep, and the same peak: a few chunks of slices
    assert peaks[240] - peaks[40] <= 2 * _MiB
    assert peaks[240] <= 8 * SCAN_CHUNK_BYTES


@pytest.fixture(scope="module")
def vertebra_files(tmp_path_factory):
    """512x512 vertebra label files of 60 and 360 slices, written a slab at
    a time; each slice marks a 10x12 square with T12, L3 or L4."""
    folder = tmp_path_factory.mktemp("vertebra_files")
    label_map = {0: "background", 1: "vertebrae_T12", 2: "vertebrae_L3", 3: "vertebrae_L4"}
    for nz in (60, 360):
        geometry = Geometry((512, 512, nz), (0.7, 0.7, 1.5))

        def slabs():
            for lo in range(0, nz, 12):
                codes = np.zeros((12, 512, 512), dtype=np.uint8)
                codes[:, 250:260, 250:262] = (np.arange(lo, lo + 12) % 3 + 1)[:, None, None]
                yield LabelVolume(codes, label_map, geometry.spacing_mm)

        write_slabs(slabs(), geometry, folder / f"v{nz}.bcv")
    return folder


@pytest.mark.parametrize("nz", [60, 360])
def test_the_vertebra_scan_holds_a_few_chunks_and_the_count_table(vertebra_files, nz):
    head = cli._read_header(str(vertebra_files / f"v{nz}.bcv"), ct=False)
    counts, peak = _traced_peak(regions._read_counts, head)
    assert head.geometry.nz == nz
    assert counts.shape == (nz, 256) and (counts[:, 1:4].sum(axis=1) == 120).all()
    # a chunk of planes, its selections and its counts, then the table of
    # every slice: six times the slices, and the same few chunks
    assert peak <= 3 * SCAN_CHUNK_BYTES + counts.nbytes


def test_measure_one_peak_memory_is_the_vertebrae_and_the_slabs(tmp_path):
    # the slab 20-43 is under half of the 64 slices
    ph, paths = write_phantom(tmp_path, sid="p1", nx=256, ny=256, nz=64, spacing_mm=(0.7, 0.7, 1.5),
                              rescale_slope=0.7, vertebra_slices=(43, 31, 20))
    entry = {**{k: str(v) for k, v in paths.items()}, "subject_id": "p1"}
    slab_voxels = (43 - 20 + 1) * 256 * 256
    # less than the slab payloads: they are read a chunk at a time, and
    # no gathered muscle voxels come on top
    budget = ph.vertebrae.codes.nbytes + 0.75 * slab_voxels * (2 + 1)
    del ph
    gc.collect()
    tracemalloc.start()
    try:
        result = _measure_one(entry, "p1", MergePolicy.MUSCLE, None)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.region_3d == (20, 43)
    assert peak <= budget


def test_evaluate_without_vertebrae_refuses_a_ct_header_without_its_rescale(tmp_path, capsys):
    # no CT payload is read without --vertebrae: the header alone is refused
    _, paths = write_phantom(tmp_path, sid="p1", nx=32, ny=32, nz=12)
    _patch_header(paths["ct"], drop=["rescale_slope"])
    code = main(
        ["evaluate", "--gt", str(paths["tissue"]), "--pred", str(paths["tissue"]),
         "--ct", str(paths["ct"]), "--out", str(tmp_path / "out")]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"bodycomp: {paths['ct']}: header missing required key 'rescale_slope'\n"
    assert not (tmp_path / "out" / "eval.json").exists()


def test_select_slice_names_the_file_a_header_key_is_missing_from(tmp_path, capsys):
    _, paths = write_phantom(tmp_path, sid="p1", nx=32, ny=32, nz=12)
    _patch_header(paths["vertebrae"], drop=["dims"])
    assert main(["select-slice", "--vertebrae", str(paths["vertebrae"]), "--level", "L3"]) == 1
    err = capsys.readouterr().err
    assert err == f"bodycomp: {paths['vertebrae']}: header missing required key 'dims'\n"


@pytest.mark.parametrize("height", ["1e-200", "1e-160"])
def test_a_height_whose_smi_is_not_finite_fails_its_subject_alone(tmp_path, capsys, height):
    manifest = ["ct,tissue,vertebrae,subject_id"]
    for sid in ("p1", "p2"):
        _, paths = write_phantom(tmp_path, sid=sid, nx=32, ny=32, nz=12)
        manifest.append(f"{paths['ct'].name},{paths['tissue'].name},{paths['vertebrae'].name},{sid}")
    (tmp_path / "manifest.csv").write_text("\n".join(manifest) + "\n")
    cohort = tmp_path / "cohort.csv"
    cohort.write_text(
        f"subject_id,age_years,sex,race,height_m\np1,60,Female,W,{height}\np2,50,Male,W,1.7\n"
    )
    out = tmp_path / "out"
    code = main(
        ["measure", "--manifest", str(tmp_path / "manifest.csv"), "--cohort", str(cohort),
         "--out", str(out)]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert f"height_m {float(height)} gives no finite SMI" in err
    assert err.endswith("measure: 1 of 2 inputs failed\n")
    assert [row["subject_id"] for row in read_csv(out / "results.csv")] == ["p2"]


@pytest.mark.parametrize("age", ["nan", "inf"])
def test_cohort_refuses_a_non_finite_age(tmp_path, capsys, age):
    results_dir = tmp_path / "results"
    results_dir.mkdir()
    (results_dir / "a.json").write_text(json.dumps(_RESULT))
    demo = tmp_path / "demo.csv"
    demo.write_text(f"subject_id,age_years,sex,race,height_m\na,{age},Female,W,1.7\n")
    code = main(
        ["cohort", "--results", str(results_dir), "--demographics", str(demo),
         "--group-by", "age_bin", "--min-group", "1", "--out", str(tmp_path / "out")]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"bodycomp: {demo}:2: age_years must be finite")
    assert not (tmp_path / "out" / "group_stats.csv").exists()


# ---- one run's outputs: each file replaced whole ----------------------------

def _two_runs(tmp_path, command):
    """The argv of two runs of ``command`` into one ``--out`` that write
    different bytes to the file that the run writes last, and its name."""
    ph, paths = write_phantom(tmp_path, sid="p1", nx=24, ny=24, nz=10)
    out = str(tmp_path / "out")
    if command == "measure":
        argv = ["measure", "--ct", str(paths["ct"]), "--tissue", str(paths["tissue"]),
                "--vertebrae", str(paths["vertebrae"]), "--out", out]
        return [argv + ["--policy", "muscle"], argv + ["--policy", "sat"]], "results.csv"
    if command == "evaluate":
        pred = tmp_path / "pred.bcv"
        write_volume(replace(ph.tissue, codes=np.roll(ph.tissue.codes, 1, axis=2)), pred)
        argv = ["evaluate", "--gt", str(paths["tissue"]), "--pred", str(pred), "--ct", str(paths["ct"]),
                "--vertebrae", str(paths["vertebrae"]), "--out", out]
        return [argv + ["--policy", "muscle"], argv + ["--policy", "separate"]], "eval.csv"
    demo = tmp_path / "demo.csv"
    rows = "".join(f"s{i},{40 + i},Male,W,1.7\n" for i in range(4))
    demo.write_text("subject_id,age_years,sex,race,height_m\n" + rows)
    runs = []
    for subjects in (3, 4):
        results = tmp_path / f"results{subjects}"
        results.mkdir()
        for i in range(subjects):
            doc = {**_RESULT, "subject_id": f"s{i}", "muscle_area_2d": 100.0 + i * i,
                   "muscle_volume_3d": 900.0 + i}
            (results / f"s{i}.json").write_text(json.dumps(doc))
        runs.append(["cohort", "--results", str(results), "--demographics", str(demo), "--out", out])
    return runs, "correlations.csv"


@pytest.mark.parametrize("command", ["measure", "evaluate", "cohort"])
def test_a_failed_replace_leaves_the_last_file_of_the_run_before(tmp_path, capsys, monkeypatch, command):
    (first, second), last = _two_runs(tmp_path, command)
    out = tmp_path / "out"
    assert main(first) == 0
    before = (out / last).read_bytes()
    replace_file = os.replace

    def failing(src, dst):
        if os.path.basename(dst) == last:
            raise OSError(5, "Input/output error")
        return replace_file(src, dst)

    monkeypatch.setattr(os, "replace", failing)
    capsys.readouterr()
    assert main(second) == 1
    assert capsys.readouterr().err == f"bodycomp: [Errno 5] Input/output error: '{out / last}'\n"
    assert (out / last).read_bytes() == before
    assert list(out.glob(".*.tmp")) == []
    # the run that failed would have changed the file
    monkeypatch.setattr(os, "replace", replace_file)
    assert main(second) == 0
    assert (out / last).read_bytes() != before


def test_an_output_is_replaced_with_a_new_files_mode_and_not_written_through_a_symlink(tmp_path):
    (first, _), last = _two_runs(tmp_path, "measure")
    out = tmp_path / "out"
    out.mkdir()
    elsewhere = tmp_path / "elsewhere.csv"
    elsewhere.write_text("not an output\n")
    elsewhere.chmod(0o600)
    (out / last).symlink_to(elsewhere)
    old = os.umask(0o027)
    try:
        assert main(first) == 0
    finally:
        os.umask(old)
    assert elsewhere.read_text() == "not an output\n"
    assert not (out / last).is_symlink()
    assert sorted(p.name for p in out.iterdir()) == ["p1.json", "results.csv"]
    assert all(p.stat().st_mode & 0o777 == 0o640 for p in out.iterdir())


def test_no_command_opens_a_file_to_write_in_place(tmp_path, monkeypatch):
    import builtins
    import io

    ph, paths = write_phantom(tmp_path, sid="p1", nx=24, ny=24, nz=10)
    demo = tmp_path / "demo.csv"
    demo.write_text("subject_id,age_years,sex,race,height_m\np1,60,Female,W,1.7\n")
    inputs = ["--ct", str(paths["ct"]), "--vertebrae", str(paths["vertebrae"])]
    runs = [
        ["measure", "--tissue", str(paths["tissue"]), *inputs, "--out", str(tmp_path / "m")],
        ["evaluate", "--gt", str(paths["tissue"]), "--pred", str(paths["tissue"]), *inputs,
         "--out", str(tmp_path / "e")],
        ["postprocess", "sat-skin", "--ct", str(paths["ct"]), "--mask", str(paths["tissue"]),
         "--out", str(tmp_path / "p.bcv")],
        ["cohort", "--results", str(tmp_path / "m"), "--demographics", str(demo), "--min-group", "1",
         "--out", str(tmp_path / "c")],
    ]
    opened = builtins.open

    def guarded(file, mode="r", *args, **kwargs):
        if set(mode) & set("wa+"):
            raise PermissionError(f"opened to write in place: {file} ({mode})")
        return opened(file, mode, *args, **kwargs)

    # pathlib opens through io.open
    monkeypatch.setattr(builtins, "open", guarded)
    monkeypatch.setattr(io, "open", guarded)
    for argv in runs:
        assert main(argv) == 0, argv
    monkeypatch.undo()
    assert sorted(p.name for p in (tmp_path / "m").iterdir()) == ["p1.json", "results.csv"]
    assert sorted(p.name for p in (tmp_path / "e").iterdir()) == ["eval.csv", "eval.json"]
    assert sorted(p.name for p in (tmp_path / "c").iterdir()) == ["correlations.csv", "group_stats.csv"]


@pytest.mark.parametrize("clash", ["copy", "policies"])
def test_cohort_refuses_one_subject_twice_or_two_policies(tmp_path, capsys, clash):
    results = tmp_path / "results"
    results.mkdir()
    (results / "a.json").write_text(json.dumps(_RESULT))
    if clash == "copy":
        (results / "a_copy.json").write_text(json.dumps(_RESULT))
        want = f"{results / 'a.json'} and {results / 'a_copy.json'}: both hold subject_id 'a'"
    else:
        (results / "b.json").write_text(json.dumps({**_RESULT, "subject_id": "b", "policy": "sat"}))
        want = f"{results / 'a.json'} and {results / 'b.json'}: results under two policies, 'muscle' and 'sat'"
    demo = tmp_path / "demo.csv"
    demo.write_text("subject_id,age_years,sex,race,height_m\na,60,Male,W,1.7\nb,50,Male,W,1.7\n")
    code = main(["cohort", "--results", str(results), "--demographics", str(demo), "--min-group", "1",
                 "--out", str(tmp_path / "out")])
    assert (code, capsys.readouterr().err) == (1, f"cohort: {want}\n")
    assert not (tmp_path / "out").exists()


def _measure_manifest(tmp_path, sids, out):
    rows = ["ct,tissue,vertebrae,subject_id"]
    rows += [f"{sid}_ct.bcv,{sid}_tissue.bcv,{sid}_vertebrae.bcv,{sid}" for sid in sids]
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("\n".join(rows) + "\n")
    assert main(["measure", "--manifest", str(manifest), "--out", str(out)]) == 0


def test_cohort_pools_only_the_subjects_of_the_last_run(tmp_path):
    for sid in ("a", "b"):
        write_phantom(tmp_path, sid=sid, nx=32, ny=32, nz=12)
    demo = tmp_path / "demo.csv"
    demo.write_text("subject_id,age_years,sex,race,height_m\na,60,Male,W,1.7\nb,50,Female,W,1.6\n")
    out = tmp_path / "out"
    _measure_manifest(tmp_path, ["a", "b"], out)
    _measure_manifest(tmp_path, ["a"], out)
    # b.json of the first run is still there, but results.csv lists only a
    assert sorted(p.name for p in out.iterdir()) == ["a.json", "b.json", "results.csv"]
    assert main(["cohort", "--results", str(out), "--demographics", str(demo), "--group-by", "sex",
                 "--min-group", "1", "--out", str(tmp_path / "c")]) == 0
    groups = {row["group"] for row in read_csv(tmp_path / "c" / "group_stats.csv")}
    assert groups == {"sex Male"}


@pytest.mark.parametrize("listed", ["b", "../a"])
def test_cohort_refuses_a_listed_subject_without_its_result(tmp_path, capsys, listed):
    results = tmp_path / "results"
    results.mkdir()
    (results / "a.json").write_text(json.dumps(_RESULT))
    (tmp_path / "a.json").write_text(json.dumps(_RESULT))
    index = results / "results.csv"
    index.write_text(f"subject_id\na\n{listed}\n")
    demo = tmp_path / "demo.csv"
    demo.write_text("subject_id,age_years,sex,race,height_m\na,60,Male,W,1.7\nb,50,Male,W,1.7\n")
    code = main(["cohort", "--results", str(results), "--demographics", str(demo), "--min-group", "1",
                 "--out", str(tmp_path / "out")])
    if listed == "b":
        want = f"cohort: {results / 'b.json'}: listed in {index}, but no such file\n"
    else:  # an id that names a file outside the directory
        want = f"bodycomp: {index}: subject_id '../a' is not a valid file name\n"
    assert (code, capsys.readouterr().err) == (1, want)
    assert not (tmp_path / "out").exists()


# ---- evaluate and evaluate_case: one first fault ----------------------------

@pytest.mark.parametrize("fault", ["no vertebrae", "unknown region"])
def test_evaluate_and_evaluate_case_report_one_first_fault(tmp_path, capsys, fault):
    from bodycomp import evaluate_case

    ph, paths = write_phantom(tmp_path, sid="p1", nx=24, ny=24, nz=10)
    # a second fault beside the first: a CT, or a prediction, of another spacing
    other = tmp_path / "other.bcv"
    if fault == "unknown region":
        regions, vertebrae = ["l3", "l5"], ph.vertebrae
        write_volume(replace(ph.tissue, spacing_mm=(1.0, 1.0, 9.0)), other)
        args = {"gt": paths["tissue"], "pred": other, "ct": paths["ct"], "vertebrae": paths["vertebrae"]}
    else:
        regions, vertebrae = ["l3"], None
        write_volume(replace(ph.ct, spacing_mm=(1.0, 1.0, 9.0)), other)
        args = {"gt": paths["tissue"], "pred": paths["tissue"], "ct": other}
    argv = ["evaluate", "--regions", ",".join(regions), "--out", str(tmp_path / "out")]
    for option, path in args.items():
        argv += [f"--{option}", str(path)]
    parsed = cli.build_parser().parse_args(argv)
    volumes = {name: read_volume(path) for name, path in args.items()}
    with pytest.raises(Exception) as direct:
        evaluate_case(volumes["gt"], volumes["pred"], volumes["ct"], vertebrae, regions=regions)
    if fault == "unknown region":
        # the CLI refuses the invocation, with the library's message
        assert parsed.func(parsed) == 2
        assert capsys.readouterr().err == f"evaluate: {direct.value}\n"
        assert direct.type is ValueError
    else:
        with pytest.raises(Exception) as command:
            parsed.func(parsed)
        assert command.type is direct.type is bodycomp.GeometryMismatchError


# ---- measure and measure_subject: one first fault ---------------------------

@pytest.mark.parametrize("fault", ["tissue spacing", "ct spacing", "vertebrae spacing",
                                   "no L4 beside tissue spacing"])
def test_measure_and_measure_subject_report_one_first_fault(tmp_path, capsys, fault):
    ph, paths = write_phantom(tmp_path, sid="p1", nx=24, ny=24, nz=10)
    volumes = {"ct": ph.ct, "tissue": ph.tissue, "vertebrae": ph.vertebrae}
    if fault.startswith("no L4"):
        codes = np.where(ph.vertebrae.codes == 3, 0, ph.vertebrae.codes).astype(np.uint8)
        volumes["vertebrae"] = replace(ph.vertebrae, codes=codes)
    other = fault.split()[-2]
    volumes[other] = replace(volumes[other], spacing_mm=(1.0, 1.0, 9.0))
    for name, vol in volumes.items():
        write_volume(vol, paths[name])
    names = ("ct", "tissue", "vertebrae")
    record = SubjectRecord("p1", 0.0)
    with pytest.raises(bodycomp.GeometryMismatchError) as direct:
        measure_subject(*(volumes[name] for name in names), record)
    with pytest.raises(bodycomp.GeometryMismatchError) as headed:
        measure_subject(*(read_header(paths[name]) for name in names), record)
    # the grid that differs from the vertebrae's names its file: the CT's first
    named = paths["tissue" if other == "tissue" else "ct"]
    assert str(headed.value) == f"{named}: {direct.value}"
    argv = ["measure", "--out", str(tmp_path / "out")]
    for name in names:
        argv += [f"--{name}", str(paths[name])]
    assert main(argv) == 1
    subject = "" if named == paths["ct"] else f"{paths['ct']}: "
    assert capsys.readouterr().err == f"measure: {subject}{headed.value}\nmeasure: 1 of 1 inputs failed\n"


# ---- the library on headers and on volumes: one result ------------------------

@pytest.mark.parametrize("vertebrae", ["all levels", "no L4", "none"])
def test_the_library_gives_one_result_on_headers_and_on_volumes(tmp_path, monkeypatch, vertebrae):
    ph, paths = write_phantom(tmp_path, sid="p1", nx=32, ny=32, nz=20, vertebra_slices=(14, 9, 5),
                              rescale_slope=0.7)
    paths["pred"] = tmp_path / "pred.bcv"
    write_volume(replace(ph.tissue, codes=np.roll(ph.tissue.codes, 1, axis=2)), paths["pred"])
    if vertebrae == "no L4":
        codes = np.where(ph.vertebrae.codes == 3, 0, ph.vertebrae.codes).astype(np.uint8)
        write_volume(replace(ph.vertebrae, codes=codes), paths["vertebrae"])
    # 3 CT slices a chunk: the headers' files are read in several pieces
    monkeypatch.setattr(bodycomp.io, "SCAN_CHUNK_BYTES", 3 * ph.ct.values[0].nbytes)
    heads = {name: read_header(path) for name, path in paths.items()}
    vols = {name: read_volume(path) for name, path in paths.items()}
    if vertebrae == "none":
        heads["vertebrae"] = vols["vertebrae"] = None
    regions = ["l3", "all"] if vertebrae == "no L4" else None
    for inputs in (heads, vols):
        inputs["case"] = evaluate_case(inputs["tissue"], inputs["pred"], inputs["ct"], inputs["vertebrae"],
                                       MergePolicy.SAT, regions)
    if vertebrae == "no L4":  # the reason a metric is left blank names the vertebra file
        named = {metric: f"{paths['vertebrae']}: {why}" for metric, why in vols["case"].blank_reasons.items()}
        vols["case"] = replace(vols["case"], blank_reasons=named)
    assert heads["case"] == vols["case"]
    if vertebrae == "all levels":
        record = SubjectRecord("p1", 60.0, height_m=1.7)
        assert (measure_subject(heads["ct"], heads["tissue"], heads["vertebrae"], record)
                == measure_subject(vols["ct"], vols["tissue"], vols["vertebrae"], record))


def test_the_library_refuses_a_ct_and_masks_given_as_both_volumes_and_headers(tmp_path):
    ph, paths = write_phantom(tmp_path, sid="p1", nx=24, ny=24, nz=10)
    mixed = "give every input as a volume or every input as a .bcv header"
    with pytest.raises(TypeError, match=mixed):
        measure_subject(read_header(paths["ct"]), ph.tissue, ph.vertebrae, SubjectRecord("p1", 0.0))
    with pytest.raises(TypeError, match=mixed):
        evaluate_case(ph.tissue, read_header(paths["tissue"]), ph.ct, ph.vertebrae)
    # the vertebrae may be either
    assert evaluate_case(ph.tissue, ph.tissue, ph.ct, read_header(paths["vertebrae"])).region_2d is not None
