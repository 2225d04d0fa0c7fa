"""The four workloads: seeded inputs, the CLI commands of one pass, and their checks.

Each workload writes its inputs under ``in_dir`` in ``setup``, timing the
generation and writing of each case, and keeps the oracle's expected
outputs in memory. ``steps`` lists the CLI commands of one pass; a pass
runs them in order, one at a time.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import inputs
import oracles
from inputs import MF_MAP, ROI_MAP, TISSUE_MAP, VERT_MAP, make_subject, paired_sizes, write_bcv

CT_SHAPE_XY = (512, 512)
CT_SPACING = (0.7, 0.7, 1.5)
CT_NZ = (240, 400)
SLAB_FRAC = (0.15, 0.60)


@dataclass
class Step:
    """One CLI command.

    In ``argv``, ``{in}`` is the input directory, ``{out}`` the pass's
    output root and ``{dir}`` the step's own output directory. ``check``
    gets that directory and the command's stderr, and returns the ids of
    the operations whose outputs are wrong.
    """

    argv: list[str]
    ops: list[str]
    check: Callable[[Path, str], set[str]]
    expect_code: int = 0


class Workload:
    name = ""
    why = ""

    def __init__(self):
        self.cases_per_pass = 0
        self.voxels_per_case = 0
        self.oracle: dict = {}

    def setup(self, in_dir: Path, rng: np.random.Generator) -> list[float]:
        """Write the inputs; return each case's generate-and-write seconds."""
        raise NotImplementedError

    def steps(self) -> list[Step]:
        raise NotImplementedError

    def _ct_sizes(self, rng, n):
        sizes = paired_sizes(rng, n, CT_NZ, SLAB_FRAC)
        self.cases_per_pass = n
        self.voxels_per_case = CT_SHAPE_XY[0] * CT_SHAPE_XY[1] * sum(nz for nz, _ in sizes) // n
        return [(*CT_SHAPE_XY, nz) for nz, _ in sizes], [frac for _, frac in sizes]


def _write_subject(in_dir: Path, s: inputs.Subject) -> dict[str, str]:
    paths = {"ct": f"{s.sid}_ct.bcv", "tissue": f"{s.sid}_tissue.bcv", "vertebrae": f"{s.sid}_vert.bcv"}
    write_bcv(in_dir / paths["ct"], s.raw, s, "ct")
    write_bcv(in_dir / paths["tissue"], s.tissue, s, "tissue_labels", TISSUE_MAP)
    write_bcv(in_dir / paths["vertebrae"], s.vert, s, "vertebra_labels", VERT_MAP)
    return {**paths, "subject_id": s.sid}


def _write_manifest(in_dir: Path, rows: list[dict], demographics: dict[str, dict]) -> None:
    with open(in_dir / "manifest.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["ct", "tissue", "vertebrae", "subject_id"])
        writer.writerows([r["ct"], r["tissue"], r["vertebrae"], r["subject_id"]] for r in rows)
    with open(in_dir / "cohort.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["subject_id", "age_years", "sex", "race", "height_m"])
        for sid, d in demographics.items():
            height = "" if d["height_m"] is None else f"{d['height_m']:.2f}"
            writer.writerow([sid, d["age_years"], d["sex"], d["race"], height])


def _demographics(rng: np.random.Generator, blank_height: float) -> dict:
    return {
        "age_years": int(rng.integers(25, 86)),
        "sex": str(rng.choice(["Female", "Male"])),
        "race": str(rng.choice(["White", "Black", "Asian", ""])),
        "height_m": None if rng.random() < blank_height else round(float(rng.uniform(1.5, 1.95)), 2),
    }


MEASURE_ARGV = [
    "measure", "--manifest", "{in}/manifest.csv", "--cohort", "{in}/cohort.csv",
    "--out", "{dir}", "--jobs", "2",
]


class CtMeasure(Workload):
    name = "ct_measure"
    why = (
        "measure --jobs 2 on 4 CT-sized subjects with a seeded 15-60% T12-L4 slab: "
        "io reads, to_hu, the merge and region scans"
    )
    SUBJECTS = 4

    def setup(self, in_dir, rng):
        shapes, fracs = self._ct_sizes(rng, self.SUBJECTS)
        # the two large subjects first: with --jobs 2 they run side by side,
        # so the peak RSS is their sum and does not hang on thread timing
        order = [0, 2, 1, 3]
        shapes, fracs = [shapes[i] for i in order], [fracs[i] for i in order]
        times, rows, demographics = [], [], {}
        for i, (shape, frac) in enumerate(zip(shapes, fracs)):
            t0 = time.perf_counter()
            # subject 0 has non-uniform z positions, subject 1 a non-integral slope
            s = make_subject(
                rng, f"ct{i}", shape, frac, CT_SPACING, slope=0.7 if i == 1 else 1.0, nonuniform_z=i == 0
            )
            rows.append(_write_subject(in_dir, s))
            times.append(time.perf_counter() - t0)
            demographics[s.sid] = _demographics(rng, blank_height=0.0)
            self.oracle[s.sid] = oracles.measure(s, demographics[s.sid]["height_m"])
        _write_manifest(in_dir, rows, demographics)
        return times

    def steps(self):
        return [Step(MEASURE_ARGV, sorted(self.oracle), lambda d, err: oracles.check_measure(d, self.oracle))]


class CtEvaluate(Workload):
    name = "ct_evaluate"
    why = (
        "evaluate on 2 CT-sized gt/pred pairs, all three regions: the per-label, per-region, "
        "per-slice Dice loop, with degenerate slices"
    )
    PAIRS = 2

    def setup(self, in_dir, rng):
        shapes, fracs = self._ct_sizes(rng, self.PAIRS)
        times = []
        for i, (shape, frac) in enumerate(zip(shapes, fracs)):
            t0 = time.perf_counter()
            s = make_subject(rng, f"pair{i}", shape, frac, CT_SPACING)
            inputs.empty_end_slices(rng, s)
            pred = inputs.perturb_prediction(rng, s)
            _write_subject(in_dir, s)
            write_bcv(in_dir / f"{s.sid}_pred.bcv", pred, s, "tissue_labels", TISSUE_MAP)
            times.append(time.perf_counter() - t0)
            self.oracle[s.sid] = oracles.evaluate(s, pred)
        return times

    def steps(self):
        def step(sid):
            argv = [
                "evaluate", "--gt", f"{{in}}/{sid}_tissue.bcv", "--pred", f"{{in}}/{sid}_pred.bcv",
                "--ct", f"{{in}}/{sid}_ct.bcv", "--vertebrae", f"{{in}}/{sid}_vert.bcv", "--out", "{dir}",
            ]
            return Step(argv, [sid], lambda d, err: set() if oracles.check_evaluate(d, self.oracle[sid]) else {sid})

        return [step(sid) for sid in sorted(self.oracle)]


class CtPostprocess(Workload):
    name = "ct_postprocess"
    why = (
        "postprocess sat-skin then mf-filter on 2 CT-sized volumes: the post-processing "
        "kernels, with .bcv writes beside reads"
    )
    VOLUMES = 2
    MODES = (("sat-skin", "tissue", TISSUE_MAP), ("mf-filter", "roi", MF_MAP))

    def setup(self, in_dir, rng):
        shapes, fracs = self._ct_sizes(rng, self.VOLUMES)
        times = []
        for i, (shape, frac) in enumerate(zip(shapes, fracs)):
            t0 = time.perf_counter()
            s = make_subject(rng, f"vol{i}", shape, frac, CT_SPACING)
            roi = inputs.roi_mask(s)
            write_bcv(in_dir / f"{s.sid}_ct.bcv", s.raw, s, "ct")
            write_bcv(in_dir / f"{s.sid}_tissue.bcv", s.tissue, s, "tissue_labels", TISSUE_MAP)
            write_bcv(in_dir / f"{s.sid}_roi.bcv", roi, s, "tissue_labels", ROI_MAP)
            times.append(time.perf_counter() - t0)
            digests = {"sat-skin": oracles.sat_skin(s), "mf-filter": oracles.mf_filter(s, roi)}
            self.oracle[s.sid] = {
                mode: (oracles.label_header(s, label_map), digests[mode]) for mode, _, label_map in self.MODES
            }
        return times

    def steps(self):
        def step(sid, mode, mask):
            header, digest = self.oracle[sid][mode]
            argv = ["postprocess", mode, "--ct", f"{{in}}/{sid}_ct.bcv",
                    "--mask", f"{{in}}/{sid}_{mask}.bcv", "--out", "{dir}/out.bcv"]
            return Step(
                argv,
                [sid],
                lambda d, err: set() if oracles.check_label_output(d / "out.bcv", header, digest) else {sid},
            )

        return [step(sid, mode, mask) for sid in sorted(self.oracle) for mode, mask, _ in self.MODES]


class SmallCohort(Workload):
    name = "small_cohort"
    why = (
        "measure --jobs 2 on 300 small subjects with 4 expected rejections, then cohort: "
        "fixed cost per command and subject, output writing, the cohort layer"
    )
    SUBJECTS = 300
    NO_L3 = 3  # subjects whose vertebra mask lacks L3
    TRUNCATED = 1  # subjects whose CT file is cut short

    def __init__(self):
        super().__init__()
        self.demographics = {}
        self.rejected = {}  # CT file name -> subject id

    def setup(self, in_dir, rng):
        n = self.SUBJECTS
        reject = rng.choice(n, self.NO_L3 + self.TRUNCATED, replace=False)
        times, rows = [], []
        for i in range(n):
            t0 = time.perf_counter()
            side, nz = 88 + 4 * int(rng.integers(0, 5)), int(rng.integers(36, 45))
            s = make_subject(rng, f"s{i:03d}", (side, side, nz), rng.uniform(0.3, 0.6), (3.5, 3.5, 5.0))
            if i in reject[: self.NO_L3]:
                s.vert[s.vert == inputs.L3] = 0
            row = _write_subject(in_dir, s)
            if i in reject[self.NO_L3 :]:
                ct = in_dir / row["ct"]
                ct.write_bytes(ct.read_bytes()[: -int(rng.integers(1, 4096))])
            rows.append(row)
            times.append(time.perf_counter() - t0)
            self.demographics[s.sid] = _demographics(rng, blank_height=0.1)
            if i in reject:
                self.rejected[row["ct"]] = s.sid
            else:
                self.oracle[s.sid] = oracles.measure(s, self.demographics[s.sid]["height_m"])
        _write_manifest(in_dir, rows, self.demographics)
        self.cases_per_pass = n
        self.voxels_per_case = 96 * 96 * 40
        return times

    def _check_measure(self, d: Path, stderr: str) -> set[str]:
        """Accepted subjects match the oracle; stderr names exactly the rejected files."""
        bad = oracles.check_measure(d, self.oracle)
        lines = stderr.splitlines()
        named = set()
        for line in lines:
            head, _, rest = line.partition(": ")
            if head == "measure" and ": " in rest:
                named.add(Path(rest.split(": ", 1)[0]).name)
        bad |= {self.rejected.get(name, name) for name in named ^ set(self.rejected)}
        if f"measure: {len(self.rejected)} of {self.SUBJECTS} inputs failed" not in lines:
            bad |= set(self.rejected.values())
        return bad

    def steps(self):
        cohort_argv = ["cohort", "--results", "{out}/0", "--demographics", "{in}/cohort.csv", "--out", "{dir}"]
        return [
            Step(MEASURE_ARGV, sorted(self.oracle) + sorted(self.rejected.values()), self._check_measure, 1),
            Step(
                cohort_argv,
                ["cohort"],
                lambda d, err: set() if oracles.check_cohort(d, self.oracle, self.demographics) else {"cohort"},
            ),
        ]


WORKLOADS = {w.name: w for w in (CtMeasure, CtEvaluate, CtPostprocess, SmallCohort)}
