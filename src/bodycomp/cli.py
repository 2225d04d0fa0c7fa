"""Command-line entry point.

Subcommands::

    measure       body-composition metrics for one CT/tissue/vertebrae
                  triple or a manifest CSV of triples
    evaluate      Dice/MRAE/R² report for a gt/pred mask pair
    select-slice  print the largest-label slice for a vertebra level
    postprocess   sat-skin dilation or muscular-fat filtering on .bcv files
    cohort        demographic group stats and metric correlations

Exit codes: 0 success, 1 partial failure (some inputs failed), 2 invalid
invocation. Outputs are deterministic: rows are ordered by subject_id,
floats are printed with 6 significant digits, and ``--jobs`` never
changes any output byte. ``BODYCOMP_JOBS`` sets the default worker count.

``measure --jobs N`` measures subjects in N worker processes forked from
the command, never more than there are subjects; with one worker it
makes no process. Each worker holds one subject's chunks at a time, and
only the command writes files. A worker that dies fails the command
with exit 1 and writes no ``results.csv``.

Start-up: no command makes a BLAS call, so before numpy loads, this
module sets ``OPENBLAS_NUM_THREADS`` to 1 unless the caller has set it,
and OpenBLAS starts no worker threads. At the top it imports only
``errors``, ``io`` and ``model``; each ``cmd_*`` imports the modules
that it runs when it is called.
"""

from __future__ import annotations

import os

# before numpy loads: no command makes a BLAS call, so OpenBLAS needs no worker threads
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import csv
import json
import sys
from contextlib import closing, contextmanager
from dataclasses import fields, replace
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    BodycompError,
    GeometryMismatchError,
    LabelVocabularyError,
    NonFiniteHUError,
    UndefinedSMIError,
    VertebraNotFoundError,
)
from .io import (
    VolumeHeader,
    format_number,
    read_cohort_csv,
    read_header,
    read_in_step,
    write_slabs,
)
from .model import (
    GROUP_BY_CHOICES,
    BodyCompResult,
    Geometry,
    MergePolicy,
    SubjectRecord,
    code_counts,
    codes_for,
    require_same_geometry,
    require_tissue_vocabulary,
    vertebra_label,
)

if TYPE_CHECKING:
    from .regions import VertebraRegions

_POLICIES = {p.value: p for p in MergePolicy}


def _default_jobs() -> int:
    try:
        return max(1, int(os.environ.get("BODYCOMP_JOBS", "1")))
    except ValueError:
        return 1


def _jobs(text: str) -> int:
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return jobs


def _check_kind(path, is_ct: bool, want_ct: bool) -> None:
    if is_ct != want_ct:
        wanted, got = ("a CT volume", "labels") if want_ct else ("a label volume", "CT")
        raise BodycompError(f"{path}: expected {wanted}, got {got}")


@contextmanager
def _naming(path, *errors):
    """Re-raise an error of the types ``errors`` from the block with its
    message after ``path``, the file at fault."""
    try:
        yield
    except errors as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _same_geometry(path, a, b) -> None:
    """``require_same_geometry(a, b)``, a mismatch naming ``path``, the file that differs."""
    with _naming(path, GeometryMismatchError):
        require_same_geometry(a, b)


def _read_header(path, ct: bool, geometry: Geometry | None = None) -> VolumeHeader:
    """The header of a CT (``ct``) or label file, checked against ``geometry``."""
    head = read_header(path)
    _check_kind(path, head.kind == "ct", ct)
    if geometry is not None:
        _same_geometry(path, head.geometry, geometry)
    return head


def _read_counts(path) -> tuple[VolumeHeader, np.ndarray]:
    """A label file's header and its code counts per slice, read a chunk of slices at a time."""
    head = _read_header(path, ct=False)
    # no slice as a volume: every chunk comes as planes, and map holds
    # none of them while the next is read
    with closing(read_in_step([path], head.geometry, slice(0, 0))) as steps:
        counts = np.concatenate(list(map(lambda step: code_counts(step[1][0]), steps)))
    return head, counts


def _read_regions(path) -> VertebraRegions:
    """The regions of a vertebra file, from one chunked scan; the message
    of a missing level names the file."""
    from .regions import regions_from_counts

    head, counts = _read_counts(path)
    picked = regions_from_counts(counts, head.label_map, head.geometry)
    return replace(picked, missing={name: f"{path}: {why}" for name, why in picked.missing.items()})


def _write_csv(path, columns, rows) -> None:
    rows = list(rows)  # format every cell before the file is opened
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(rows)


def _csv_columns(cls) -> tuple[str, ...]:
    """CSV header of a dataclass: one column per field, or per part of a
    tuple field, suffixed with the field's unit when it has one."""
    columns = []
    for f in fields(cls):
        suffixes = f.metadata.get("parts", (f.metadata.get("unit", ""),))
        columns += [f"{f.name}_{suffix}" if suffix else f.name for suffix in suffixes]
    return tuple(columns)


def _csv_row(obj) -> list[str]:
    """CSV cells of a dataclass, in ``_csv_columns`` order: strings as
    they are, enums by value, numbers by ``format_number`` (None blank)."""
    cells = []
    for f in fields(obj):
        value = getattr(obj, f.name)
        for part in value if isinstance(value, tuple) else (value,):
            part = part.value if isinstance(part, Enum) else part
            cells.append(part if isinstance(part, str) else format_number(part))
    return cells


RESULTS_CSV_COLUMNS = _csv_columns(BodyCompResult)


def _load_manifest(path) -> list[dict]:
    # utf-8-sig: a byte order mark, as Excel's "CSV UTF-8" writes, is not
    # part of the first column's name
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        fields = reader.fieldnames or []
        needed = [c for c in ("ct", "tissue", "vertebrae") if c not in fields]
        if needed:
            raise BodycompError(f"{path}: manifest missing columns {needed}")
        base = Path(path).parent
        rows = []
        for lineno, row in enumerate(reader, start=2):
            short = [c for c in ("ct", "tissue", "vertebrae") if row[c] is None]
            if short:
                raise BodycompError(f"{path}:{lineno}: manifest row missing columns {short}")
            entry = {
                "ct": str(base / row["ct"]),
                "tissue": str(base / row["tissue"]),
                "vertebrae": str(base / row["vertebrae"]),
                "subject_id": (row.get("subject_id") or "").strip() or None,
            }
            rows.append(entry)
    return rows


def _check_subject_id(subject_id: str) -> str:
    """Reject an id that would not name a file directly inside ``--out``."""
    if subject_id in ("", ".", "..") or any(c in subject_id for c in "/\\\0"):
        raise BodycompError(f"subject_id {subject_id!r} is not a valid file name")
    return subject_id


def _first_duplicate(ids):
    seen = set()
    for subject_id in ids:
        if subject_id in seen:
            return subject_id
        seen.add(subject_id)
    return None


def _subject_id(entry: dict) -> str:
    """The subject's id, from its CT header unless the manifest gives one."""
    head = _read_header(entry["ct"], ct=True)
    return _check_subject_id(entry["subject_id"] or head.subject_id or Path(entry["ct"]).stem)


def _attempt(fn, entry: dict, *args):
    """``fn(entry, *args)`` and no message, or None and why it failed.

    The message names the subject by its CT, first on the line, then the
    fault, which names its file: a fault of the CT names it once.
    """
    try:
        return fn(entry, *args), None
    except (BodycompError, OSError, ValueError) as exc:
        ct, message = entry["ct"], str(exc)
        return None, message if message.startswith(f"{ct}: ") else f"{ct}: {message}"


def _pieces(masks: list, ct, geometry: Geometry, slab: slice):
    """The pieces of the label files ``masks`` and, over ``slab``, of the CT file ``ct``.

    They are read as they are taken, a chunk of slices at a time
    (``read_in_step``), the CT's chunk first; with ``ct`` None no CT is
    read.
    """
    from .measures import Piece

    paths = [ct, *masks] if ct is not None else list(masks)
    for lo, read in read_in_step(paths, geometry, slab):
        ct_piece = read.pop(0) if ct is not None else None
        yield Piece(lo, tuple(getattr(piece, "codes", piece) for piece in read), ct_piece)
        del ct_piece, read  # nothing of a chunk stays in this frame while the next is read


def _measure_one(entry: dict, subject_id: str, policy: MergePolicy, record: SubjectRecord | None):
    """Measure one subject, reading of its CT only the counted slab, a chunk at a time.

    ``record`` holds the subject's demographics; without one the subject
    has no height, so no SMI.
    """
    from .measures import measure_pieces

    # the regions come first: the vertebra mask is scanned, never held
    picked = _read_regions(entry["vertebrae"])
    _read_header(entry["ct"], True, picked.geometry)
    tissue = _read_header(entry["tissue"], False, picked.geometry)
    if record is None:
        record = SubjectRecord(subject_id=subject_id, age_years=0.0)
    pieces = _pieces([entry["tissue"]], entry["ct"], picked.geometry, picked.counted_slab())
    # a tissue label the mask lacks names it, and a non-finite HU the CT's rescale
    with _naming(entry["tissue"], LabelVocabularyError), _naming(entry["ct"], NonFiniteHUError):
        return measure_pieces(tissue, pieces, picked, record, policy)


def _measure_row(entry: dict, subject_id: str, policy: MergePolicy, record: SubjectRecord | None,
                 cohort: str | None):
    """One subject's result and its CSV row. The row is formatted here, so
    a metric it cannot write fails its subject alone; a height that gives
    no finite SMI names ``cohort``, the file it came from."""
    with _naming(cohort, UndefinedSMIError):
        result = _measure_one(entry, subject_id, policy, record)
    return result, _csv_row(result)


def _measure_task(policy: MergePolicy, cohort: str | None, task: tuple):
    """A worker's task: ``(entry, (subject_id, failure), record)``, where
    ``(subject_id, failure)`` comes of the header pre-pass. Returns
    ``_attempt``'s ``((result, row), None)`` or ``(None, message)``.

    A module-level function, so that a worker process can be sent it by
    name: the task carries the subject's own record, never the cohort.
    """
    entry, (subject_id, failure), record = task
    if subject_id is None:
        return None, failure
    return _attempt(_measure_row, entry, subject_id, policy, record, cohort)


def _measure_all(work, tasks: list, jobs: int) -> list:
    """``work`` over ``tasks``, in order, in up to ``jobs`` forked worker processes.

    Subjects are mostly Python-level numpy calls, so threads would take
    turns on the GIL. The workers are forked: they inherit numpy and the
    loaded modules, where a spawned worker would import them again. No
    thread is started before they are. With one worker, or no fork on
    this platform, ``work`` runs here and no process is made.
    """
    workers = min(jobs, len(tasks))
    if workers <= 1 or not hasattr(os, "fork"):
        return list(map(work, tasks))
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # a few chunks per worker: many small subjects travel together, and a
    # few large ones one at a time, each on its own worker
    chunk = max(1, len(tasks) // (4 * workers))
    try:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            return list(pool.map(work, tasks, chunksize=chunk))
    except BrokenProcessPool as exc:  # a worker killed, or out of memory
        raise BodycompError(f"a worker process died: {exc}") from None


def cmd_measure(args) -> int:
    from functools import partial

    # loaded before the workers fork, so that each inherits them
    from . import measures, regions

    policy = _POLICIES[args.policy]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.manifest:
        entries = _load_manifest(args.manifest)
        duplicate = _first_duplicate(e["subject_id"] for e in entries if e["subject_id"])
        if duplicate is not None:
            print(
                f"measure: duplicate subject_id {duplicate!r} in {args.manifest}",
                file=sys.stderr,
            )
            return 2
    else:
        if not (args.ct and args.tissue and args.vertebrae):
            print("measure: need --ct/--tissue/--vertebrae or --manifest", file=sys.stderr)
            return 2
        entries = [
            {
                "ct": args.ct,
                "tissue": args.tissue,
                "vertebrae": args.vertebrae,
                "subject_id": None,
            }
        ]

    cohort = {}
    if args.cohort:
        cohort = {r.subject_id: r for r in read_cohort_csv(args.cohort)}

    # every CT header is read before any payload: an id taken from a
    # header is then checked like a manifest id, and a header that fails
    # is the failure of its subject alone
    ids = [_attempt(_subject_id, entry) for entry in entries]
    duplicate = _first_duplicate(sid for sid, _ in ids if sid is not None)
    if duplicate is not None:
        print(f"measure: duplicate subject_id {duplicate!r}", file=sys.stderr)
        return 2

    tasks = [(entry, named, cohort.get(named[0])) for entry, named in zip(entries, ids)]
    outcomes = _measure_all(partial(_measure_task, policy, args.cohort), tasks, args.jobs)

    measured = sorted((m for m, _ in outcomes if m is not None), key=lambda m: m[0].subject_id)
    failures = [msg for _, msg in outcomes if msg is not None]

    for result, _ in measured:
        doc = json.dumps(result.to_dict(), sort_keys=True, indent=2)
        (out_dir / f"{result.subject_id}.json").write_text(doc + "\n", encoding="utf-8")
    _write_csv(out_dir / "results.csv", RESULTS_CSV_COLUMNS, [row for _, row in measured])

    for message in failures:
        print(f"measure: {message}", file=sys.stderr)
    if failures:
        print(f"measure: {len(failures)} of {len(entries)} inputs failed", file=sys.stderr)
        return 1
    return 0


def cmd_evaluate(args) -> int:
    from .evaluation import EvalRow, _normalize_regions, aggregate_cases, evaluate_pieces
    from .measures import _NON_FINITE

    policy = _POLICIES[args.policy]
    regions = args.regions.split(",") if args.regions else None
    if regions is not None:
        try:
            _normalize_regions(regions)
        except ValueError as exc:
            print(f"evaluate: {exc}", file=sys.stderr)
            return 2
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    # every header is checked, in the order gt, pred, vertebrae, ct, before
    # any payload is read; pred and vertebrae are compared with gt as
    # evaluate_case compares them
    gt = _read_header(args.gt, ct=False)
    geometry = gt.geometry
    pred = _read_header(args.pred, ct=False)
    _same_geometry(args.pred, geometry, pred.geometry)
    if args.vertebrae:
        _same_geometry(args.vertebrae, geometry, _read_header(args.vertebrae, ct=False).geometry)
    _read_header(args.ct, True, geometry)
    picked = _read_regions(args.vertebrae) if args.vertebrae else None
    # the masks are read a chunk at a time, and only the densities read the
    # CT, on the counted slab: with every vertebra level found that slab is
    # read in step with them, else no CT payload at all
    with_ct = picked is not None and not picked.missing
    slab = picked.counted_slab() if with_ct else slice(0, 0)
    pieces = _pieces([args.gt, args.pred], args.ct if with_ct else None, geometry, slab)

    try:
        case = evaluate_pieces(gt, pred, pieces, picked, policy, regions)
    except LabelVocabularyError:
        # the masks' vocabularies are checked in turn after the pass: the
        # first mask that fails names its file
        for path, head in ((args.gt, gt), (args.pred, pred)):
            with _naming(path, LabelVocabularyError):
                require_tissue_vocabulary(head)
        raise
    for metric, reason in case.blank_reasons.items():
        # a non-finite HU comes of the CT's rescale: the reason names the CT
        reason = f"{args.ct}: {reason}" if reason == _NON_FINITE else reason
        print(f"evaluate: {metric} error left blank: {reason}", file=sys.stderr)
    report = aggregate_cases([case])

    (out_dir / "eval.json").write_text(report.to_json() + "\n", encoding="utf-8")
    _write_csv(out_dir / "eval.csv", _csv_columns(EvalRow), map(_csv_row, report.rows))
    return 0


def cmd_select_slice(args) -> int:
    from .regions import _largest_slice

    # one chunked scan: the index and its area come from one count table
    head, counts = _read_counts(args.vertebrae)
    name = vertebra_label(args.level)
    with _naming(args.vertebrae, VertebraNotFoundError):
        index = _largest_slice(counts, head.label_map, name)
    area = counts[index, codes_for(head.label_map, name)].sum() * head.geometry.pixel_area_cm2
    print(f"{name} index {index} area_cm2 {format_number(float(area))}")
    return 0


def cmd_postprocess(args) -> int:
    from .postprocess import dilate_sat_to_skin, muscular_fat_candidates

    # both kernels work slice by slice: they run on each chunk of slices
    # that read_in_step reads of the CT and the mask side by side, and the
    # output is written as it comes; the geometry check of each kernel, in
    # its operand order, comes before any payload is read
    ct_head = _read_header(args.ct, ct=True)
    mask_head = _read_header(args.mask, ct=False)
    # a mismatch names the mask, which is compared with the CT
    if args.mode == "sat-skin":
        _same_geometry(args.mask, mask_head.geometry, ct_head.geometry)
        kernel, geometry = (lambda ct, mask: dilate_sat_to_skin(mask, ct)), mask_head.geometry
    else:
        _same_geometry(args.mask, ct_head.geometry, mask_head.geometry)
        kernel, geometry = muscular_fat_candidates, ct_head.geometry
    # map holds no chunk while the next is read; a label the kernel needs
    # and the mask lacks names the mask
    steps = read_in_step([args.ct, args.mask], geometry, slice(0, geometry.nz))
    with closing(steps), _naming(args.mask, LabelVocabularyError):
        write_slabs(map(lambda step: kernel(*step[1]), steps), geometry, args.out)
    return 0


def cmd_cohort(args) -> int:
    from .cohort import CorrelationEntry, correlation_matrix, group_stats

    group_bys = [g.strip() for g in args.group_by.split(",") if g.strip()]
    bad = [g for g in group_bys if g not in GROUP_BY_CHOICES]
    if bad or not group_bys:
        print(
            f"cohort: --group-by must be a comma list of {GROUP_BY_CHOICES}, "
            f"got {args.group_by!r}",
            file=sys.stderr,
        )
        return 2
    results_dir = Path(args.results)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    results = []
    for path in sorted(results_dir.glob("*.json")):
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
            results.append(BodyCompResult.from_dict(doc))
        except (ValueError, RecursionError) as exc:
            # a RecursionError is JSON nested too deep to decode
            print(f"cohort: {path}: {exc}", file=sys.stderr)
            return 1
    if not results:
        print(f"cohort: no result JSON files in {results_dir}", file=sys.stderr)
        return 2
    records = read_cohort_csv(args.demographics)

    group_rows = []
    for group_by in group_bys:
        stats = group_stats(results, records, group_by, min_group_size=args.min_group)
        for s in stats:
            group_rows.append(
                [s.group, s.metric, str(s.count), format_number(s.mean), format_number(s.sd)]
            )
    _write_csv(out_dir / "group_stats.csv", ("group", "metric", "count", "mean", "sd"), group_rows)

    entries = correlation_matrix(results)
    _write_csv(
        out_dir / "correlations.csv", _csv_columns(CorrelationEntry), map(_csv_row, entries)
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bodycomp",
        description="CT body composition measurement and evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    m = sub.add_parser("measure", help="measure body-composition metrics")
    m.add_argument("--ct", help="raw CT .bcv")
    m.add_argument("--tissue", help="tissue label .bcv")
    m.add_argument("--vertebrae", help="vertebra label .bcv")
    m.add_argument("--manifest", help="CSV of ct,tissue,vertebrae[,subject_id] triples")
    m.add_argument("--cohort", help="demographics CSV (enables SMI)")
    m.add_argument("--policy", choices=sorted(_POLICIES), default="muscle")
    m.add_argument("--out", default="out")
    m.add_argument("--jobs", type=_jobs, default=_default_jobs())
    m.set_defaults(func=cmd_measure)

    e = sub.add_parser("evaluate", help="evaluate predicted masks against ground truth")
    e.add_argument("--gt", required=True)
    e.add_argument("--pred", required=True)
    e.add_argument("--ct", required=True, help="raw CT .bcv")
    e.add_argument("--vertebrae")
    e.add_argument("--regions", help="comma list of l3,t12l4,all")
    e.add_argument("--policy", choices=sorted(_POLICIES), default="muscle")
    e.add_argument("--out", default="out")
    e.set_defaults(func=cmd_evaluate)

    s = sub.add_parser("select-slice", help="print the largest-label slice")
    s.add_argument("--vertebrae", required=True)
    s.add_argument("--level", required=True, help="vertebra level, e.g. L3")
    s.set_defaults(func=cmd_select_slice)

    p = sub.add_parser("postprocess", help="mask post-processing")
    p.add_argument("mode", choices=("sat-skin", "mf-filter"))
    p.add_argument("--ct", required=True)
    p.add_argument("--mask", required=True, help="tissue mask (sat-skin) or ROI (mf-filter)")
    p.add_argument("--out", required=True, help="output .bcv path")
    p.set_defaults(func=cmd_postprocess)

    c = sub.add_parser("cohort", help="group stats and correlations over results")
    c.add_argument("--results", required=True, help="directory of per-subject JSON")
    c.add_argument("--demographics", required=True, help="cohort CSV")
    c.add_argument("--group-by", default=",".join(GROUP_BY_CHOICES))
    c.add_argument("--min-group", type=int, default=20)
    c.add_argument("--out", default="out")
    c.set_defaults(func=cmd_cohort)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BodycompError, OSError, ValueError) as exc:
        print(f"bodycomp: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
