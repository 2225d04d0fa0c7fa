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
changes any output byte.

Every command checks the kind of each file's header (``_read_header``)
before any grid check. ``measure`` and ``evaluate`` then hand the
headers to ``measures.measure_subject`` and ``evaluation.evaluate_case``,
which check the grids, pick the regions and read the payloads a chunk of
whole slices at a time (``io.SCAN_CHUNK_BYTES``, 1 MiB: 2 slices of a
512x512 CT); no command holds more than about one chunk of each file.
``measure`` parses each CT header twice: its pass over every CT header
keeps only the ids.

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
from contextlib import closing
from dataclasses import fields
from enum import Enum
from io import StringIO
from pathlib import Path

from .errors import (
    BodycompError,
    LabelVocabularyError,
    NonFiniteHUError,
    UndefinedSMIError,
    VertebraNotFoundError,
)
from .io import (
    VolumeHeader,
    _replacing,
    format_number,
    read_cohort_csv,
    read_header,
    read_in_step,
    write_slabs,
)
from .model import (
    GROUP_BY_CHOICES,
    BodyCompResult,
    MergePolicy,
    SubjectRecord,
    _naming,
    _same_geometry,
    codes_for,
    vertebra_label,
)

_POLICIES = {p.value: p for p in MergePolicy}


def _jobs(text: str) -> int:
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return jobs


def _read_header(path, ct: bool) -> VolumeHeader:
    """The header of a CT (``ct``) or label file, its kind checked."""
    head = read_header(path)
    if (head.kind == "ct") != ct:
        wanted, got = ("a CT volume", "labels") if ct else ("a label volume", "CT")
        raise BodycompError(f"{path}: expected {wanted}, got {got}")
    return head


def _csv_text(columns, rows) -> str:
    text = StringIO()
    csv.writer(text, lineterminator="\n").writerows([columns, *rows])
    return text.getvalue()


def _write_out(out, files) -> None:
    """Write ``files``, ``(name, text)`` pairs, in order into the directory
    ``out``, made just before the first; each file is replaced whole
    (``io._replacing``), so a killed run leaves it old or new."""
    for k, (name, text) in enumerate(files):
        if k == 0:
            Path(out).mkdir(parents=True, exist_ok=True)
        with _replacing(os.path.join(out, name)) as fh:
            fh.write(text.encode("utf-8"))


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
    """Reject an id that would not name a file directly inside ``--out``:
    its ``<id>.json`` must be UTF-8 and at most 255 bytes (NAME_MAX)."""
    try:
        fits = len(f"{subject_id}.json".encode()) <= 255
    except UnicodeEncodeError:  # a lone surrogate
        fits = False
    if not fits or subject_id in ("", ".", "..") or any(c in subject_id for c in "/\\\0"):
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


def _measure_one(entry: dict, subject_id: str, policy: MergePolicy, record: SubjectRecord | None):
    """Measure one subject from the headers of its files (``measure_subject``).

    ``record`` holds the subject's demographics; without one the subject
    has no height, so no SMI.
    """
    from .measures import measure_subject

    vertebrae = _read_header(entry["vertebrae"], ct=False)
    ct = _read_header(entry["ct"], ct=True)
    tissue = _read_header(entry["tissue"], ct=False)
    if record is None:
        record = SubjectRecord(subject_id=subject_id, age_years=0.0)
    # a non-finite HU comes of the CT's rescale: it names the CT
    with _naming(entry["ct"], NonFiniteHUError):
        return measure_subject(ct, tissue, vertebrae, record, policy)


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

    def outputs():  # the run's index, results.csv, last
        for result, _ in measured:
            yield f"{result.subject_id}.json", json.dumps(result.to_dict(), sort_keys=True, indent=2) + "\n"
        yield "results.csv", _csv_text(RESULTS_CSV_COLUMNS, [row for _, row in measured])

    _write_out(args.out, outputs())

    for message in failures:
        print(f"measure: {message}", file=sys.stderr)
    if failures:
        print(f"measure: {len(failures)} of {len(entries)} inputs failed", file=sys.stderr)
        return 1
    return 0


def cmd_evaluate(args) -> int:
    from .evaluation import EvalRow, _normalize_regions, aggregate_cases, evaluate_case
    from .measures import _NON_FINITE

    policy = _POLICIES[args.policy]
    regions = args.regions.split(",") if args.regions else None
    if regions is not None:
        try:
            _normalize_regions(regions)
        except ValueError as exc:
            print(f"evaluate: {exc}", file=sys.stderr)
            return 2
    # every header is read, and its kind checked, before evaluate_case checks the grids
    gt = _read_header(args.gt, ct=False)
    pred = _read_header(args.pred, ct=False)
    vertebrae = _read_header(args.vertebrae, ct=False) if args.vertebrae else None
    case = evaluate_case(gt, pred, _read_header(args.ct, ct=True), vertebrae, policy, regions)
    for metric, reason in case.blank_reasons.items():
        # a non-finite HU comes of the CT's rescale: the reason names the CT
        reason = f"{args.ct}: {reason}" if reason == _NON_FINITE else reason
        print(f"evaluate: {metric} error left blank: {reason}", file=sys.stderr)
    report = aggregate_cases([case])

    eval_csv = _csv_text(_csv_columns(EvalRow), map(_csv_row, report.rows))
    _write_out(args.out, [("eval.json", report.to_json() + "\n"), ("eval.csv", eval_csv)])
    return 0


def cmd_select_slice(args) -> int:
    from .regions import _largest_slice, _read_counts

    # one chunked scan: the index and its area come from one count table
    head = _read_header(args.vertebrae, ct=False)
    counts = _read_counts(head)
    name = vertebra_label(args.level)
    with _naming(args.vertebrae, VertebraNotFoundError):
        index = _largest_slice(counts, head.label_map, name)
    area = counts[index, codes_for(head.label_map, name)].sum() * head.geometry.pixel_area_cm2
    print(f"{name} index {index} area_cm2 {format_number(float(area))}")
    return 0


def cmd_postprocess(args) -> int:
    from .postprocess import dilate_sat_to_skin, muscular_fat_slabs

    # both kernels work slice by slice: they run on the chunks of slices
    # that read_in_step reads of the CT and the mask side by side, and the
    # output is written as it comes; the geometry check of each kernel, in
    # its operand order, comes before any payload is read
    ct_head = _read_header(args.ct, ct=True)
    mask_head = _read_header(args.mask, ct=False)
    # a mismatch names the mask, which is compared with the CT
    if args.mode == "sat-skin":
        _same_geometry(mask_head, mask_head, ct_head)
        geometry = mask_head.geometry

        def kernel(pieces):
            return map(lambda piece: dilate_sat_to_skin(piece[1], piece[0]), pieces)
    else:
        _same_geometry(mask_head, ct_head, mask_head)
        kernel, geometry = muscular_fat_slabs, ct_head.geometry
    # map holds no chunk while the next is read; a label the kernel needs
    # and the mask lacks names the mask
    steps = read_in_step([ct_head, mask_head], slice(0, geometry.nz))
    with closing(steps), _naming(args.mask, LabelVocabularyError):
        write_slabs(kernel(map(lambda step: step[1], steps)), geometry, args.out)
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
    index = results_dir / "results.csv"
    paths, results = sorted(results_dir.glob("*.json")), []
    if index.is_file():
        # the subjects of the run that wrote results.csv: a JSON that an
        # earlier run left beside them is not pooled
        with open(index, newline="", encoding="utf-8-sig") as fh, _naming(index, BodycompError):
            ids = [_check_subject_id(row.get("subject_id") or "") for row in csv.DictReader(fh)]
        paths = sorted(results_dir / f"{sid}.json" for sid in ids)
        absent = next((path for path in paths if not path.is_file()), None)
        if absent is not None:
            print(f"cohort: {absent}: listed in {index}, but no such file", file=sys.stderr)
            return 1
    for path in paths:
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
    # the results of one run: no subject twice, one policy
    ids = [r.subject_id for r in results]
    duplicate = _first_duplicate(ids)
    if duplicate is not None:
        first, second = [path for path, sid in zip(paths, ids) if sid == duplicate][:2]
        print(f"cohort: {first} and {second}: both hold subject_id {duplicate!r}", file=sys.stderr)
        return 1
    policy = results[0].policy
    other = next((k for k, r in enumerate(results) if r.policy is not policy), None)
    if other is not None:
        print(
            f"cohort: {paths[0]} and {paths[other]}: results under two policies, "
            f"{policy.value!r} and {results[other].policy.value!r}",
            file=sys.stderr,
        )
        return 1
    records = read_cohort_csv(args.demographics)

    group_rows = []
    for group_by in group_bys:
        stats = group_stats(results, records, group_by, min_group_size=args.min_group)
        for s in stats:
            group_rows.append(
                [s.group, s.metric, str(s.count), format_number(s.mean), format_number(s.sd)]
            )
    correlations = map(_csv_row, correlation_matrix(results))
    _write_out(args.out, [
        ("group_stats.csv", _csv_text(("group", "metric", "count", "mean", "sd"), group_rows)),
        ("correlations.csv", _csv_text(_csv_columns(CorrelationEntry), correlations)),
    ])
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
    m.add_argument("--jobs", type=_jobs, default=1)
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
