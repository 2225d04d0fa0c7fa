"""Run the bodycomp CLI with a span around every call into a bodycomp module.

    python3 perfbench/trace_child.py SPANS.json CLI-ARG...

Each public function of each ``bodycomp`` module is replaced, in every
module that holds a reference to it, by a wrapper that records a span:
stage, case id, thread, span id, parent span id, start, end, ``ru_maxrss``
at start and end, and a few counts taken after the call. So are
``LabelVolume.binary`` and the CLI's per-subject worker. Spans stay in
memory and are written once, when the command returns. The program's code
is not changed, and its outputs must be byte-identical to an untraced run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import resource
import sys
import threading
import time
from pathlib import Path

import numpy as np

MODULES = ("cli", "cohort", "evaluation", "io", "measures", "model", "phantom", "postprocess", "regions")


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _attempt(fn, *args):
    # a count that no longer fits the program's signatures is dropped, not
    # allowed to break the traced command
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - any failure here is the tracer's
        return {"count_error": repr(exc)}


def _label_code(vol, name: str) -> int:
    return min(c for c, n in vol.label_map.items() if n == name)


# Counts recorded with a span, from the call's arguments and result; each
# runs after the span has ended.
COUNTS = {
    "io.read_volume": lambda a, kw, r: {"bytes": os.path.getsize(a[0])},
    "io.write_volume": lambda a, kw, r: {"bytes": os.path.getsize(a[1])},
    "model.to_hu": lambda a, kw, r: {"voxels": a[0].values.size},
    "model.apply_merge_policy": lambda a, kw, r: {"voxels": 0 if r is a[0] else a[0].codes.size},
    "model.LabelVolume.binary": lambda a, kw, r: {"voxels": a[0].codes.size},
    "measures.measure_subject": lambda a, kw, r: {
        "region_2d": r.region_2d,
        "region_3d": list(r.region_3d),
        "plane": a[0].values[0].size,
    },
    "evaluation.evaluate_case": lambda a, kw, r: {
        "metric_errors_none": sum(v is None for v in r.metric_errors.values())
    },
    "postprocess.dilate_sat_to_skin": lambda a, kw, r: {
        "voxels": a[0].codes.size,
        "added": int(
            np.count_nonzero(r.codes == _label_code(r, "sat"))
            - np.count_nonzero(a[0].codes == _label_code(a[0], "sat"))
        ),
    },
    "postprocess.muscular_fat_candidates": lambda a, kw, r: {
        "voxels": a[0].values.size,
        "kept": int(np.count_nonzero(r.codes)),
    },
}

# Spans that start a new case; their children inherit its id.
CASE_OF = {"cli.subject": lambda a, kw: Path(a[0]["ct"]).name}


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, stage: str, fn):
        counts, case_of = COUNTS.get(stage), CASE_OF.get(stage)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            parent_id, parent_case = stack[-1] if stack else (0, None)
            span_id = next(self._ids)
            case = _attempt(case_of, args, kwargs) if case_of else parent_case
            stack.append((span_id, case))
            rss0, t0 = _maxrss_kb(), time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1, rss1 = time.perf_counter(), _maxrss_kb()
                stack.pop()
                self.spans.append([stage, case, threading.get_ident(), span_id, parent_id, t0, t1, rss0, rss1, None])
                raise
            t1, rss1 = time.perf_counter(), _maxrss_kb()
            stack.pop()
            extra = _attempt(counts, args, kwargs, result) if counts else None
            self.spans.append([stage, case, threading.get_ident(), span_id, parent_id, t0, t1, rss0, rss1, extra])
            return result

        return traced


def install(recorder: Recorder):
    """Wrap every public bodycomp function where it is referenced; returns the CLI module."""
    import bodycomp

    modules = {short: importlib.import_module(f"bodycomp.{short}") for short in MODULES}
    stages = {}
    for short, mod in modules.items():
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and not name.startswith("_") and obj.__module__ == mod.__name__:
                stages[obj] = f"{short}.{name}"
    cli = modules["cli"]
    if hasattr(cli, "_measure_one"):
        stages[cli._measure_one] = "cli.subject"
    wrapped = {fn: recorder.wrap(stage, fn) for fn, stage in stages.items()}
    for mod in (bodycomp, *modules.values()):
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, name, wrapped[obj])
    label_volume = modules["model"].LabelVolume
    label_volume.binary = recorder.wrap("model.LabelVolume.binary", label_volume.binary)
    return cli


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    cli = install(recorder)
    try:
        return cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"argv": argv, "spans": recorder.spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
