"""Benchmark of the bodycomp CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's seeded inputs, then runs its CLI commands as
child processes, one at a time (a closed loop with a single client), in
passes over the same inputs until ``--seconds`` of command time have
been measured. The first pass's outputs are checked against the oracle,
and every later pass's must be byte-identical to them.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced passes with passes run under ``trace_child.py`` and reports the
per-layer metrics of ``layers.py``. The last line of stdout is one JSON
object; the lines before it name every metric with its unit and sample
count, and record the machine.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from layers import UNITS, per_layer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 150
IMPORT_SAMPLES = 6
COPY_PROBE_MB = 512  # per array; larger than the 300 MiB last-level cache
COPY_REPEATS = 5
END_TO_END_UNITS = {"setup_s": "s", "cases_per_s": "1/s", "cpu_s_per_case": "s", "peak_rss_mb": "MB"}


@dataclass
class Child:
    code: int
    wall: float
    cpu: float
    maxrss_mb: float
    stderr: str


@dataclass
class Pass:
    traced: bool
    wall: float = 0.0
    cpu: float = 0.0
    peak_rss_mb: float = 0.0
    ops: set = field(default_factory=set)
    failed: set = field(default_factory=set)
    commands: list = field(default_factory=list)  # (argv, spans) of traced commands
    digests: list = field(default_factory=list)  # per step: {relative path: sha256}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("BODYCOMP_JOBS", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(cmd: list[str], stdout: Path, stderr: Path) -> Child:
    """Run one child process to completion, started from ``spawn.py``."""
    spawner = [sys.executable, str(BENCH / "spawn.py"), str(CHILD_TIMEOUT_S), str(stdout), str(stderr), *cmd]
    proc = subprocess.run(
        spawner, capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S + 30
    )
    if proc.returncode != 0:
        raise RuntimeError(f"spawn.py failed: {proc.stderr}")
    usage = json.loads(proc.stdout)
    return Child(
        usage["code"],
        usage["wall"],
        usage["cpu"],
        usage["maxrss_mb"],
        stderr.read_text(encoding="utf-8", errors="replace"),
    )


def digest_dir(d: Path) -> dict[str, str]:
    out = {}
    for path in sorted(p for p in d.rglob("*") if p.is_file()):
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 22), b""):
                h.update(block)
        out[str(path.relative_to(d))] = h.hexdigest()
    return out


def run_pass(steps, in_dir: Path, pass_dir: Path, traced: bool, first: Pass | None, check: bool = True) -> Pass:
    """Run every step once; check outputs against the oracle, or against the ``first`` pass."""
    result = Pass(traced)
    for i, step in enumerate(steps):
        step_dir = pass_dir / str(i)
        step_dir.mkdir(parents=True)
        argv = [
            a.replace("{in}", str(in_dir)).replace("{out}", str(pass_dir)).replace("{dir}", str(step_dir))
            for a in step.argv
        ]
        spans = pass_dir / f"{i}.spans.json"
        if traced:
            cmd = [sys.executable, str(BENCH / "trace_child.py"), str(spans), *argv]
        else:
            cmd = [sys.executable, "-m", "bodycomp.cli", *argv]
        child = run_child(cmd, pass_dir / f"{i}.stdout", pass_dir / f"{i}.stderr")
        result.wall += child.wall
        result.cpu += child.cpu
        result.peak_rss_mb = max(result.peak_rss_mb, child.maxrss_mb)
        if not check:
            continue
        result.ops |= set(step.ops)
        result.digests.append(digest_dir(step_dir))
        if child.code != step.expect_code or "Traceback" in child.stderr:
            result.failed |= set(step.ops)
        elif first is None:
            result.failed |= step.check(step_dir, child.stderr) & set(step.ops)
        elif result.digests[i] != first.digests[i]:
            result.failed |= set(step.ops)
        if traced and spans.exists():
            result.commands.append((argv, json.loads(spans.read_text())["spans"]))
    return result


def measure(workload, in_dir: Path, out_dir: Path, seconds: float, trace: bool) -> list[Pass]:
    """Timed passes until ``seconds`` of command time.

    An untimed run of the first command first warms the page cache and
    the memory the commands use. With ``trace``, untraced and traced
    passes alternate.
    """
    steps = workload.steps()
    run_pass(steps[:1], in_dir, out_dir / "warm-up", False, None, check=False)
    passes: list[Pass] = []
    while True:
        traced = trace and len(passes) % 2 == 1
        pass_dir = out_dir / str(len(passes))
        passes.append(run_pass(steps, in_dir, pass_dir, traced, passes[0] if passes else None))
        if len(passes) > 1:
            shutil.rmtree(pass_dir)
        if sum(p.wall for p in passes) >= seconds and (not trace or len(passes) >= 2):
            return passes


def import_times(work: Path) -> list[float]:
    """Wall time of a child interpreter that imports bodycomp.cli."""
    cmd = [sys.executable, "-c", "import bodycomp.cli"]
    return [run_child(cmd, work / "import.out", work / "import.err").wall for _ in range(IMPORT_SAMPLES)]


def copy_gbps() -> float:
    """numpy copy bandwidth, reading and writing arrays larger than the last-level cache."""
    src = np.ones(COPY_PROBE_MB * 2**20 // 8)
    dst = np.empty_like(src)
    np.copyto(dst, src)  # fault the pages in first
    times = []
    for _ in range(COPY_REPEATS):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t0)
    return 2 * src.nbytes / statistics.median(times) / 1e9


def machine() -> dict:
    meminfo = {}
    with open("/proc/meminfo", encoding="ascii") as fh:
        for line in fh:
            key, _, value = line.partition(":")
            meminfo[key] = value.strip()
    caches = {}
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            caches[int((index / "level").read_text())] = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "llc_size": caches[max(caches)] if caches else None,
        "copy_probe_array_mb": COPY_PROBE_MB,
        "mem_free": meminfo.get("MemFree"),
        "mem_available": meminfo.get("MemAvailable"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def end_to_end(workload, setup_times: list[float], passes: list[Pass]):
    cases = workload.cases_per_pass
    samples = {
        # set-up time of the whole input set, from the median case
        "setup_s": [statistics.median(setup_times) * len(setup_times)] * len(setup_times),
        "cases_per_s": [cases / p.wall for p in passes],
        "cpu_s_per_case": [p.cpu / cases for p in passes],
        "peak_rss_mb": [p.peak_rss_mb for p in passes],
    }
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics["peak_rss_mb"] = max(samples["peak_rss_mb"])
    return metrics, END_TO_END_UNITS, {name: len(values) for name, values in samples.items()}


def layer_metrics(work: Path, passes: list[Pass]):
    plain = [p.wall for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    overhead = statistics.median(p.wall for p in traced) / statistics.median(plain) - 1
    commands = [c for p in traced for c in p.commands]
    metrics = per_layer(commands, len(traced), import_times(work), copy_gbps(), overhead)
    counts = {name: len(traced) for name in UNITS}
    counts.update({n: int(metrics[n.rsplit(".", 1)[0] + ".n"]) for n in UNITS if n.endswith((".p50", ".tail"))})
    return metrics, UNITS, counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bodycomp" / "cli.py").is_file():
        print(f"run.py: bodycomp sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    work = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    in_dir, out_dir = work / "in", work / "out"
    in_dir.mkdir(parents=True)
    try:
        setup_times = workload.setup(in_dir, np.random.default_rng(args.seed))
        passes = measure(workload, in_dir, out_dir, args.seconds, bool(args.trace))
        if args.trace:
            metrics, units, counts = layer_metrics(work, passes)
        else:
            metrics, units, counts = end_to_end(workload, setup_times, passes)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still be using it
            work.parent.rmdir()

    attempted = sum(len(p.ops) for p in passes)
    failed = sum(len(p.failed) for p in passes)
    print("machine " + json.dumps(machine(), sort_keys=True))
    print(
        f"input workload={workload.name} seed={args.seed} cases_per_pass={workload.cases_per_pass} "
        f"voxels_per_case={workload.voxels_per_case} passes={len(passes)} setup_cases={len(setup_times)}"
    )
    for name, unit in units.items():
        print(f"metric {name} {metrics[name]:.6g} {unit} n={counts[name]}")
    print(f"metric failed_ratio {failed / attempted:.6g} 1 n={attempted}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
