"""Print every metric of every workload by name, with its unit and sample count.

    python3 perfbench/report.py [--seed N] [--seconds S] [--workload NAME ...]

Runs ``run.py`` once untraced (end-to-end metrics, including
``failed_ratio``) and once traced (per-layer metrics) for each workload,
and prints one line per metric: workload, mode, name, value, unit and
sample count, after the machine record of the first run.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from workloads import WORKLOADS  # noqa: E402 - needs the src path above


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--workload", nargs="+", default=list(WORKLOADS), choices=list(WORKLOADS))
    args = parser.parse_args(argv)
    machine_shown = False
    print(f"{'workload':<15} {'mode':<10} {'metric':<45} {'value':>14} {'unit':<7} n")
    for workload in args.workload:
        for trace, mode in ((0, "end2end"), (1, "per-layer")):
            cmd = [
                sys.executable, str(BENCH / "run.py"), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout + proc.stderr)
                return proc.returncode
            for line in proc.stdout.splitlines():
                kind, _, rest = line.partition(" ")
                if kind == "machine" and not machine_shown:
                    print(f"# machine {rest}")
                    machine_shown = True
                elif kind == "input":
                    print(f"# {rest}")
                elif kind == "metric":
                    name, value, unit, n = rest.split(" ")
                    print(f"{workload:<15} {mode:<10} {name:<45} {value:>14} {unit:<7} {n[2:]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
