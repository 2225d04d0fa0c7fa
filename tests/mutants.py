"""Check that the tests kill each one-line mutant of the program.

    python tests/mutants.py            # every mutant
    python tests/mutants.py 0 2        # the mutants at these indices

Each entry of ``MUTANTS`` names a file of the repository, an exact text
that occurs in it once, the text that replaces it, and the test files
that should fail on the result. The script first runs each set of
tests on a copy of the repository as it is, and stops if they fail
there. Then for each entry it copies the repository to a temporary
directory, applies the mutant there, and runs its tests with ``-x``. It
prints each mutant as killed or survived and exits 1 if any survived.
The repository itself is never changed.

A mutant that changes no output is an equivalent one: it is not listed
here, as no test can kill it. ``tests/test_mutants.py`` checks that each
entry's text still occurs exactly once, so the list cannot rot unseen.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = [
    # a backslash id would name a file outside --out on Windows
    Mutant(
        "src/bodycomp/cli.py",
        'any(c in subject_id for c in "/\\\\\\0")',
        'any(c in subject_id for c in "/\\0")',
        ("tests/test_cli.py",),
    ),
    # two complete cases have a correlation of +-1
    Mutant("src/bodycomp/cohort.py", "if len(xs) >= 2:", "if len(xs) >= 3:", ("tests/test_cohort.py",)),
    # ties that cost one bin of the count asked for are reported
    Mutant(
        "src/bodycomp/cohort.py",
        "if k < target and warning is None:",
        "if k < target - 1 and warning is None:",
        ("tests/test_cohort.py",),
    ),
    # a cut leaves at least min_count ages in the bin before it
    Mutant("src/bodycomp/cohort.py", "lo = prev + min_count", "lo = prev + min_count - 1", ("tests/test_cohort.py",)),
    # without the tolerance 3 * 0.7 mm falls short of 0.21 cm
    Mutant("src/bodycomp/regions.py", "eps = 1e-9", "eps = 0.0", ("tests/test_regions.py",)),
]


def _tests_fail(tests: tuple[str, ...], mutant: Mutant | None = None) -> bool:
    """Whether ``tests`` fail on a copy of the repository, with ``mutant`` applied."""
    with tempfile.TemporaryDirectory(prefix="bodycomp-mutant-") as tmp:
        work = Path(tmp) / "repo"
        ignore = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".work")
        shutil.copytree(ROOT, work, ignore=ignore)
        if mutant is not None:
            target = work / mutant.path
            text = target.read_text(encoding="utf-8")
            if text.count(mutant.old) != 1:
                raise SystemExit(f"{mutant.path}: {mutant.old!r} does not occur exactly once")
            target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
        done = subprocess.run(command, cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        if done.returncode not in (0, 1, 2):  # 2: a mutant that breaks collection
            raise SystemExit(f"pytest exited {done.returncode} on {tests}")
        return done.returncode != 0


def main(argv: list[str]) -> int:
    picked = [MUTANTS[int(i)] for i in argv] if argv else MUTANTS
    # a mutant is killed only by tests that pass on the program as it is
    for tests in dict.fromkeys(m.tests for m in picked):
        if _tests_fail(tests):
            raise SystemExit(f"{' '.join(tests)} fail without a mutant")
    survivors = []
    for mutant in picked:
        killed = _tests_fail(mutant.tests, mutant)
        print(f"{'killed' if killed else 'SURVIVED'}: {mutant.path}: {mutant.old!r} -> {mutant.new!r}", flush=True)
        if not killed:
            survivors.append(mutant)
    print(f"{len(picked) - len(survivors)} of {len(picked)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
