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

A mutant that changes no output is an equivalent one: no test can kill
it, so it is listed apart, in ``EQUIVALENT``, with the reason, and never
run. ``tests/test_mutants.py`` checks that the text of each entry of
both lists still occurs exactly once, so the lists cannot rot unseen.
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
    # the counted slab ends after the higher of L3 and the range's end
    Mutant(
        "src/bodycomp/regions.py",
        "max(l3.z, t12_l4.z_hi) + 1)",
        "max(l3.z, t12_l4.z_hi))",
        ("tests/test_regions.py",),
    ),
    # of slices of one largest area, the lowest is picked
    Mutant(
        "src/bodycomp/regions.py",
        "return int(np.argmax(voxels))",
        "return int(voxels.size - 1 - np.argmax(voxels[::-1]))",
        ("tests/test_regions.py",),
    ),
    # a range holds its last slice
    Mutant(
        "src/bodycomp/regions.py",
        "return slice(region.z_lo, region.z_hi + 1)",
        "return slice(region.z_lo, region.z_hi)",
        ("tests/test_regions.py",),
    ),
    # a slab may end at the last slice
    Mutant("src/bodycomp/io.py", "z.stop <= nz", "z.stop < nz", ("tests/test_io.py",)),
    # an age one float above its neighbour is in the bin whose count holds it
    Mutant("src/bodycomp/cohort.py", 'side="right"', 'side="left"', ("tests/test_cohort.py",)),
    # every float32 HU is a whole multiple of 2^e: its significand has 24 bits
    Mutant(
        "src/bodycomp/measures.py",
        "e = int(np.frexp(hu)[1].min()) - 24",
        "e = int(np.frexp(hu)[1].min()) - 23",
        ("tests/test_measures.py",),
    ),
    # a histogram widened downwards keeps its counts at their values
    Mutant(
        "src/bodycomp/measures.py",
        "wide[max(lo - start, 0) :][: hist.size] = hist",
        "wide[: hist.size] = hist",
        ("tests/test_measures.py",),
    ),
    # a run touches the run of the next row that ends one column before it starts
    Mutant(
        "src/bodycomp/postprocess.py",
        "np.searchsorted(last, first + (width - 1))",
        "np.searchsorted(last, first + width)",
        ("tests/test_postprocess.py",),
    ),
    # and the run of the next row that starts one column after it ends
    Mutant(
        "src/bodycomp/postprocess.py",
        'last + (width + 1), side="right"',
        'last + width, side="right"',
        ("tests/test_postprocess.py",),
    ),
    # an empty row between slices: no run touches one of the next slice
    Mutant(
        "src/bodycomp/postprocess.py",
        "stride = (ny + 1) * (nx + 1)",
        "stride = ny * (nx + 1)",
        ("tests/test_postprocess.py",),
    ),
    # the HU intervals are closed at both ends, on stored values and on raw ones
    Mutant(
        "src/bodycomp/postprocess.py",
        "np.greater_equal(values, lo, out=out)",
        "np.greater(values, lo, out=out)",
        ("tests/test_postprocess.py",),
    ),
    Mutant(
        "src/bodycomp/postprocess.py",
        "np.less_equal(values, hi, out=scratch)",
        "np.less(values, hi, out=scratch)",
        ("tests/test_postprocess.py",),
    ),
    Mutant("src/bodycomp/postprocess.py", "ok = hu >= lo", "ok = hu > lo", ("tests/test_postprocess.py",)),
    Mutant("src/bodycomp/postprocess.py", "ok &= hu <= hi", "ok &= hu < hi", ("tests/test_postprocess.py",)),
    # a CSV number has 6 significant digits
    Mutant("src/bodycomp/io.py", 'return f"{x:.6g}"', 'return f"{x:.7g}"', ("tests/test_io.py",)),
    # without a CT no density is attempted, so none is left blank with a reason
    Mutant(
        "src/bodycomp/evaluation.py",
        "truth, predicted = muscle if with_ct else (None, None)",
        "truth, predicted = muscle if found_all else (None, None)",
        ("tests/test_evaluation.py",),
    ),
]


class Equivalent(NamedTuple):
    path: str
    old: str
    new: str
    reason: str


EQUIVALENT = [
    Equivalent(
        "src/bodycomp/io.py",
        "if values.size < count:",
        "if values.size != count:",
        "np.fromfile never reads more than count values, so != and < agree",
    ),
    Equivalent(
        "src/bodycomp/cli.py",
        "chunk = max(1, len(tasks) // (4 * workers))",
        "chunk = 1",
        "the chunk size sets only how tasks travel to the workers; pool.map keeps their order",
    ),
    Equivalent(
        "src/bodycomp/measures.py",
        "if ct_piece is not None:",
        "if True:",
        "a piece without a CT lies outside the counted slab, whose rows are never read: "
        "counting it costs only CPU",
    ),
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
