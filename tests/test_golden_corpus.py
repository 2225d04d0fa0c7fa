"""Every run of the golden CLI corpus gives the bytes recorded in ``golden_corpus.json``."""

import json

import pytest

from golden_corpus import CORPUS, generate

EXPECTED = json.loads(CORPUS.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def regenerated(tmp_path_factory):
    return generate(tmp_path_factory.mktemp("corpus"))


def test_the_corpus_holds_the_same_runs(regenerated):
    assert sorted(regenerated["runs"]) == sorted(EXPECTED["runs"])


@pytest.mark.parametrize("name", sorted(EXPECTED["runs"]))
def test_corpus_run(regenerated, name):
    made_with = f"recorded with Python {EXPECTED['python']}, numpy {EXPECTED['numpy']}"
    assert regenerated["runs"].get(name) == EXPECTED["runs"][name], made_with


def _rule_breaks(run) -> list[str]:
    """How a recorded run breaks the robustness rules: an exit code other
    than 0, 1 or 2, a traceback on stderr, a warning, or a file written
    neither at its ``--out`` nor under it."""
    argv = run["argv"]
    out = argv[argv.index("--out") + 1] if "--out" in argv else None
    breaks = [
        path for path in run["files"] if out is None or (path != out and not path.startswith(f"{out}/"))
    ]
    if run["exit"] not in (0, 1, 2):
        breaks.append(f"exit {run['exit']}")
    if "Traceback" in run["stderr"]:
        breaks.append("a traceback")
    return breaks + run["warnings"]


def test_every_recorded_run_keeps_the_robustness_rules():
    broken = {name: breaks for name, run in EXPECTED["runs"].items() if (breaks := _rule_breaks(run))}
    assert broken == {}
