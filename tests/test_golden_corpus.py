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
