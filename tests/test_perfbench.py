import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bodycomp import build_phantom, write_volume

ROOT = Path(__file__).parents[1]


def _argv(command, tmp_path):
    ph = build_phantom(nx=24, ny=24, nz=8)
    for name in ("ct", "tissue", "vertebrae"):
        write_volume(getattr(ph, name), tmp_path / f"{name}.bcv")
    if command == "select-slice":
        return ["select-slice", "--vertebrae", str(tmp_path / "vertebrae.bcv"), "--level", "L3"]
    return ["postprocess", "sat-skin", "--ct", str(tmp_path / "ct.bcv"),
            "--mask", str(tmp_path / "tissue.bcv"), "--out", str(tmp_path / "out.bcv")]


# a span each command must record: a kernel that a command imports when it
# runs is still wrapped, so the per-layer metrics do not silently read 0
@pytest.mark.parametrize(
    "command, stage",
    [("select-slice", "io.read_code_counts"), ("postprocess", "postprocess.dilate_sat_to_skin")],
    ids=["select-slice", "postprocess"],
)
def test_the_tracer_runs_a_command_and_writes_its_spans(tmp_path, command, stage):
    # the tracer wraps every public bodycomp function it finds, and
    # LabelVolume.binary by name: a renamed or deleted one must not break it
    argv = _argv(command, tmp_path)
    spans = tmp_path / "spans.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "trace_child.py"), str(spans), *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(spans.read_text())
    assert doc["argv"][0] == command
    assert stage in {span[0] for span in doc["spans"]}
