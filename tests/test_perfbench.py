import json
import os
import subprocess
import sys
from pathlib import Path

from bodycomp import build_phantom, write_volume

ROOT = Path(__file__).parents[1]


def test_the_tracer_runs_a_command_and_writes_its_spans(tmp_path):
    # the tracer wraps every public bodycomp function it finds, and
    # LabelVolume.binary by name: a renamed or deleted one must not break it
    path = tmp_path / "vertebrae.bcv"
    write_volume(build_phantom(nx=24, ny=24, nz=8).vertebrae, path)
    spans = tmp_path / "spans.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "trace_child.py"), str(spans),
         "select-slice", "--vertebrae", str(path), "--level", "L3"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(spans.read_text())
    assert doc["argv"][0] == "select-slice"
    assert doc["spans"]
