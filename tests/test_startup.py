"""What a fresh interpreter loads and starts: `import bodycomp` loads no
module, each command loads only the modules it runs, and the CLI starts
OpenBLAS with one thread. Each check runs in a new interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bodycomp import build_phantom, write_volume

ROOT = Path(__file__).resolve().parents[1]


def _python(code, *args, env=None):
    """stdout of ``python -c code args``, with ``src`` on the path."""
    env = {**(os.environ if env is None else env), "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_the_package_loads_no_module():
    out = _python(
        "import json, sys, bodycomp\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in ('bodycomp', 'numpy'))))"
    )
    assert json.loads(out) == ["bodycomp"]


def test_every_public_name_is_its_module_object():
    out = _python(
        "import importlib, json, bodycomp\n"
        "wrong = [n for n in bodycomp.__all__ if getattr(bodycomp, n) is not getattr("
        "importlib.import_module('bodycomp.' + bodycomp._HOMES[n]), n)]\n"
        "print(json.dumps([wrong, sorted(set(bodycomp.__all__) - set(dir(bodycomp)))]))"
    )
    assert json.loads(out) == [[], []]
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        import bodycomp

        bodycomp.no_such_name


# the bodycomp modules each command loads, besides the package and the CLI
_BASE = {"bodycomp.errors", "bodycomp.io", "bodycomp.model"}
_LOADS = {
    "measure": _BASE | {"bodycomp.measures", "bodycomp.regions"},
    "evaluate": _BASE | {"bodycomp.evaluation", "bodycomp.measures", "bodycomp.regions"},
    "select-slice": _BASE | {"bodycomp.regions"},
    "sat-skin": _BASE | {"bodycomp.postprocess"},
    "mf-filter": _BASE | {"bodycomp.postprocess"},
    "cohort": _BASE | {"bodycomp.cohort"},
}

# run the CLI as ``python -m bodycomp.cli`` does; argv[1] gets the modules loaded
_RUN_CLI = """
import json, runpy, sys
listing, sys.argv = sys.argv[1], ["bodycomp", *sys.argv[2:]]
try:
    runpy.run_module("bodycomp.cli", run_name="__main__")
except SystemExit as exc:
    code = exc.code
with open(listing, "w") as fh:
    json.dump([code, sorted(m for m in sys.modules if m.startswith("bodycomp"))], fh)
"""


def _argv(name, tmp_path):
    d = str(tmp_path)
    return {
        "measure": ["measure", "--ct", f"{d}/ct.bcv", "--tissue", f"{d}/tissue.bcv",
                    "--vertebrae", f"{d}/vertebrae.bcv", "--out", f"{d}/measured"],
        "evaluate": ["evaluate", "--gt", f"{d}/tissue.bcv", "--pred", f"{d}/tissue.bcv",
                     "--ct", f"{d}/ct.bcv", "--vertebrae", f"{d}/vertebrae.bcv", "--out", f"{d}/eval"],
        "select-slice": ["select-slice", "--vertebrae", f"{d}/vertebrae.bcv", "--level", "L3"],
        "sat-skin": ["postprocess", "sat-skin", "--ct", f"{d}/ct.bcv", "--mask", f"{d}/tissue.bcv",
                     "--out", f"{d}/out.bcv"],
        "mf-filter": ["postprocess", "mf-filter", "--ct", f"{d}/ct.bcv", "--mask", f"{d}/tissue.bcv",
                      "--out", f"{d}/out.bcv"],
        "cohort": ["cohort", "--results", f"{d}/measured", "--demographics", f"{d}/cohort.csv",
                   "--min-group", "1", "--out", f"{d}/cohort"],
    }[name]


@pytest.mark.parametrize("command", list(_LOADS))
def test_each_command_loads_only_the_modules_it_runs(tmp_path, command):
    ph = build_phantom(nx=32, ny=32, nz=12, subject_id="s1")
    for name in ("ct", "tissue", "vertebrae"):
        write_volume(getattr(ph, name), tmp_path / f"{name}.bcv")
    if command == "cohort":
        _python(_RUN_CLI, tmp_path / "unused.json", *_argv("measure", tmp_path))
        (tmp_path / "cohort.csv").write_text("subject_id,age_years,sex,race,height_m\ns1,50,F,a,1.6\n")
    listing = tmp_path / "modules.json"
    _python(_RUN_CLI, listing, *_argv(command, tmp_path))
    code, loaded = json.loads(listing.read_text())
    assert code == 0
    # runpy runs bodycomp.cli as __main__, not under its own name
    assert set(loaded) - {"bodycomp", "bodycomp.cli"} == _LOADS[command]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc")
def test_the_cli_starts_openblas_with_one_thread():
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    out = _python(
        "import json, os, bodycomp.cli\n"
        "print(json.dumps([len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS']]))",
        env=env,
    )
    assert json.loads(out) == [1, "1"]


def test_a_callers_openblas_setting_is_kept():
    out = _python(
        "import os, bodycomp.cli\nprint(os.environ['OPENBLAS_NUM_THREADS'])",
        env={**os.environ, "OPENBLAS_NUM_THREADS": "2"},
    )
    assert out == "2\n"
