"""The library runs on numpy alone: scipy is a test dependency, never imported by ddmod.

A source scan names any scipy import in ``src/ddmod`` by file and line, at
any nesting depth, and a child process that runs the ``run`` and ``psd``
commands must end with no scipy module loaded.  The numpy floor that
``pyproject.toml`` declares must have every numpy feature the library uses.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ddmod

PACKAGE = Path(ddmod.__file__).resolve().parent
DESK_LINES = "k = 32\nn = 8\no_s = 4\nb = 4\nfilter_len = 16\n"


def scipy_imports(path: Path) -> list[str]:
    """'file:line' of every import of scipy or a scipy submodule in one source file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name == "scipy" or name.startswith("scipy.") for name in names):
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_scan_finds_nested_imports(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("import numpy\n\ndef f():\n    import scipy.linalg as la\n"
                   "    class C:\n        from scipy import signal\n"
                   "from .scipy import x\nimport scipyx\n")
    assert scipy_imports(src) == ["mod.py:4", "mod.py:6"]


def test_library_source_imports_no_scipy():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    offenders = [hit for path in sources for hit in scipy_imports(path)]
    assert offenders == [], f"scipy imported in the library: {offenders}"


CHILD = """
import json, sys
from ddmod import harness
code = harness.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


@pytest.mark.parametrize("command", [
    ["run", "--config", "{cfg}", "--out", "{tmp}/run.csv"],
    ["psd", "--config", "{cfg}", "--out", "{tmp}/psd.csv"],
], ids=["run", "psd"])
def test_cli_never_loads_scipy(tmp_path, command):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(DESK_LINES + "waveforms = otfs, drufmc, ofdm-full, ofdm-onetap\n"
                   "snr_db = 10\nspeeds_kmh = 500\ntrials = 1\npsd_trials = 2\n")
    argv = [arg.format(cfg=cfg, tmp=tmp_path) for arg in command]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]))
    r = subprocess.run([sys.executable, "-c", CHILD, *argv], capture_output=True, text=True,
                       timeout=300, env=env, cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    code, loaded = json.loads(r.stdout.splitlines()[-1])
    assert code == 0
    assert loaded == []


def test_declared_numpy_floor_has_fft_out():
    # the Welch estimate transforms in place with np.fft.fft(..., out=), new in numpy 2.0
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    floor = re.search(r'"numpy>=([0-9.]+)"', pyproject)
    assert floor, "pyproject.toml declares no numpy floor"
    assert tuple(int(part) for part in floor.group(1).split(".")) >= (2, 0)
