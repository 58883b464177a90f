"""Every narrative script under ``demos/`` runs to completion against the library."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
QUICK = {"05_psd_guard_bands.py": ["--quick"]}


@pytest.mark.parametrize("script", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(script):
    r = subprocess.run([sys.executable, str(DEMOS / script), *QUICK.get(script, [])],
                       cwd=DEMOS.parent, capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr

