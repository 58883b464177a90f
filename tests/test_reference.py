"""Seed 0 of every benchmark workload, run in process, against its committed reference.

``perfbench/workloads.py`` defines each workload's config and command line
and ``perfbench/reference/`` holds the accepted outputs; the same check the
benchmark applies to its children (``failed_keys``) runs here on the
``ddmod`` command line, so table-1 outputs are pinned without a child process.
Nothing under ``perfbench/`` is written.
"""

import sys
from pathlib import Path

import pytest

from ddmod import harness

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from workloads import WORKLOADS, child_rows, failed_keys, load_reference  # noqa: E402


@pytest.mark.parametrize("name", WORKLOADS)
def test_seed_0_matches_its_reference(tmp_path, capsys, name):
    workload = WORKLOADS[name]
    config, out = tmp_path / "exp.cfg", tmp_path / "out.csv"
    config.write_text(workload.config_text(0), encoding="utf-8")
    assert harness.main(workload.cli_args(str(config), str(out))) == 0
    rows = child_rows(workload, capsys.readouterr().out, out.read_text(encoding="utf-8"))
    reference = load_reference(workload, 0)
    assert reference is not None
    assert failed_keys(workload, rows, reference) == []
