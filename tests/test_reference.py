"""Benchmark workloads, run in process, against their committed references.

``perfbench/workloads.py`` defines each workload's config and command line
and ``perfbench/reference/`` holds the accepted outputs; the same check the
benchmark applies to its children (``failed_keys``) runs here on the
``ddmod`` command line, so table-1 outputs are pinned without a child process.
Seed 0 of every workload runs, and every reference seed (0-9) of the cheap
``psd-guard``, which also pins the guard search's cost: at most
``MAX_ESTIMATES`` Welch estimates per family.  Nothing under ``perfbench/`` is
written.
"""

import sys
from pathlib import Path

import pytest

from ddmod import harness

from oracles import record_psd_estimates

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from workloads import WORKLOADS, child_rows, failed_keys, load_reference  # noqa: E402

#: Most Welch estimates one family's guard search makes on a ``psd-guard``
#: reference seed (seed 1, OTFS: counts 0, 34, 29, 30 and 31).
MAX_ESTIMATES = 5


def check_against_reference(name, seed, tmp_path, capsys, monkeypatch):
    workload = WORKLOADS[name]
    config, out = tmp_path / "exp.cfg", tmp_path / "out.csv"
    config.write_text(workload.config_text(seed), encoding="utf-8")
    estimates = record_psd_estimates(monkeypatch)
    assert harness.main(workload.cli_args(str(config), str(out))) == 0
    rows = child_rows(workload, capsys.readouterr().out, out.read_text(encoding="utf-8"))
    reference = load_reference(workload, seed)
    assert reference is not None
    assert failed_keys(workload, rows, reference) == []
    for wf in workload.waveforms if workload.kind == "psd" else ():
        assert 1 <= sum(tag[0] == wf for tag, _ in estimates) <= MAX_ESTIMATES


@pytest.mark.parametrize("name", WORKLOADS)
def test_seed_0_matches_its_reference(tmp_path, capsys, monkeypatch, name):
    check_against_reference(name, 0, tmp_path, capsys, monkeypatch)


@pytest.mark.parametrize("seed", range(1, 10))
def test_psd_guard_seed_matches_its_reference(tmp_path, capsys, monkeypatch, seed):
    check_against_reference("psd-guard", seed, tmp_path, capsys, monkeypatch)
