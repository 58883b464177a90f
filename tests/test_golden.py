"""Golden CLI output: a four-waveform desk run must reproduce its CSV byte for byte.

The files under ``tests/golden/`` were written by the dense-channel
implementation, so they pin the path-sparse kernels to its results at the
CSV's 10 significant digits, for the ideal and the raised-cosine pulse.
The same desk ``run`` and a desk ``psd`` must also write the same outputs
with every dense reference made to raise: no output depends on them.
"""

from pathlib import Path

import pytest

from ddmod import harness, ofdm

from oracles import fence_dense_references

GOLDEN = Path(__file__).resolve().parent / "golden"

CONFIG = """waveforms = otfs, drufmc, ofdm-full, ofdm-onetap
speeds_kmh = 500
snr_db = 20
trials = 1
seed = 11
pulse = {pulse}
"""


def run_cli(tmp_path, pulse, command="run"):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(CONFIG.format(pulse=pulse))
    out = tmp_path / "rows.csv"
    code = harness.main([command, "--config", str(cfg), "--out", str(out)])
    return code, out


@pytest.mark.parametrize("pulse", ["ideal", "rrc"])
def test_run_csv_matches_golden(tmp_path, monkeypatch, pulse):
    monkeypatch.delenv("DDMOD_THREADS", raising=False)
    code, out = run_cli(tmp_path, pulse)
    assert code == 0
    assert out.read_bytes() == (GOLDEN / f"run_{pulse}.csv").read_bytes()


def test_failed_cell_reports_traceback(tmp_path, monkeypatch, capsys):
    def exploding_onetap_sinr(ft, cfg, noise_var):
        raise RuntimeError("one-tap SINR unavailable")

    monkeypatch.delenv("DDMOD_THREADS", raising=False)
    monkeypatch.setattr(ofdm, "ofdm_onetap_sinr", exploding_onetap_sinr)
    code, out = run_cli(tmp_path, "ideal")
    assert code == 1
    err = capsys.readouterr().err
    assert "row failed ('ofdm-onetap', 500.0, 0, 0)" in err
    assert "Traceback (most recent call last)" in err
    assert "in exploding_onetap_sinr" in err
    assert "RuntimeError: one-tap SINR unavailable" in err
    # the other cells are written exactly as in a clean run
    golden = (GOLDEN / "run_ideal.csv").read_text().splitlines(keepends=True)
    assert out.read_text() == "".join(ln for ln in golden if not ln.startswith("ofdm-onetap,"))


@pytest.mark.parametrize("command, pulse", [("run", "ideal"), ("run", "rrc"), ("psd", "ideal")])
def test_outputs_need_no_dense_reference(tmp_path, monkeypatch, capsys, command, pulse):
    monkeypatch.setenv("DDMOD_THREADS", "1")        # fenced in this process

    def run():
        code, out = run_cli(tmp_path, pulse, command)
        return code, out.read_bytes(), capsys.readouterr().out

    clean = run()
    fence_dense_references(monkeypatch)
    assert clean[0] == 0 and run() == clean
