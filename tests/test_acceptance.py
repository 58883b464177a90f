"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criterion 5a pins a clustering claim about arithmetic-mean net SINRs that the
implemented definitions provably cannot satisfy on selective channels at high
SNR (see its docstring and the README); it is asserted at the stated
tolerance anyway, so its failure is a faithful record, not a regression.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from ddmod import channel as ch
from ddmod import drufmc, ofdm, otfs
from ddmod.config import ModemConfig, desk_config
from ddmod.harness import ExperimentConfig, grid_point
from ddmod.metrics import (
    avg_spectral_efficiency,
    guard_count_for_threshold,
    mmse_detect,
    psd_estimate,
    qpsk_grid,
    sinr_map,
)
from ddmod.transforms import isfft

from oracles import dd_to_ft_kron, invec, seeded_frames, ufmc_stacked_precoder, vec


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


# -- criterion 1 --------------------------------------------------------------

def test_criterion_1_perfect_reconstruction():
    """Ideal single-tap channel, zero noise: exact delay-Doppler loopback."""
    start = time.perf_counter()
    cfg = desk_config()
    rng = np.random.default_rng(2024)
    chan = ch.realize(ch.ideal_path(), cfg, with_cp=True)
    x = qpsk_grid(rng, cfg.k, cfg.n)
    y = otfs.otfs_demodulate(
        otfs.apply_channel(otfs.otfs_modulate(x, cfg), chan, 0.0), cfg
    )
    err = np.abs(y - x).max()
    elapsed = time.perf_counter() - start
    report(1, err < 1e-10 and elapsed < 1.0, f"max err {err:.2e}, {elapsed:.2f} s")
    assert err < 1e-10
    assert elapsed < 1.0


# -- criterion 2 --------------------------------------------------------------

def test_criterion_2_chain_matrix_probing():
    """Effective channels match unit-vector probing of the noiseless chains."""
    start = time.perf_counter()
    cfg = desk_config()
    rng = np.random.default_rng(77)
    worst = 0.0
    for seed in range(5):
        paths = ch.sample_eva_paths((500, seed), 500 / 3.6, cfg.f_c_hz)
        chan_cp = ch.realize(paths, cfg, with_cp=True)
        chan_no = ch.realize(paths, cfg, with_cp=False)
        eff_o = otfs.otfs_effective_channel(chan_cp, cfg)
        eff_u = drufmc.drufmc_effective_channel(chan_no, cfg)
        for j in rng.choice(cfg.k * cfg.n, 10, replace=False):
            e = np.zeros(cfg.k * cfg.n)
            e[j] = 1.0
            x = invec(e, cfg.k)
            col = vec(otfs.otfs_demodulate(
                otfs.apply_channel(otfs.otfs_modulate(x, cfg), chan_cp, 0.0), cfg))
            worst = max(worst, np.linalg.norm(col - eff_o[:, j]) / np.linalg.norm(eff_o[:, j]))
            col = vec(drufmc.drufmc_demodulate(
                drufmc.apply_channel(drufmc.drufmc_modulate(x, cfg), chan_no, 0.0), cfg))
            worst = max(worst, np.linalg.norm(col - eff_u[:, j]) / np.linalg.norm(eff_u[:, j]))
    elapsed = time.perf_counter() - start
    report(2, worst < 1e-9 and elapsed < 30, f"worst rel err {worst:.2e}, {elapsed:.1f} s")
    assert worst < 1e-9
    assert elapsed < 30


# -- criterion 3 --------------------------------------------------------------

def test_criterion_3_dual_construction():
    """Procedural overlap modulation equals the stacked-matrix route on the grid."""
    start = time.perf_counter()
    worst = 0.0
    for k in (8, 16):
        for o_s in (1, 2):
            for b in (1, 2, 4):
                for filter_len in (1, 3, 5):
                    for n in (1, 2, 4):
                        cfg = desk_config(k=k, o_s=o_s, b=b, n=n,
                                          filter_len=filter_len, filter_att_db=60.0)
                        rng = np.random.default_rng((k, o_s, b, filter_len, n))
                        x = qpsk_grid(rng, k, n)
                        s1 = drufmc.drufmc_modulate(x, cfg)
                        s2 = ufmc_stacked_precoder(cfg) @ dd_to_ft_kron(cfg) @ vec(x)
                        worst = max(worst, np.abs(s1 - s2).max())
    elapsed = time.perf_counter() - start
    report(3, worst < 1e-12 and elapsed < 10, f"worst err {worst:.2e}, {elapsed:.1f} s")
    assert worst < 1e-12
    assert elapsed < 10


# -- criterion 4 --------------------------------------------------------------

def test_criterion_4_guard_count_reproduction():
    """Full-scale guard counts against the -30 dB out-of-band threshold."""
    start = time.perf_counter()
    cfg = ModemConfig()

    def gen(waveform):
        def for_guard(n_guard):
            def frame(rng):
                x_ft = isfft(qpsk_grid(rng, cfg.k, cfg.n))
                if n_guard:
                    x_ft[:n_guard, :] = 0
                    x_ft[cfg.k - n_guard:, :] = 0
                if waveform == "drufmc":
                    return drufmc.ufmc_modulate_ft(x_ft, cfg)
                return ofdm.ofdm_modulate(x_ft, cfg)
            return frame
        return for_guard

    two_ng = {}
    for wf in ("otfs", "drufmc"):
        for_guard = gen(wf)
        two_ng[wf] = 2 * guard_count_for_threshold(
            lambda n_guard: psd_estimate(seeded_frames(for_guard(n_guard), trials=100, seed=1234), cfg),
            cfg,
        )
    elapsed = time.perf_counter() - start
    ok = abs(two_ng["otfs"] - 60) <= 4 and abs(two_ng["drufmc"] - 36) <= 4 and elapsed < 300
    report(4, ok, f"2N_G otfs {two_ng['otfs']} (target 60+-4), "
                  f"drufmc {two_ng['drufmc']} (target 36+-4), {elapsed:.0f} s")
    assert abs(two_ng["otfs"] - 60) <= 4
    assert abs(two_ng["drufmc"] - 36) <= 4
    assert elapsed < 300


# -- criteria 5 and 6 share one paired sweep ----------------------------------

SNRS = (0.0, 10.0, 20.0, 30.0)
SPEEDS = (50.0, 500.0)
TRIALS = 20
MMSE_WAVEFORMS = ("otfs", "drufmc", "ofdm-full")
# full-scale guard counts (criterion 4 anchors 60 and 36) scaled to K=32
GUARDS = {"otfs": 8, "ofdm-full": 8, "ofdm-onetap": 8, "drufmc": 5}


@pytest.fixture(scope="module")
def paired_sweep():
    cfg = desk_config()
    xi_cp = cfg.cp_efficiency()
    assert xi_cp == pytest.approx(0.9343, abs=5e-4)
    xi = {"otfs": xi_cp, "ofdm-full": xi_cp, "ofdm-onetap": xi_cp, "drufmc": 1.0}

    exp = ExperimentConfig(modem=cfg, seed=42)
    start = time.perf_counter()
    net = {}   # (wf, speed, snr) -> list of per-trial mean linear SINR
    se = {}    # (wf, speed, snr) -> list of per-trial average SE
    for speed in SPEEDS:
        for si, snr in enumerate(SNRS):
            for trial in range(TRIALS):
                paths = grid_point(exp, speed, si, trial).paths
                chan_cp = ch.realize(paths, cfg, with_cp=True)
                chan_no = ch.realize(paths, cfg, with_cp=False)
                sigma2 = 1.0 / 10 ** (snr / 10)
                maps = {
                    "otfs": sinr_map(otfs.otfs_effective_channel(chan_cp, cfg), sigma2, cfg),
                    "drufmc": sinr_map(drufmc.drufmc_effective_channel(chan_no, cfg), sigma2, cfg),
                    "ofdm-full": sinr_map(ofdm.ofdm_full_effective_channel(chan_cp, cfg), sigma2, cfg),
                    "ofdm-onetap": ofdm.ofdm_onetap_sinr(
                        ofdm.per_symbol_ft_channel(chan_cp, cfg), cfg, sigma2
                    ),
                }
                for wf, smap in maps.items():
                    key = (wf, speed, snr)
                    net.setdefault(key, []).append(smap.mean())
                    se.setdefault(key, []).append(
                        avg_spectral_efficiency(smap, xi[wf], GUARDS[wf])
                    )
    elapsed = time.perf_counter() - start
    net_db = {k: 10 * np.log10(np.mean(v)) for k, v in net.items()}
    se_avg = {k: float(np.mean(v)) for k, v in se.items()}
    return net_db, se_avg, elapsed


def test_criterion_5a_full_mmse_waveforms_cluster(paired_sweep):
    """OTFS, DR-UFMC and OFDM-full net SINRs within 1.5 dB pairwise.

    Known-unattainable at the stated tolerance: the frequency-time and
    delay-Doppler effective channels are exactly unitarily related, so their
    mean per-bin MSE agrees, but the net SINR is the arithmetic mean of
    per-bin SINRs, which on a selective channel is dominated by the strongest
    frequency-time bins and separates the receivers by several dB at high
    SNR; the CP-less chain additionally loses its discarded block tails.
    Asserted as stated; the failure is the measured truth of the metric.
    """
    net_db, _, elapsed = paired_sweep
    worst = 0.0
    worst_at = None
    for speed in SPEEDS:
        for snr in SNRS:
            vals = [net_db[(wf, speed, snr)] for wf in MMSE_WAVEFORMS]
            spread = max(vals) - min(vals)
            if spread > worst:
                worst, worst_at = spread, (speed, snr)
    ok = worst <= 1.5 and elapsed < 600
    report("5a", ok, f"max pairwise net-SINR spread {worst:.2f} dB at {worst_at}, "
                     f"sweep {elapsed:.0f} s")
    assert worst <= 1.5
    assert elapsed < 600


def test_criterion_5b_speed_insensitivity(paired_sweep):
    """Each full-MMSE waveform within 1.5 dB across 50 and 500 km/h."""
    net_db, _, _ = paired_sweep
    worst, worst_at = 0.0, None
    for wf in MMSE_WAVEFORMS:
        for snr in SNRS:
            gap = abs(net_db[(wf, 50.0, snr)] - net_db[(wf, 500.0, snr)])
            if gap > worst:
                worst, worst_at = gap, (wf, snr)
    ok = worst <= 1.5
    report("5b", ok, f"max speed gap {worst:.2f} dB at {worst_at}")
    assert worst <= 1.5


def test_criterion_5c_onetap_collapses_at_high_doppler(paired_sweep):
    """One-tap FDE at 500 km/h at least 5 dB below OFDM-full at 30 dB SNR."""
    net_db, _, _ = paired_sweep
    gap = net_db[("ofdm-full", 500.0, 30.0)] - net_db[("ofdm-onetap", 500.0, 30.0)]
    report("5c", gap >= 5.0, f"OFDM-full above one-tap by {gap:.2f} dB")
    assert gap >= 5.0


def test_criterion_6_spectral_efficiency_ordering(paired_sweep):
    """DR-UFMC beats OTFS everywhere; OFDM-full at least matches OTFS."""
    _, se_avg, _ = paired_sweep
    margins_dru = []
    margins_ofdm = []
    for speed in SPEEDS:
        for snr in SNRS:
            margins_dru.append(se_avg[("drufmc", speed, snr)] - se_avg[("otfs", speed, snr)])
            margins_ofdm.append(se_avg[("ofdm-full", speed, snr)] - se_avg[("otfs", speed, snr)])
    ok = min(margins_dru) > 0 and min(margins_ofdm) >= 0
    report(6, ok, f"min SE margin DR-UFMC vs OTFS {min(margins_dru):+.3f}, "
                  f"OFDM-full vs OTFS {min(margins_ofdm):+.3f} bit/s/Hz")
    assert min(margins_dru) > 0
    assert min(margins_ofdm) >= 0


# -- criterion 7 --------------------------------------------------------------

def test_criterion_7_mmse_sinr_unit_oracles():
    """Detector and SINR match dense-inverse computation; SINR monotone in noise."""
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    c = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    sigma2 = 0.21
    a_inv = np.linalg.inv(c @ c.conj().T + sigma2 * np.eye(4))
    det_err = np.abs(
        mmse_detect(c, y, sigma2) - np.array([c[:, j].conj() @ a_inv @ y for j in range(4)])
    ).max()
    sinr_expected = np.empty(4)
    for j in range(4):
        d = a_inv @ c[:, j]
        num = np.abs(d.conj() @ c[:, j]) ** 2
        inter = sum(np.abs(d.conj() @ c[:, l]) ** 2 for l in range(4) if l != j)
        sinr_expected[j] = num / (inter + sigma2 * np.linalg.norm(d) ** 2)
    sinr_err = np.abs(sinr_map(c, sigma2)[:, 0] - sinr_expected).max()

    monotone = True
    prev = None
    for s2 in [1e-3, 1e-2, 1e-1, 1.0, 10.0]:
        vals = sinr_map(c, s2)
        if prev is not None and not np.all(vals <= prev * (1 + 1e-9)):
            monotone = False
        prev = vals
    elapsed = time.perf_counter() - start
    ok = det_err < 1e-10 and sinr_err < 1e-10 and monotone and elapsed < 1.0
    report(7, ok, f"detector err {det_err:.1e}, SINR err {sinr_err:.1e}, "
                  f"monotone {monotone}, {elapsed:.2f} s")
    assert det_err < 1e-10
    assert sinr_err < 1e-10
    assert monotone
    assert elapsed < 1.0


# -- criterion 8 --------------------------------------------------------------

def test_criterion_8_cli_determinism(tmp_path):
    """Two identical CLI runs produce byte-identical CSV output."""
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "k = 32\nn = 8\no_s = 4\nb = 4\nfilter_len = 16\n"
        "waveforms = otfs, drufmc, ofdm-full, ofdm-onetap\n"
        "snr_db = 10\nspeeds_kmh = 500\ntrials = 2\nseed = 3\n"
    )
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        res = subprocess.run(
            [sys.executable, "-m", "ddmod", "run", "--config", str(cfg), "--out", str(out)],
            capture_output=True, text=True, timeout=600,
        )
        assert res.returncode == 0, res.stderr
        outs.append(out.read_bytes())
    identical = outs[0] == outs[1]
    report(8, identical, f"{len(outs[0])} bytes, identical={identical}")
    assert identical
