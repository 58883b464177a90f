"""OFDM baselines: full multicarrier-multisymbol MMSE and one-tap FDE."""

from dataclasses import replace

import numpy as np
import pytest

from ddmod import channel as ch
from ddmod import ofdm
from ddmod.config import desk_config, live_rows
from ddmod.metrics import qpsk_grid, sinr_map

from oracles import crandn, invec, vec


def short_static_paths(cfg, n_taps=3):
    """Static channel whose memory fits inside the CP."""
    ts = cfg.sample_period_s
    rng = np.random.default_rng(1234)
    gains = crandn(rng, n_taps) * np.sqrt([0.7, 0.2, 0.1])
    return ch.PathSet(gains=gains, delays_s=np.arange(n_taps) * ts,
                      dopplers_hz=np.zeros(n_taps))


class TestFullEffectiveChannel:
    def test_ideal_channel_identity(self):
        cfg = desk_config()
        chan = ch.realize(ch.ideal_path(), cfg, with_cp=True)
        eff = ofdm.ofdm_full_effective_channel(chan, cfg)
        assert np.abs(eff - np.eye(cfg.k * cfg.n)).max() < 1e-10

    def test_probing_oracle(self):
        cfg = desk_config()
        rng = np.random.default_rng(2)
        chan = ch.realize(ch.sample_eva_paths(3, 500 / 3.6, cfg.f_c_hz), cfg, with_cp=True)
        eff = ofdm.ofdm_full_effective_channel(chan, cfg)
        for j in rng.choice(cfg.k * cfg.n, 8, replace=False):
            e = np.zeros(cfg.k * cfg.n)
            e[j] = 1.0
            s = ofdm.ofdm_modulate(invec(e, cfg.k), cfg)
            r = ofdm.apply_channel(s, chan, 0.0)
            col = vec(ofdm.ofdm_demodulate(r, cfg))
            rel = np.linalg.norm(col - eff[:, j]) / np.linalg.norm(eff[:, j])
            assert rel < 1e-9

    def test_block_diagonal_structure(self):
        cfg = desk_config(n=4)
        chan = ch.realize(ch.sample_eva_paths(4, 500 / 3.6, cfg.f_c_hz), cfg,
                          with_cp=True)
        eff = ofdm.ofdm_full_effective_channel(chan, cfg)
        k = cfg.k
        for i in range(4):
            for j in range(4):
                if i != j:
                    blk = eff[i * k:(i + 1) * k, j * k:(j + 1) * k]
                    assert np.sum(np.abs(blk) ** 2) < 1e-20


class TestOneTapFde:
    def test_exact_recovery_on_ideal_channel(self):
        cfg = desk_config()
        rng = np.random.default_rng(5)
        chan = ch.realize(ch.ideal_path(), cfg, with_cp=True)
        x = qpsk_grid(rng, cfg.k, cfg.n)
        r = ofdm.apply_channel(ofdm.ofdm_modulate(x, cfg), chan, 0.0)
        y = ofdm.ofdm_demodulate(r, cfg)
        est = ofdm.ofdm_onetap_fde(y, ofdm.per_symbol_ft_channel(chan, cfg), cfg, noise_var=0.0)
        assert np.abs(est - x).max() < 1e-10

    def test_mmse_shrinks_to_zero_in_heavy_noise(self):
        cfg = desk_config()
        rng = np.random.default_rng(6)
        chan = ch.realize(ch.ideal_path(), cfg, with_cp=True)
        y = crandn(rng, cfg.k, cfg.n)
        est = ofdm.ofdm_onetap_fde(y, ofdm.per_symbol_ft_channel(chan, cfg), cfg, noise_var=1e9)
        assert np.abs(est).max() < 1e-6

    def test_onetap_sinr_never_beats_full_mmse(self):
        cfg = desk_config()
        sigma2 = 1e-2
        for seed in [0, 1]:
            chan = ch.realize(ch.sample_eva_paths(seed, 500 / 3.6, cfg.f_c_hz),
                              cfg, with_cp=True)
            full = sinr_map(ofdm.ofdm_full_effective_channel(chan, cfg), sigma2, cfg)
            onetap = ofdm.ofdm_onetap_sinr(ofdm.per_symbol_ft_channel(chan, cfg), cfg, sigma2)
            assert np.all(onetap <= full * (1 + 1e-9))

    def test_high_doppler_strictly_degrades_onetap(self):
        cfg = desk_config()
        sigma2 = 1e-3
        chan = ch.realize(ch.sample_eva_paths(7, 500 / 3.6, cfg.f_c_hz), cfg, with_cp=True)
        full = sinr_map(ofdm.ofdm_full_effective_channel(chan, cfg), sigma2, cfg)
        onetap = ofdm.ofdm_onetap_sinr(ofdm.per_symbol_ft_channel(chan, cfg), cfg, sigma2)
        assert np.all(onetap < full)

    def test_static_channel_within_cp_matches_full_mmse(self):
        # with no Doppler and the memory inside the CP the channel is exactly
        # diagonalized, so scalar equalization is optimal: agreement per bin
        cfg = desk_config()
        paths = short_static_paths(cfg)
        chan = ch.realize(paths, cfg, with_cp=True)
        assert chan.l_ch - 1 <= cfg.n_cp
        sigma2 = 1e-2
        full = sinr_map(ofdm.ofdm_full_effective_channel(chan, cfg), sigma2, cfg)
        onetap = ofdm.ofdm_onetap_sinr(ofdm.per_symbol_ft_channel(chan, cfg), cfg, sigma2)
        gap_db = np.abs(10 * np.log10(full) - 10 * np.log10(onetap))
        assert gap_db.max() < 0.1

    def test_tx_guard_nulling_zeroes_guard_bins(self):
        # transmitter-side nulling removes the guard columns entirely, so the
        # guard bins report zero SINR and contribute no interference
        cfg = desk_config(n_guard=4, guard_nulling="tx")
        chan = ch.realize(ch.sample_eva_paths(9, 50 / 3.6, cfg.f_c_hz), cfg, with_cp=True)
        eff = ofdm.ofdm_full_effective_channel(chan, cfg)
        smap = sinr_map(eff, 0.01, cfg)
        assert np.all(smap[:4, :] == 0)
        assert np.all(smap[-4:, :] == 0)
        assert np.all(smap[4:-4, :] > 0)
        # accounting-only mode keeps the full grid active
        acc = ofdm.ofdm_full_effective_channel(chan, replace(cfg, guard_nulling="accounting"))
        assert np.all(sinr_map(acc, 0.01, cfg) > 0)

    def test_mmse_recovers_static_channel_without_noise(self):
        cfg = desk_config()
        rng = np.random.default_rng(8)
        chan = ch.realize(short_static_paths(cfg), cfg, with_cp=True)
        x = qpsk_grid(rng, cfg.k, cfg.n)
        r = ofdm.apply_channel(ofdm.ofdm_modulate(x, cfg), chan, 0.0)
        y = ofdm.ofdm_demodulate(r, cfg)
        ft = ofdm.per_symbol_ft_channel(chan, cfg)
        assert np.abs(ofdm.ofdm_onetap_fde(y, ft, cfg, 0.0) - x).max() < 1e-8


@pytest.mark.parametrize("pulse", ["ideal", "rrc"])
@pytest.mark.parametrize("link", [ofdm.ofdm_onetap_link, ofdm.ofdm_full_link])
def test_tx_nulled_guard_rows_are_absent_at_the_receiver(link, pulse):
    # guards nulled at the transmitter are never sent, so both frequency-time
    # receivers estimate 0 there, and the guard-row symbols reach no score
    cfg = desk_config(n_guard=4, guard_nulling="tx", pulse=pulse)
    channel = ofdm.LinkChannel(ch.sample_eva_paths(5, 500 / 3.6, cfg.f_c_hz), cfg)
    live = live_rows(cfg.k, cfg.n_guard)
    guard = np.r_[:cfg.n_guard, cfg.k - cfg.n_guard:cfg.k]
    rng = np.random.default_rng(11)
    x = qpsk_grid(rng, cfg.k, cfg.n)
    redrawn = x.copy()
    redrawn[guard] = qpsk_grid(rng, guard.size, cfg.n)
    sinr, x_hat = link(x, channel, cfg, 0.01, seed=2)
    sinr_redrawn, x_hat_redrawn = link(redrawn, channel, cfg, 0.01, seed=2)
    assert np.all(x_hat[guard] == 0)
    assert np.array_equal(sinr_redrawn, sinr)
    assert np.array_equal(x_hat_redrawn[live], x_hat[live])
