"""Delay-Doppler CP chain: reconstruction, channel application, effective matrix."""

import numpy as np
import pytest

from ddmod import channel as ch
from ddmod import otfs
from ddmod.config import ModemConfig, desk_config
from ddmod.metrics import qpsk_grid
from ddmod.transforms import dft_matrix, invec, oversampled_dft, vec


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def probe_column(cfg, chan, j):
    e = np.zeros(cfg.k * cfg.n)
    e[j] = 1.0
    s = otfs.otfs_modulate(invec(e, cfg.k), cfg)
    r = otfs.apply_channel(s, chan, 0.0)
    return vec(otfs.otfs_demodulate(r, cfg))


class TestModulate:
    def test_zero_grid_zero_signal(self):
        cfg = desk_config()
        s = otfs.otfs_modulate(np.zeros((cfg.k, cfg.n)), cfg)
        assert np.all(s == 0)
        assert s.size == (cfg.k * cfg.o_s + cfg.n_cp) * cfg.n

    def test_no_cp_single_symbol_is_oversampled_ifft(self):
        cfg = desk_config(n=1, n_cp=0)
        rng = np.random.default_rng(0)
        x = crandn(rng, cfg.k, 1)
        s = otfs.otfs_modulate(x, cfg)
        w = oversampled_dft(cfg.k, cfg.o_s)
        f_n1 = dft_matrix(1)
        expected = vec(w.conj().T @ dft_matrix(cfg.k) @ x @ f_n1.conj().T)
        assert np.abs(s - expected).max() < 1e-12

    def test_reference_scale_signal_length(self):
        # CP duration 0.586 us at the full configuration gives 90 samples
        cfg = ModemConfig()
        assert cfg.n_cp == 90
        x = np.zeros((cfg.k, cfg.n))
        assert otfs.otfs_modulate(x, cfg).size == (cfg.k * cfg.o_s + 90) * cfg.n


class TestApplyChannel:
    def test_identity_channel_pads_blocks(self):
        cfg = desk_config()
        rng = np.random.default_rng(1)
        # two-tap channel with an exact zero second tap keeps l_ch > 1
        paths = ch.PathSet(
            gains=np.array([1.0 + 0j, 0.0 + 0j]),
            delays_s=np.array([0.0, 3 * cfg.sample_period_s]),
            dopplers_hz=np.zeros(2),
        )
        chan = ch.realize(paths, cfg, with_cp=True)
        l_ch = chan.l_ch
        assert l_ch == 4
        x = qpsk_grid(rng, cfg.k, cfg.n)
        s = otfs.otfs_modulate(x, cfg)
        r = otfs.apply_channel(s, chan, noise_var=0.0)
        blk_in = cfg.k * cfg.o_s + cfg.n_cp
        blocks = invec(r, blk_in + l_ch - 1)
        assert np.abs(blocks[:blk_in, :] - invec(s, blk_in)).max() < 1e-12
        assert np.abs(blocks[blk_in:, :]).max() < 1e-12

    def test_noise_variance(self):
        cfg = desk_config(n=2)
        chan = ch.realize(ch.ideal_path(), cfg, with_cp=True)
        s = np.zeros((cfg.k * cfg.o_s + cfg.n_cp) * 2, dtype=complex)
        var, count = 0.0, 0
        for seed in range(40):
            r = otfs.apply_channel(s, chan, noise_var=0.25, seed=seed)
            var += np.sum(np.abs(r) ** 2)
            count += r.size
        assert var / count == pytest.approx(0.25, rel=0.02)


class TestDemodulate:
    def test_zero_in_zero_out(self):
        cfg = desk_config()
        r = np.zeros((cfg.k * cfg.o_s + cfg.n_cp + 5 - 1) * cfg.n)
        assert np.all(otfs.otfs_demodulate(r, cfg) == 0)

    def test_ideal_loopback_exact(self):
        cfg = desk_config()
        rng = np.random.default_rng(3)
        chan = ch.realize(ch.ideal_path(), cfg, with_cp=True)
        x = qpsk_grid(rng, cfg.k, cfg.n)
        r = otfs.apply_channel(otfs.otfs_modulate(x, cfg), chan, 0.0)
        assert np.abs(otfs.otfs_demodulate(r, cfg) - x).max() < 1e-10

    def test_linearity(self):
        cfg = desk_config(n=4)
        rng = np.random.default_rng(4)
        chan = ch.realize(ch.sample_eva_paths(5, 500 / 3.6, cfg.f_c_hz), cfg,
                          with_cp=True)

        def chain(x):
            return otfs.otfs_demodulate(
                otfs.apply_channel(otfs.otfs_modulate(x, cfg), chan, 0.0), cfg)

        x1 = crandn(rng, cfg.k, 4)
        x2 = crandn(rng, cfg.k, 4)
        a, b = 0.7 - 0.2j, -1.1 + 0.4j
        lhs = chain(a * x1 + b * x2)
        rhs = a * chain(x1) + b * chain(x2)
        assert np.abs(lhs - rhs).max() < 1e-10


class TestEffectiveChannel:
    def test_identity_on_ideal_channel(self):
        cfg = desk_config()
        chan = ch.realize(ch.ideal_path(), cfg, with_cp=True)
        eff = otfs.otfs_effective_channel(chan, cfg)
        assert np.abs(eff - np.eye(cfg.k * cfg.n)).max() < 1e-10

    def test_probing_oracle(self):
        cfg = desk_config()
        rng = np.random.default_rng(5)
        chan = ch.realize(ch.sample_eva_paths(6, 500 / 3.6, cfg.f_c_hz), cfg, with_cp=True)
        eff = otfs.otfs_effective_channel(chan, cfg)
        for j in rng.choice(cfg.k * cfg.n, 10, replace=False):
            col = eff[:, j]
            rel = np.linalg.norm(probe_column(cfg, chan, j) - col) / np.linalg.norm(col)
            assert rel < 1e-9

    def test_time_invariant_integer_delay_block_is_circulant(self):
        # a pure delay of O_s samples is one delay-bin cyclic shift per Doppler block
        cfg = desk_config(k=16, n=4, o_s=2, b=4, n_cp=8)
        paths = ch.PathSet(
            gains=np.array([1.0 + 0j]),
            delays_s=np.array([cfg.o_s * cfg.sample_period_s]),
            dopplers_hz=np.zeros(1),
        )
        chan = ch.realize(paths, cfg, with_cp=True)
        eff = otfs.otfs_effective_channel(chan, cfg)
        for n in range(cfg.n):
            block = eff[n * cfg.k:(n + 1) * cfg.k, n * cfg.k:(n + 1) * cfg.k]
            for row in range(1, cfg.k):
                assert np.abs(block[row] - np.roll(block[row - 1], 1)).max() < 1e-10
        # and the shift lands one bin below the diagonal
        mags = np.abs(eff[:cfg.k, :cfg.k])
        assert mags[1, 0] == pytest.approx(1.0, abs=1e-9)

    def test_noise_stays_white_through_receiver(self):
        # receive transform has orthonormal rows, so white noise stays white
        cfg = desk_config(k=16, n=2, o_s=2, b=4, n_cp=4)
        l_ch = 3
        block = cfg.k * cfg.o_s + cfg.n_cp + l_ch - 1
        w = oversampled_dft(cfg.k, cfg.o_s)
        f_k, f_n = dft_matrix(cfg.k), dft_matrix(cfg.n)
        t_col = f_k.conj().T @ w @ np.hstack([
            np.zeros((cfg.k * cfg.o_s, cfg.n_cp)),
            np.eye(cfg.k * cfg.o_s),
            np.zeros((cfg.k * cfg.o_s, l_ch - 1)),
        ])
        t_full = np.kron(f_n.T, t_col)
        # consistency: matches otfs_demodulate on random input
        rng = np.random.default_rng(6)
        r = crandn(rng, block * cfg.n)
        assert np.abs(t_full @ r - vec(otfs.otfs_demodulate(r, cfg))).max() < 1e-10
        # empirical covariance over 10^4 noise draws
        sigma2 = 0.5
        draws = np.sqrt(sigma2 / 2) * crandn(rng, block * cfg.n, 10_000)
        y = t_full @ draws
        cov = y @ y.conj().T / draws.shape[1]
        assert np.abs(cov - sigma2 * np.eye(cfg.k * cfg.n)).max() < 0.03 * sigma2

    def test_chain_matches_matrix_on_full_grid(self):
        cfg = desk_config(n=4)
        rng = np.random.default_rng(7)
        chan = ch.realize(ch.sample_eva_paths(9, 500 / 3.6, cfg.f_c_hz), cfg,
                          with_cp=True)
        eff = otfs.otfs_effective_channel(chan, cfg)
        x = qpsk_grid(rng, cfg.k, 4)
        y = otfs.otfs_demodulate(
            otfs.apply_channel(otfs.otfs_modulate(x, cfg), chan, 0.0), cfg)
        assert np.abs(vec(y) - eff @ vec(x)).max() < 1e-10
