"""EVA/Jakes channel generation and the banded per-symbol matrices."""

import numpy as np
import pytest
from scipy import stats

from ddmod import channel as ch
from ddmod.config import desk_config

from oracles import crandn, dense_taps


class TestEvaPaths:
    def test_same_seed_same_paths(self):
        a = ch.sample_eva_paths(123, 50 / 3.6, 28e9)
        b = ch.sample_eva_paths(123, 50 / 3.6, 28e9)
        assert np.array_equal(a.gains, b.gains)
        assert np.array_equal(a.dopplers_hz, b.dopplers_hz)

    def test_zero_speed_zero_doppler(self):
        p = ch.sample_eva_paths(5, 0.0, 28e9)
        assert np.all(p.dopplers_hz == 0)

    def test_doppler_bound_and_max_value(self):
        # 500 km/h at 28 GHz: nu_max = f*v/c ~ 12.96-12.97 kHz
        v = 500 / 3.6
        nu_max = ch.max_doppler_hz(v, 28e9)
        assert nu_max == pytest.approx(28e9 * v / 299792458.0)
        assert nu_max == pytest.approx(12.96e3, rel=2e-3)
        for seed in range(50):
            p = ch.sample_eva_paths(seed, v, 28e9)
            assert np.all(np.abs(p.dopplers_hz) <= nu_max + 1e-9)

    def test_delays_sorted_and_standard_profile(self):
        p = ch.sample_eva_paths(0, 10.0, 28e9)
        assert p.gains.size == 9
        assert np.all(np.diff(p.delays_s) > 0)
        assert p.delays_s[0] == 0.0
        assert p.delays_s[-1] == pytest.approx(2510e-9)

    def test_unit_mean_energy_over_many_seeds(self):
        total = 0.0
        n = 10_000
        for s in range(n):
            total += np.sum(np.abs(ch.sample_eva_paths((99, s), 500 / 3.6, 28e9).gains) ** 2)
        assert 0.97 < total / n < 1.03

    def test_doppler_follows_arcsine_density(self):
        v = 500 / 3.6
        nu_max = ch.max_doppler_hz(v, 28e9)
        draws = [ch.sample_eva_paths((7, s), v, 28e9).dopplers_hz / nu_max for s in range(1400)]
        sample = np.concatenate(draws)
        ks = stats.kstest(sample, lambda x: 0.5 + np.arcsin(np.clip(x, -1, 1)) / np.pi)
        assert ks.statistic < 0.02


class TestMaterializeTaps:
    def test_single_zero_delay_path_collapses(self):
        cfg = desk_config(n=3)
        real = ch.materialize_taps(ch.ideal_path(), cfg, cols=40)
        assert real.l_ch == 1
        assert np.abs(dense_taps(real) - 1.0).max() < 1e-12   # same for every (i, r)
        assert np.abs(np.abs(real.phase) - 1.0).max() < 1e-12

    def test_pure_doppler_is_unimodular(self):
        cfg = desk_config(n=4)
        paths = ch.PathSet(gains=np.array([1.0 + 0j]), delays_s=np.zeros(1),
                           dopplers_hz=np.array([5e3]))
        real = ch.materialize_taps(paths, cfg, cols=50)
        assert np.abs(np.abs(dense_taps(real)) - 1.0).max() < 1e-12
        assert np.abs(np.abs(real.phase) - 1.0).max() < 1e-12

    def test_two_path_scalar_formula_oracle(self):
        # direct scalar evaluation of the tap formula at random (i, r, l)
        rows, n_sym = 64, 5
        cfg = desk_config(n=n_sym)
        ts = cfg.sample_period_s
        paths = ch.PathSet(
            gains=np.array([0.8 + 0.3j, -0.2 + 0.5j]),
            delays_s=np.array([0.0, 5.2 * ts]),
            dopplers_hz=np.array([3.1e3, -8.7e3]),
        )
        real = ch.materialize_taps(paths, cfg, cols=rows)
        dense = dense_taps(real)
        rng = np.random.default_rng(11)
        for _ in range(20):
            i0 = rng.integers(0, n_sym)
            r0 = rng.integers(0, rows)
            l0 = rng.integers(0, real.l_ch)
            i, r, ell = i0 + 1, r0 + 1, l0 + 1
            expected = 0.0
            for h_p, tau, nu in zip(paths.gains, paths.delays_s, paths.dopplers_hz):
                pulse = 1.0 if (ell - 1) == round(tau / ts) else 0.0
                expected += h_p * pulse * np.exp(
                    2j * np.pi * nu * ((ell + r + i - 1) * ts - ts / 2.0)
                )
            assert abs(dense[i0, r0, l0] - expected) < 1e-12

    def test_rrc_pulse_spreads_delay(self):
        cfg = desk_config(pulse="rrc", n=1)
        ts = cfg.sample_period_s
        paths = ch.PathSet(gains=np.array([1.0 + 0j]),
                           delays_s=np.array([6.4 * ts]), dopplers_hz=np.zeros(1))
        real = ch.materialize_taps(paths, cfg, cols=16)
        peak = int(round(6.4))
        mags = np.abs(dense_taps(real)[0, 0, :])
        assert mags.argmax() == peak
        assert mags[peak - 1] > 0 and mags[peak + 1] > 0   # fractional delay leaks
        # raised cosine at integer offsets from an integer delay is a unit tap
        paths_int = ch.PathSet(gains=np.array([1.0 + 0j]),
                               delays_s=np.array([6.0 * ts]), dopplers_hz=np.zeros(1))
        real_int = ch.materialize_taps(paths_int, cfg, cols=16)
        expect = np.zeros(real_int.l_ch)
        expect[6] = 1.0
        assert np.abs(dense_taps(real_int)[0, 0, :] - expect).max() < 1e-12


class TestChannelMatrices:
    def test_identity_channel_is_identity_over_zero_rows(self):
        cfg = desk_config()
        mats = ch.realize(ch.ideal_path(), cfg, with_cp=True)
        m = mats.matrix(0)
        cols = cfg.k * cfg.o_s + cfg.n_cp
        assert m.shape == (cols, cols)      # l_ch = 1, no extra rows
        assert np.abs(m - np.eye(cols)).max() < 1e-12

    def test_band_structure(self):
        cfg = desk_config()
        paths = ch.sample_eva_paths(1, 500 / 3.6, cfg.f_c_hz)
        mats = ch.realize(paths, cfg, with_cp=False)
        m = mats.matrix(2)
        l_ch = mats.l_ch
        rows, cols = m.shape
        assert rows == cols + l_ch - 1
        for r in range(rows):
            for c in range(cols):
                if not (0 <= r - c <= l_ch - 1):
                    assert m[r, c] == 0

    def test_matrix_matches_convolution_sum(self):
        cfg = desk_config()
        rng = np.random.default_rng(2)
        paths = ch.sample_eva_paths(3, 200 / 3.6, cfg.f_c_hz)
        mats = ch.realize(paths, cfg, with_cp=False)
        i = 1
        m = mats.matrix(i)
        x = crandn(rng, m.shape[1])
        h = dense_taps(mats)[i]
        direct = np.zeros(m.shape[0], dtype=complex)
        for r in range(direct.size):
            for ell in range(mats.l_ch):
                c = r - ell
                if 0 <= c < x.size:
                    direct[r] += h[r, ell] * x[c]
        assert np.abs(m @ x - direct).max() < 1e-12

    def test_shapes_for_both_modulations(self):
        cfg = desk_config()
        paths = ch.sample_eva_paths(4, 50 / 3.6, cfg.f_c_hz)
        with_cp = ch.realize(paths, cfg, with_cp=True)
        no_cp = ch.realize(paths, cfg, with_cp=False)
        l_ch = with_cp.l_ch
        ko = cfg.k * cfg.o_s
        assert with_cp.matrix(0).shape == (ko + cfg.n_cp + l_ch - 1, ko + cfg.n_cp)
        assert no_cp.matrix(0).shape == (ko + l_ch - 1, ko)
        assert len(with_cp) == cfg.n


    def test_short_realization_rejected(self):
        cfg = desk_config()
        real = ch.realize(ch.sample_eva_paths(4, 50 / 3.6, cfg.f_c_hz), cfg, with_cp=False)
        with pytest.raises(ValueError, match="dimension mismatch"):
            ch.channel_matrices(real, cfg, with_cp=True)

