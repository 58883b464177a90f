"""MMSE detection, SINR/SE accounting, PSD estimation and guard search."""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import signal as sp_signal

from ddmod import channel as ch
from ddmod import drufmc, metrics, ofdm
from ddmod.config import ModemConfig, desk_config
from ddmod.harness import ExperimentConfig
from ddmod.metrics import (
    GuardSearchError,
    PsdEstimate,
    avg_spectral_efficiency,
    guard_count_for_threshold,
    mmse_detect,
    net_sinr,
    normalized_mse,
    oob_level_db,
    psd_estimate,
    qpsk_grid,
    sinr_map,
)
from ddmod.transforms import isfft

from oracles import crandn, frame_generator, linear_guard_scan, seeded_frames


def scipy_welch(x, cfg):
    """The reference Welch estimate, fftshifted like :class:`PsdEstimate`."""
    nper = min(4 * cfg.k * cfg.o_s, x.size)
    freqs, dens = sp_signal.welch(
        x, fs=cfg.sample_rate_hz, window="hann", nperseg=nper, noverlap=nper // 2,
        detrend=False, return_onesided=False, scaling="density",
    )
    return np.fft.fftshift(freqs), np.fft.fftshift(dens)


def guard_frames(cfg, family):
    """frame_fn_for_guard of one PSD family ("otfs" or "drufmc")."""
    exp = ExperimentConfig(modem=cfg)
    return lambda n_guard: frame_generator(exp, family, n_guard)


def guard_spectra(frame_fn_for_guard, cfg, trials, seed):
    """spectrum(n_guard): the PSD of ``trials`` seeded frames of ``frame_fn_for_guard(n_guard)``."""
    return lambda n_guard: psd_estimate(seeded_frames(frame_fn_for_guard(n_guard), trials, seed), cfg)


def search_outcome(search, *args):
    """Guard count of a search, or None where it raises GuardSearchError."""
    try:
        return search(*args)
    except GuardSearchError:
        return None


def stub_psd(cfg, oob_db) -> PsdEstimate:
    """A PSD with an in-band peak of 1 at 0 Hz and out-of-band bins at
    B/2 + (g + 1/2) delta_f, g = 0, 1, ..., holding the levels ``oob_db`` (dB)."""
    offsets = (np.arange(len(oob_db)) + 0.5) * cfg.delta_f_hz
    return PsdEstimate(freqs_hz=np.concatenate(([0.0], cfg.bandwidth_hz / 2 + offsets)),
                       density=np.concatenate(([1.0], 10.0 ** (np.asarray(oob_db) / 10.0))),
                       sample_rate_hz=cfg.sample_rate_hz)


def stub_search(levels, skirt, threshold):
    """(outcome, counts estimated) of the guard search over stub spectra.

    ``levels[g]`` is the out-of-band level of count g; count 0's spectrum
    carries the densities ``skirt``, shifted so that their maximum is
    ``levels[0]``.  The outcome is the count, or None for "not achievable".
    """
    cfg = ModemConfig(k=2 * len(levels), n=1, o_s=2, b=1, filter_len=1, delta_oob_db=threshold)
    skirt = np.asarray(skirt) - np.max(skirt) + levels[0]
    calls = []

    def spectrum(n_guard):
        calls.append(n_guard)
        return stub_psd(cfg, skirt if n_guard == 0 else [levels[n_guard]])

    try:
        return guard_count_for_threshold(spectrum, cfg), calls
    except GuardSearchError as exc:
        assert "not achievable" in str(exc)
        return None, calls


def worst_case_estimates(half: int) -> int:
    """The documented bound on the guard search's estimates, 1 + 3*ceil(log2(K/2))."""
    return 1 + 3 * math.ceil(math.log2(half))


def skirts(half: int):
    """Unnulled out-of-band densities (dB, one per count), misleading ones included:
    random, constant or rising (both a constant skirt), or a cliff after count c."""
    return st.one_of(
        st.lists(st.floats(-60.0, 0.0), min_size=half, max_size=half),
        st.just([0.0] * half),
        st.just(list(np.linspace(-40.0, 0.0, half))),
        st.integers(0, half - 1).map(lambda c: [0.0] * (c + 1) + [-80.0] * (half - c - 1)),
    )


@st.composite
def guard_curves(draw, falling: bool):
    """(levels, skirt) over K/2 = 1..64 counts; ``falling`` makes levels strictly falling."""
    half = draw(st.integers(1, 64))
    if falling:
        steps = draw(st.lists(st.floats(0.01, 6.0), min_size=half - 1, max_size=half - 1))
        # sorted steps give a convex or concave curve, where interpolation crawls
        steps = sorted(steps, reverse=draw(st.booleans())) if draw(st.booleans()) else steps
        levels = -draw(st.floats(0.0, 20.0)) - np.concatenate(([0.0], np.cumsum(steps)))
    else:
        # on a 0.01 dB grid, so that distinct levels survive the stub's dB round trip
        levels = np.array(draw(st.lists(st.integers(-8000, 0), min_size=half, max_size=half))) / 100
    return levels, draw(skirts(half))


def thresholds_between(levels):
    """Above and below every level, and midway between each pair of neighbouring distinct levels."""
    edges = np.unique(levels)
    return [edges[-1] + 1.0, *(edges[:-1] + edges[1:]) / 2, edges[0] - 1.0]


# table-1-sized falling curves: an even fall, and a cliff after count 0 then a
# 0.01 dB creep, on which interpolation from a constant skirt steps one count
# at a time until bisection steps in
_EVEN_FALL = -10.0 - 0.7 * np.arange(64)
_CLIFF = np.concatenate(([0.0], -40.0 - 0.01 * np.arange(1, 64)))


class TestMmseDetect:
    def test_identity_channel_low_noise_passthrough(self):
        rng = np.random.default_rng(0)
        y = crandn(rng, 6)
        x_hat = mmse_detect(np.eye(6), y, 1e-12)
        assert np.abs(x_hat - y).max() < 1e-9

    def test_identity_channel_unit_noise_halves(self):
        rng = np.random.default_rng(1)
        y = crandn(rng, 6)
        assert np.abs(mmse_detect(np.eye(6), y, 1.0) - y / 2).max() < 1e-12

    def test_matches_dense_inverse_formula(self):
        rng = np.random.default_rng(2)
        c = crandn(rng, 4, 4)
        y = crandn(rng, 4)
        sigma2 = 0.37
        a_inv = np.linalg.inv(c @ c.conj().T + sigma2 * np.eye(4))
        expected = np.array([c[:, j].conj() @ a_inv @ y for j in range(4)])
        assert np.abs(mmse_detect(c, y, sigma2) - expected).max() < 1e-10

    def test_singular_system_reported(self):
        from ddmod.metrics import IllConditionedError

        with pytest.raises(IllConditionedError):
            mmse_detect(np.zeros((3, 3)), np.ones(3), 0.0)


class TestSinrMap:
    def test_scaled_identity(self):
        p_t, sigma2 = 4.0, 0.5
        m = sinr_map(np.sqrt(p_t) * np.eye(8), sigma2)
        assert np.abs(m - p_t / sigma2).max() < 1e-9

    def test_two_by_two_hand_oracle(self):
        # C = [[1, 0.1], [0, 1]], sigma^2 = 0.1.  Worked by hand through the
        # interference-inverse identity SINR_j = C_j^H (sum_{l!=j} C_l C_l^H
        # + sigma^2 I)^{-1} C_j: SINR_1 = 1.1/0.111, SINR_2 = 0.01/1.1 + 10.
        c = np.array([[1.0, 0.1], [0.0, 1.0]])
        m = sinr_map(c, 0.1)
        assert m[0, 0] == pytest.approx(1.1 / 0.111, rel=1e-9)
        assert m[1, 0] == pytest.approx(0.01 / 1.1 + 10.0, rel=1e-9)

    def test_matches_dense_eq_formula(self):
        rng = np.random.default_rng(3)
        c = crandn(rng, 4, 4)
        sigma2 = 0.2
        a_inv = np.linalg.inv(c @ c.conj().T + sigma2 * np.eye(4))
        expected = np.empty(4)
        for j in range(4):
            d = a_inv @ c[:, j]
            num = np.abs(d.conj() @ c[:, j]) ** 2
            inter = sum(np.abs(d.conj() @ c[:, l]) ** 2 for l in range(4) if l != j)
            expected[j] = num / (inter + sigma2 * np.linalg.norm(d) ** 2)
        got = sinr_map(c, sigma2)[:, 0]
        assert np.abs(got - expected).max() < 1e-10

    def test_monotone_in_noise(self):
        cfg = desk_config(n=2)
        chan = ch.realize(ch.sample_eva_paths(4, 500 / 3.6, cfg.f_c_hz), cfg,
                          with_cp=True)
        eff = ofdm.ofdm_full_effective_channel(chan, cfg)
        prev = None
        for sigma2 in [1e-4, 1e-3, 1e-2, 1e-1, 1.0]:
            vals = sinr_map(eff, sigma2, cfg)
            if prev is not None:
                assert np.all(vals <= prev * (1 + 1e-9))
            prev = vals

    def test_matched_filter_bound(self):
        rng = np.random.default_rng(5)
        c = crandn(rng, 6, 6)
        sigma2 = 0.15
        vals = sinr_map(c, sigma2)[:, 0]
        bound = np.sum(np.abs(c) ** 2, axis=0) / sigma2
        assert np.all(vals >= 0)
        assert np.all(vals <= bound + 1e-9)


class TestNetSinr:
    def test_uniform_map_any_guard(self):
        m = np.full((8, 2), 3.0)
        for ng in [0, 1, 2, 3]:
            assert net_sinr(m, ng) == pytest.approx(10 * np.log10(3.0))

    def test_interior_average(self):
        vals = np.arange(16, dtype=float).reshape(8, 2) + 1.0
        expected = vals[2:6, :].mean()
        assert net_sinr(vals, 2) == pytest.approx(10 * np.log10(expected))
        assert net_sinr(vals, 0) == pytest.approx(10 * np.log10(vals.mean()))
        assert net_sinr(vals) == net_sinr(vals, 0)

    def test_invalid_guard(self):
        with pytest.raises(ValueError, match="guard"):
            net_sinr(np.ones((8, 2)), 4)

    def test_negative_guard_refused(self):
        # a negative count would slice values[-1:K+1], the last row only
        vals = np.ones((8, 2))
        vals[-1] = 100.0
        with pytest.raises(ValueError, match="0 <= 2\\*N_G < K=8, got N_G=-1"):
            net_sinr(vals, -1)
        with pytest.raises(ValueError, match="got N_G=-1"):
            avg_spectral_efficiency(vals, 1.0, -1)
        with pytest.raises(ValueError, match="got N_G=-2"):
            net_sinr(vals, n_guard=-2)


class TestSpectralEfficiency:
    def test_cp_efficiency_from_reference_timing(self):
        # symbol 8.33 us, CP 0.586 us: T / (T + T_CP) = 0.9343
        cfg = ModemConfig()
        assert cfg.cp_efficiency() == pytest.approx(0.9343, abs=5e-4)
        symbol_s, cp_s = 1.0 / cfg.delta_f_hz, cfg.n_cp * cfg.sample_period_s
        assert cfg.cp_efficiency() == pytest.approx(symbol_s / (symbol_s + cp_s), rel=1e-12)

    def test_zero_map_zero_se(self):
        assert avg_spectral_efficiency(np.zeros((8, 2)), 1.0, 0) == 0.0

    def test_guard_bins_excluded_but_normalized(self):
        vals = np.full((8, 2), 3.0)
        full = avg_spectral_efficiency(vals, 1.0, 0)
        guarded = avg_spectral_efficiency(vals, 1.0, 2)
        assert full == pytest.approx(np.log2(4.0))
        assert guarded == pytest.approx(np.log2(4.0) * 4 / 8)

    def test_consistency_with_map_recomputation(self):
        rng = np.random.default_rng(6)
        vals = rng.random((8, 4)) * 10
        xi = 0.9
        direct = xi * np.log2(1 + vals[1:7, :]).sum() / vals.size
        assert avg_spectral_efficiency(vals, xi, 1) == pytest.approx(direct, rel=1e-12)


class TestNormalizedMse:
    def test_exact_estimate(self):
        x = np.array([1 + 1j, 2.0, -3j])
        assert normalized_mse(x, x) == 0.0

    def test_zero_estimate(self):
        x = np.array([1 + 1j, 2.0, -3j])
        assert normalized_mse(np.zeros(3), x) == pytest.approx(1.0)

    def test_quarter_error(self):
        x = np.array([2.0, 0.0, 0.0])
        e = np.array([0.0, 1.0, 0.0])
        assert normalized_mse(x + e, x) == pytest.approx(0.25)

    def test_zero_reference(self):
        with pytest.raises(ValueError, match="zero reference"):
            normalized_mse(np.ones(3), np.zeros(3))


class TestPsd:
    # segment length 4*K*O_s = 64: lengths up to 200 give one to five segments,
    # and a 1-, 3- or 1024-segment batch (the default cap) splits them differently
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 200), st.integers(1, 3), st.integers(0, 2**32 - 1),
           st.sampled_from([1, 3 * 16 * 64, metrics._WELCH_BATCH_BYTES]))
    @example(1, 1, 0, metrics._WELCH_BATCH_BYTES)
    @example(63, 1, 0, metrics._WELCH_BATCH_BYTES)
    @example(64, 1, 0, metrics._WELCH_BATCH_BYTES)
    @example(65, 1, 0, metrics._WELCH_BATCH_BYTES)
    def test_matches_scipy_welch(self, length, trials, seed, batch_bytes):
        cfg = desk_config(k=8, o_s=2, b=1, n=2, filter_len=1)

        def frame(rng):
            return crandn(rng, length)

        x = seeded_frames(frame, trials, seed)
        with mock.patch.object(metrics, "_WELCH_BATCH_BYTES", batch_bytes):
            est = psd_estimate(x, cfg)
        freqs, dens = scipy_welch(x, cfg)
        np.testing.assert_allclose(est.freqs_hz, freqs, rtol=1e-12, atol=0)
        np.testing.assert_allclose(est.density, dens, rtol=1e-12, atol=1e-12 * dens.max())

    # the same segments (nper = 64, hop = 32) from pieces of any length, empty
    # ones included, and totals below nper, which then sets nper itself
    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 300), st.lists(st.integers(0, 300), max_size=8),
           st.integers(0, 2**32 - 1), st.sampled_from([1, 3 * 16 * 64, metrics._WELCH_BATCH_BYTES]))
    @example(40, [0, 0, 10, 39], 0, metrics._WELCH_BATCH_BYTES)
    @example(64, [63], 0, metrics._WELCH_BATCH_BYTES)
    @example(200, [31, 33, 64, 64, 95, 96, 97], 0, 1)
    def test_streamed_pieces_match_scipy_welch(self, length, cuts, seed, batch_bytes):
        cfg = desk_config(k=8, o_s=2, b=1, n=2, filter_len=1)
        x = crandn(np.random.default_rng(seed), length)
        pieces = np.split(x, sorted(min(c, length) for c in cuts))
        with mock.patch.object(metrics, "_WELCH_BATCH_BYTES", batch_bytes):
            est = psd_estimate(iter(pieces), cfg)
            whole = psd_estimate(x, cfg)
        freqs, dens = scipy_welch(x, cfg)
        np.testing.assert_allclose(est.freqs_hz, freqs, rtol=1e-12, atol=0)
        np.testing.assert_allclose(est.density, dens, rtol=1e-12, atol=1e-12 * dens.max())
        assert np.array_equal(est.freqs_hz, whole.freqs_hz)
        assert np.array_equal(est.density, whole.density)

    @pytest.mark.parametrize("x", [np.zeros(0, dtype=complex), [], [np.zeros(0), np.zeros(0)]],
                             ids=["empty_array", "no_pieces", "empty_pieces"])
    def test_empty_signal_rejected(self, x):
        with pytest.raises(ValueError, match="empty signal"):
            psd_estimate(x, desk_config())

    @pytest.mark.parametrize("x", [np.ones((4, 64), dtype=complex), [np.ones(64), np.ones((2, 8))],
                                   [np.ones(64), np.complex128(1.0)]],
                             ids=["2d_array", "2d_piece", "scalar_piece"])
    def test_piece_that_is_not_1d_rejected(self, x):
        with pytest.raises(ValueError, match="must be 1-D"):
            psd_estimate(x, desk_config())

    def test_matches_scipy_welch_at_full_scale(self):
        # about 170 segments of 5120 samples, in four batches
        cfg = ModemConfig()
        x = seeded_frames(guard_frames(cfg, "otfs")(0), trials=20, seed=0)
        est = psd_estimate(x, cfg)
        freqs, dens = scipy_welch(x, cfg)
        assert np.array_equal(est.freqs_hz, freqs)
        np.testing.assert_allclose(est.density, dens, rtol=1e-12, atol=1e-12 * dens.max())

    def test_density_does_not_depend_on_the_batch_size(self):
        # desk nper = 512: batches of 1, 8, 128 and 512 segments over 1069 segments
        cfg = desk_config()
        x = seeded_frames(guard_frames(cfg, "otfs")(0), trials=250, seed=0)
        dens = []
        for batch_bytes in (1, 64 << 10, 1 << 20, 4 << 20):
            with mock.patch.object(metrics, "_WELCH_BATCH_BYTES", batch_bytes):
                dens.append(psd_estimate(x, cfg).density)
        for d in dens[1:]:
            assert np.abs(d - dens[0]).max() <= 1e-13 * dens[0].max()

    def test_constant_signal_is_dc_line(self):
        cfg = desk_config(k=8, o_s=2, b=1, n=2, filter_len=1)
        est = psd_estimate(np.ones(512, dtype=complex), cfg)
        center = np.argmax(est.density)
        assert abs(est.freqs_hz[center]) < est.sample_rate_hz / 256
        away = np.abs(est.freqs_hz - est.freqs_hz[center]) > 3 * (est.freqs_hz[1] - est.freqs_hz[0])
        assert est.density[away].max() < 1e-12 * est.density[center]

    def test_parseval(self):
        cfg = desk_config()
        frames = []

        def frame(rng):
            f = ofdm.ofdm_modulate(isfft(qpsk_grid(rng, cfg.k, cfg.n)), cfg)
            frames.append(f)
            return f

        est = psd_estimate(seeded_frames(frame, trials=50, seed=7), cfg)
        df = est.freqs_hz[1] - est.freqs_hz[0]
        integral = est.density.sum() * df
        power = np.mean(np.abs(np.concatenate(frames)) ** 2)
        assert integral == pytest.approx(power, rel=0.01)

    def test_filtered_waveform_decays_faster(self):
        # beyond ~10 subcarriers from the band edge the filtered chain sits
        # below the plain multicarrier spectrum at every frequency (measured;
        # closer to the edge both are dominated by the edge subband mainlobe)
        cfg = ModemConfig()

        def gen(fam):
            def fn(rng):
                x_ft = isfft(qpsk_grid(rng, cfg.k, cfg.n))
                if fam == "drufmc":
                    return drufmc.ufmc_modulate_ft(x_ft, cfg)
                return ofdm.ofdm_modulate(x_ft, cfg)
            return fn

        eo = psd_estimate(seeded_frames(gen("otfs"), trials=40, seed=5), cfg)
        ed = psd_estimate(seeded_frames(gen("drufmc"), trials=40, seed=5), cfg)
        sel = np.abs(eo.freqs_hz) > cfg.bandwidth_hz / 2 + 10 * cfg.delta_f_hz
        assert np.all(ed.db_rel_peak()[sel] < eo.db_rel_peak()[sel])
        # the filtered spectrum reaches depths the rectangular pulse never does
        oob = np.abs(eo.freqs_hz) > cfg.bandwidth_hz / 2
        assert ed.db_rel_peak()[oob].min() < -55.0
        assert eo.db_rel_peak()[oob].min() > -50.0


class TestGuardSearch:
    def test_zero_threshold_needs_no_guard(self):
        cfg = desk_config()

        def gen(ng):
            def fn(rng):
                x_ft = isfft(qpsk_grid(rng, cfg.k, cfg.n))
                if ng:
                    x_ft[:ng] = 0
                    x_ft[cfg.k - ng:] = 0
                return ofdm.ofdm_modulate(x_ft, cfg)
            return fn

        assert guard_count_for_threshold(guard_spectra(gen, cfg, 3, 1), replace(cfg, delta_oob_db=0.0)) == 0

    def test_oob_level_monotone_in_guard_count(self):
        cfg = desk_config()

        def gen(ng):
            def fn(rng):
                x_ft = isfft(qpsk_grid(rng, cfg.k, cfg.n))
                if ng:
                    x_ft[:ng] = 0
                    x_ft[cfg.k - ng:] = 0
                return ofdm.ofdm_modulate(x_ft, cfg)
            return fn

        levels = [
            oob_level_db(psd_estimate(seeded_frames(gen(ng), trials=30, seed=3), cfg),
                         cfg.bandwidth_hz)
            for ng in [0, 2, 4, 8]
        ]
        assert all(b <= a + 0.1 for a, b in zip(levels, levels[1:]))

    # desk configs whose estimated OOB curve (trials=10, seed=1) falls strictly
    # with the guard count for both families
    @pytest.mark.parametrize("family", ["otfs", "drufmc"])
    @pytest.mark.parametrize("kw", [{}, dict(k=16, o_s=2, b=4, filter_len=5, n=4)],
                             ids=["k32", "k16"])
    def test_bisection_equals_linear_scan(self, kw, family):
        cfg = desk_config(**kw)
        gen = guard_frames(cfg, family)
        spectrum = guard_spectra(gen, cfg, 10, 1)
        levels = [oob_level_db(spectrum(ng), cfg.bandwidth_hz) for ng in range(cfg.k // 2)]
        assert np.all(np.diff(levels) < 0), "bisection presumes a falling OOB curve"
        # above the unnulled level (pass at 0), between every pair of
        # neighbours, on a level exactly, and below them all (not achievable)
        between = [(a + b) / 2 for a, b in zip(levels, levels[1:])]
        thresholds = [levels[0] + 1.0, *between, levels[cfg.k // 4], levels[-1] - 1.0]
        outcomes = []
        for thr in thresholds:
            want = search_outcome(linear_guard_scan, gen, cfg, thr, 10, 1)
            got = search_outcome(guard_count_for_threshold, spectrum, replace(cfg, delta_oob_db=thr))
            assert got == want, f"threshold {thr:.3f} dB"
            outcomes.append(got)
        assert outcomes[0] == 0 and outcomes[-1] is None

    def test_non_monotone_curve_gives_a_crossing(self):
        # with 5 trials the desk OTFS curve for seed 2 rises between some
        # neighbouring counts; bisection then returns a passing count whose
        # predecessor fails, not necessarily the first passing one
        cfg = desk_config()
        spectrum = guard_spectra(guard_frames(cfg, "otfs"), cfg, 5, 2)
        levels = np.array([oob_level_db(spectrum(ng), cfg.bandwidth_hz)
                           for ng in range(cfg.k // 2)])
        assert np.any(np.diff(levels) > 0)
        edges = np.sort(levels)
        for thr in (edges[:-1] + edges[1:]) / 2:
            got = guard_count_for_threshold(spectrum, replace(cfg, delta_oob_db=thr))
            assert levels[got] <= thr
            assert got == 0 or levels[got - 1] > thr

    def test_unachievable_threshold_raises(self):
        cfg = desk_config(k=8, o_s=2, b=1, n=2, filter_len=1)

        def gen(ng):
            return lambda rng: crandn(rng, 256)   # white noise fills the band

        with pytest.raises(GuardSearchError, match="not achievable"):
            guard_count_for_threshold(guard_spectra(gen, cfg, 2, 0),
                                      replace(cfg, delta_oob_db=-40.0))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(guard_curves(falling=True))
    @example((_EVEN_FALL, [0.0] * 64))
    @example((_EVEN_FALL, [0.0] + [-80.0] * 63))
    @example((_EVEN_FALL, [0.0] * 63 + [-80.0]))
    @example((_CLIFF, [0.0] * 64))
    def test_guided_search_finds_the_first_passing_count(self, curve):
        # on a strictly falling curve the skirt only steers the probes: the
        # result is the first passing count whatever the skirt says
        levels, skirt = curve
        for thr in thresholds_between(levels):
            got, calls = stub_search(levels, skirt, thr)
            passing = np.flatnonzero(levels <= thr)
            assert got == (passing[0] if passing.size else None), f"threshold {thr:.3f} dB"
            assert len(set(calls)) == len(calls) <= worst_case_estimates(len(levels))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(guard_curves(falling=False))
    def test_guided_search_gives_a_crossing_on_any_curve(self, curve):
        levels, skirt = curve
        for thr in thresholds_between(levels):
            got, calls = stub_search(levels, skirt, thr)
            if got is None:
                assert levels[0] > thr and levels[-1] > thr
            else:
                assert levels[got] <= thr and (got == 0 or levels[got - 1] > thr)
            assert len(set(calls)) == len(calls) <= worst_case_estimates(len(levels))
