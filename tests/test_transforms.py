"""Matrix builders: unitarity, window and precoder contracts."""

import numpy as np
import pytest
from scipy.signal.windows import chebwin

from ddmod.config import desk_config
from ddmod.transforms import (
    chebyshev_window,
    dft_matrix,
    isfft,
    modulated_filter_taps,
    oversampled_dft,
    sfft,
    ufmc_precoder,
    vec,
    invec,
)
from oracles import cp_insert_matrix, crandn, selection_matrix, subband_conv_matrix


class TestDftMatrix:
    def test_order_one_is_identity(self):
        assert np.allclose(dft_matrix(1), [[1.0]])

    def test_order_two_analytic(self):
        expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert np.abs(dft_matrix(2) - expected).max() < 1e-12

    @pytest.mark.parametrize("n", [2, 8, 16, 128])
    def test_unitary(self, n):
        f = dft_matrix(n)
        assert np.abs(f @ f.conj().T - np.eye(n)).max() < 1e-12

    def test_rejects_zero_size(self):
        with pytest.raises(ValueError, match="invalid size"):
            dft_matrix(0)


class TestOversampledDft:
    @pytest.mark.parametrize("k,o_s", [(8, 4), (2, 1), (16, 2), (32, 4), (128, 10)])
    def test_rows_orthonormal(self, k, o_s):
        w = oversampled_dft(k, o_s)
        assert np.abs(w @ w.conj().T - np.eye(k)).max() < 1e-12

    def test_small_case_rows(self):
        # K=2, O_s=1: rows correspond to centred frequencies -1 and 0
        w = oversampled_dft(2, 1)
        assert np.abs(w[1] - np.array([1, 1]) / np.sqrt(2)).max() < 1e-12
        assert np.abs(w[0] - np.array([1, -1]) / np.sqrt(2)).max() < 1e-12

    def test_unimodular_entries(self):
        w = oversampled_dft(8, 3)
        assert np.abs(np.abs(w) - 1 / np.sqrt(24)).max() < 1e-12

    def test_inverse_is_the_conjugate_transpose(self):
        # column k of W^H = W.conj().T is the tone exp(j2*pi*m*(k - K/2)/(K*O_s)) / sqrt(K*O_s)
        # that the modulators' inverse FFT writes; W is built on each call, not memoized
        k, o_s = 16, 3
        tones = np.exp(2j * np.pi * np.outer(np.arange(k * o_s), np.arange(k) - k // 2) / (k * o_s))
        assert np.abs(oversampled_dft(k, o_s).conj().T - tones / np.sqrt(k * o_s)).max() < 1e-12
        assert oversampled_dft(k, o_s) is not oversampled_dft(k, o_s)

    def test_rejects_odd_k(self):
        with pytest.raises(ValueError, match="invalid size"):
            oversampled_dft(7, 2)
        with pytest.raises(ValueError, match="invalid size"):
            oversampled_dft(0, 2)


class TestSymplecticTransforms:
    def test_zero_in_zero_out(self):
        z = np.zeros((8, 4), dtype=complex)
        assert np.all(isfft(z) == 0)
        assert np.all(sfft(z) == 0)

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        x = crandn(rng, 8, 4)
        assert np.abs(sfft(isfft(x)) - x).max() < 1e-12

    def test_stack_transforms_each_grid_exactly(self):
        rng = np.random.default_rng(4)
        x = crandn(rng, 2, 3, 8, 4)
        for transform in (isfft, sfft):
            per_grid = np.array([[transform(g) for g in row] for row in x])
            assert np.array_equal(transform(x), per_grid)

    def test_rejects_a_vector(self):
        for transform in (isfft, sfft):
            with pytest.raises(ValueError, match="dimension mismatch"):
                transform(np.ones(8))

    def test_impulse_against_double_sum(self):
        # X[a,b] = sum_{k,n} F_K[a,k] X_dd[k,n] conj(F_N[b,n]), evaluated entrywise
        k, n = 8, 4
        x_dd = np.zeros((k, n), dtype=complex)
        x_dd[0, 0] = np.sqrt(k * n)
        expected = np.zeros((k, n), dtype=complex)
        f_k, f_n = dft_matrix(k), dft_matrix(n)
        for a in range(k):
            for b in range(n):
                acc = 0.0
                for kk in range(k):
                    for nn in range(n):
                        acc += f_k[a, kk] * x_dd[kk, nn] * np.conj(f_n[b, nn])
                expected[a, b] = acc
        got = isfft(x_dd)
        assert np.abs(got - expected).max() < 1e-12
        # a single delay-Doppler impulse spreads to a constant grid
        assert np.abs(got - 1.0).max() < 1e-12

    def test_sfft_single_entry_double_sum(self):
        k, n = 8, 4
        y_ft = np.zeros((k, n), dtype=complex)
        y_ft[3, 1] = 1.0
        f_k, f_n = dft_matrix(k), dft_matrix(n)
        expected = np.zeros((k, n), dtype=complex)
        for a in range(k):
            for b in range(n):
                acc = 0.0
                for kk in range(k):
                    for nn in range(n):
                        acc += np.conj(f_k[kk, a]) * y_ft[kk, nn] * f_n[nn, b]
                expected[a, b] = acc
        got = sfft(y_ft)
        assert np.abs(got - expected).max() < 1e-12
        # rank-1 outer product of conjugate DFT column and DFT row
        outer = np.outer(np.conj(f_k[3, :]), f_n[1, :])
        assert np.abs(got - outer).max() < 1e-12


class TestChebyshevWindow:
    @pytest.mark.parametrize("length,att", [(16, 60), (60, 100), (15, 80), (33, 45)])
    def test_symmetric(self, length, att):
        filt = chebyshev_window(length, att)
        assert np.abs(filt - filt[::-1]).max() < 1e-12

    def test_reference_parameters_construct(self):
        filt = chebyshev_window(60, 100.0)
        assert filt.size == 60
        assert np.all(np.isfinite(filt))
        assert abs(filt.sum() - 1.0) < 1e-12   # unit DC gain normalization

    def test_sidelobe_level_on_dense_grid(self):
        # side-lobes of the L=16, 60 dB window within 0.5 dB of the request
        filt = chebyshev_window(16, 60.0)
        h = np.abs(np.fft.fft(filt, 4096))
        h_db = 20 * np.log10(h / h.max() + 1e-300)
        i = 1
        while i < 2048 and h_db[i] < h_db[i - 1]:
            i += 1
        sidelobe = h_db[i:2048].max()
        assert abs(sidelobe - (-60.0)) < 0.5

    @pytest.mark.parametrize("att", [45.0, 60.0, 100.0, 150.0, 300.0])
    def test_matches_scipy_chebwin(self, att):
        # chebwin warns below 45 dB; its window scaled to unit sum is the reference
        for length in [*range(2, 130), 600, 1279, 1280]:
            ref = chebwin(length, att)
            ref = ref / ref.sum()
            gap = np.abs(chebyshev_window(length, att) - ref).max()
            assert gap <= 1e-12 * ref.max(), (length, gap)

    @pytest.mark.parametrize("length", [2, 3, 60, 1280])
    def test_finite_up_to_the_attenuation_bound(self, length):
        # the largest attenuation whose 10^(att/20) is finite, as ModemConfig accepts it
        att = 20.0 * np.log10(np.finfo(float).max) - 1e-9
        with np.errstate(over="raise", invalid="raise"):
            filt = chebyshev_window(length, att)
        assert np.all(np.isfinite(filt)) and abs(filt.sum() - 1.0) < 1e-12

    def test_rejects_bad_attenuation(self):
        for att in (0.0, float("nan"), float("inf"), 7000.0):
            with pytest.raises(ValueError, match="invalid attenuation"):
                chebyshev_window(16, att)
        with pytest.raises(ValueError, match="invalid size"):
            chebyshev_window(1, 60.0)


class TestSelectionMatrix:
    def test_single_subband_is_identity(self):
        assert np.allclose(selection_matrix(0, 1, 8), np.eye(8))

    def test_partition_of_unity(self):
        b, d = 8, 16
        total = sum(selection_matrix(i, b, d) for i in range(b))
        assert np.allclose(total, np.eye(b * d))

    def test_disjoint_supports(self):
        b, d = 4, 4
        for i in range(b):
            for j in range(b):
                prod = selection_matrix(i, b, d) @ selection_matrix(j, b, d)
                if i == j:
                    assert np.allclose(prod, selection_matrix(i, b, d))
                else:
                    assert np.all(prod == 0)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            selection_matrix(4, 4, 4)


class TestSubbandConvMatrix:
    def test_unit_filter_is_identity(self):
        cfg = desk_config(k=8, o_s=1, b=1, filter_len=1)
        from ddmod.transforms import prototype_filter

        filt = prototype_filter(cfg)
        g = subband_conv_matrix(filt, 0, 8, 1, 8)
        # L=1 means no tail rows; any subband index gives a pure diagonal of taps
        assert g.shape == (8, 8)
        assert np.abs(np.abs(g) - np.eye(8)).max() < 1e-12

    def test_first_column_is_tap_vector(self):
        filt = chebyshev_window(5, 40.0)
        g = subband_conv_matrix(filt, 1, 16, 2, 8)
        e1 = np.zeros(32)
        e1[0] = 1.0
        col = g @ e1
        taps = modulated_filter_taps(filt, 1, 16, 2, 8)
        assert np.abs(col[:5] - taps).max() < 1e-12
        assert np.all(col[5:] == 0)

    def test_matches_direct_convolution_sum(self):
        rng = np.random.default_rng(3)
        k, o_s, d, L = 16, 2, 4, 5
        filt = chebyshev_window(L, 50.0)
        x = crandn(rng, k * o_s)
        for i in [0, 2, 3]:
            g = subband_conv_matrix(filt, i, k, o_s, d)
            taps = modulated_filter_taps(filt, i, k, o_s, d)
            direct = np.zeros(k * o_s + L - 1, dtype=complex)
            for r in range(direct.size):
                for ell in range(L):
                    if 0 <= r - ell < x.size:
                        direct[r] += taps[ell] * x[r - ell]
            assert np.abs(g @ x - direct).max() < 1e-12


class TestUfmcPrecoder:
    def test_degenerates_to_oversampled_ifft(self):
        cfg = desk_config(k=16, o_s=2, b=1, filter_len=1)
        p = ufmc_precoder(cfg)
        w = oversampled_dft(16, 2)
        assert np.abs(p - w.conj().T).max() < 1e-12

    def test_columns_follow_their_subband(self):
        cfg = desk_config(k=16, o_s=2, b=4, filter_len=5, filter_att_db=50.0)
        from ddmod.transforms import prototype_filter

        p = ufmc_precoder(cfg)
        w_h = oversampled_dft(cfg.k, cfg.o_s).conj().T
        filt = prototype_filter(cfg)
        for col in [0, 5, 11, 15]:
            i = col // cfg.d
            g = subband_conv_matrix(filt, i, cfg.k, cfg.o_s, cfg.d)
            assert np.abs(p[:, col] - g @ w_h[:, col]).max() < 1e-12

    def test_against_per_subband_chain(self):
        # independent oracle: per subband, mask + IFFT + explicit convolution sum
        rng = np.random.default_rng(4)
        cfg = desk_config(k=16, o_s=2, b=4, filter_len=5, filter_att_db=50.0)
        from ddmod.transforms import prototype_filter

        x_col = crandn(rng, cfg.k)
        w_h = oversampled_dft(cfg.k, cfg.o_s).conj().T
        filt = prototype_filter(cfg)
        total = np.zeros(cfg.k * cfg.o_s + cfg.filter_len - 1, dtype=complex)
        for i in range(cfg.b):
            masked = x_col.copy()
            masked[:i * cfg.d] = 0
            masked[(i + 1) * cfg.d:] = 0
            time_sig = w_h @ masked
            taps = modulated_filter_taps(filt, i, cfg.k, cfg.o_s, cfg.d)
            for r in range(total.size):
                for ell in range(cfg.filter_len):
                    if 0 <= r - ell < time_sig.size:
                        total[r] += taps[ell] * time_sig[r - ell]
        assert np.abs(ufmc_precoder(cfg) @ x_col - total).max() < 1e-12


class TestVecHelpers:
    def test_round_trip_column_major(self):
        rng = np.random.default_rng(5)
        x = crandn(rng, 4, 3)
        v = vec(x)
        assert v[1] == x[1, 0]   # column stacking
        assert np.all(invec(v, 4) == x)

    def test_cp_insert_prepends_tail(self):
        a = cp_insert_matrix(2, 5)
        x = np.arange(5.0)
        out = a @ x
        assert np.all(out == np.array([3, 4, 0, 1, 2, 3, 4], dtype=float))

    def test_cp_and_tail_removal_select_payload(self):
        from oracles import cp_removal_matrix, tail_removal_matrix, tail_truncation_matrix

        r = cp_removal_matrix(2, 4, 3)          # drop 2 CP samples, keep 4, drop 2 tail
        x = np.arange(8.0)
        assert np.all(r @ x == np.array([2, 3, 4, 5], dtype=float))
        t = tail_removal_matrix(4, 3)
        assert np.all(t @ np.arange(6.0) == np.array([0, 1, 2, 3], dtype=float))
        tt = tail_truncation_matrix(5, 3)
        assert np.all(tt @ np.arange(7.0) == np.arange(5.0))
