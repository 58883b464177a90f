"""Doppler-resilient filtered multicarrier chain: subband-filtered oversampled
modulation with continuous-packet overlap and no cyclic prefix, wrapped in
delay-Doppler pre/post processing.

Consecutive filtered symbols overlap by the filter tail (L - 1 samples) and
the final tail is dropped, so a frame occupies exactly K*O_s*N samples, the
same air time as the CP-bearing chain's payload.

In the delay-time domain (A = X_dd F_N^H in, U = Y_dd F_N^H out) the channel
is block lower-bidiagonal: U[:, m] = T[m, m] A[:, m] + T[m, m-1] A[:, m-1]
with T[m, m] = C_m and T[m, m-1] = D_m, the per-symbol
head and overlap-tail maps of :func:`_delay_domain_blocks`, built path by
path: C_m = F_K^H B_m diag(resp) F_K - D_m, with B_m the closed form of
:func:`~ddmod.ofdm.per_symbol_ft_channel` without CP and resp the subband
filters' gains, and D_m = X_m R from the L - 1 channel columns the tail
reaches: R, the precoder's tail rows, is the same (L - 1) x K factor for
every symbol.  R is the Dolph-Chebyshev filter ramp, whose singular values
fall fast (numerical rank r = 24 of L - 1 = 59 at table 1), so the tail is
kept at that rank: D_m = (X_m U_r S_r) V_r^H from R's thin SVD.  The dense
delay-Doppler channel is V T V^H with V = F_N (x) I_K, so its MMSE error
covariance is sigma^2 V G V^H, G = (T^H T + sigma^2 I)^{-1}.  The Doppler
DFT mixes the diagonals of every block of G, so :func:`drufmc_mmse` takes
them from a selected inverse that keeps the tails in that rank-r form
(O(N^2 r^2 K + N K^3) work, O(N K^2) memory, no K x K tail formed);
:func:`drufmc_link` runs the whole link.  :func:`drufmc_effective_channel`
builds the dense matrix as the reference.
"""

from __future__ import annotations

import numpy as np

from .channel import ChannelMatrixSet
from .config import ModemConfig, live_rows
from .mmse import bidiagonal_mmse, mmse_sinr
from .ofdm import _demodulate, _path_ft_blocks, _tx_guard, _tx_null, apply_channel
from .transforms import _cached, dft_matrix, isfft, oversampled_dft, sfft, ufmc_precoder, vec


def overlap_add(x_tilde: np.ndarray, cfg: ModemConfig) -> np.ndarray:
    """Continuous-packet overlap of per-symbol filtered blocks.

    Column n keeps its first K*O_s rows and absorbs the previous column's
    tail into its first L - 1 rows; the last column's tail is dropped.  A
    (..., rows, N) stack overlaps each matrix.
    """
    ko = cfg.k * cfg.o_s
    if x_tilde.shape[-2] != ko + cfg.filter_len - 1:
        raise ValueError(
            f"dimension mismatch: expected {ko + cfg.filter_len - 1} rows, got {x_tilde.shape[-2]}"
        )
    n = x_tilde.shape[-1]
    out = x_tilde[..., :ko, :].copy()
    out[..., :cfg.filter_len - 1, 1:] += x_tilde[..., ko:, :n - 1]
    return out


def ufmc_modulate_ft(x_ft: np.ndarray, cfg: ModemConfig, n_guard: int = 0) -> np.ndarray:
    """Serialize a frequency-time grid through the filtered-subband transmitter.

    A (..., K, N) stack of grids gives a (..., K*O_s*N) stack of frames.  The
    2*n_guard edge subcarriers are not transmitted: only the live rows enter
    the precoder, as if the edge rows were zero.
    """
    x_ft = np.asarray(x_ft)
    if x_ft.shape[-2:] != (cfg.k, cfg.n):
        raise ValueError(f"dimension mismatch: expected {(cfg.k, cfg.n)}, got {x_ft.shape}")
    live = live_rows(cfg.k, n_guard)
    x_tilde = ufmc_precoder(cfg)[:, live] @ x_ft[..., live, :]
    return vec(overlap_add(x_tilde, cfg))


def drufmc_modulate(x_dd: np.ndarray, cfg: ModemConfig, n_guard: int = 0) -> np.ndarray:
    """Delay-Doppler grid to a K*O_s*N-sample signal (no CP), 2*n_guard edge subcarriers nulled."""
    return ufmc_modulate_ft(isfft(x_dd), cfg, n_guard)


def drufmc_demodulate(r: np.ndarray, cfg: ModemConfig) -> np.ndarray:
    """Recover the delay-Doppler grid: drop channel tails, oversampled FFT, SFFT."""
    return sfft(_demodulate(r, cfg, 0))


def _precoder_tail(cfg: ModemConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """R = P_tail F_K and its thin-SVD factors (U_r S_r, V_r^H) at R's numerical rank r.

    P_tail is the precoder's last L - 1 rows, TX-guard nulled.  The kept
    singular values are those above s_0 * max(R.shape) * eps, the tolerance
    of ``numpy.linalg.matrix_rank``.  R depends on the config alone, so the
    three arrays are memoized with the precoder.
    """
    def build():
        p_tail = ufmc_precoder(cfg)[cfg.k * cfg.o_s:] * _tx_null(cfg)
        r = np.fft.fft(p_tail, axis=-1)
        u, s, vh = np.linalg.svd(r, full_matrices=False)
        rank = np.count_nonzero(s > s[0] * max(r.shape) * np.finfo(float).eps) if s.size else 0
        return r, u[:, :rank] * s[:rank], vh[:rank]

    return _cached(("ufmc_tail", cfg.k, cfg.o_s, cfg.b, cfg.filter_len,
                    float(cfg.filter_att_db), _tx_guard(cfg)), build)


def _delay_domain_blocks(chan: ChannelMatrixSet,
                         cfg: ModemConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Symbol m's head map C_m and overlap-tail map D_m = X_m R, delay domain in and out.

    Returns the (N, K, K) stack of C_m, the (N, K, r) stack of X_m and the
    (r, K) factor R, with r the numerical rank of the precoder tail (at most
    L - 1).  C_m = F_K^H W (R_tail M_m) P_head F_K carries symbol m into its
    own block; D_m = F_K^H W M_m[:K*O_s, :L-1] P_tail F_K carries symbol
    m - 1's tail into block m, with X_m = F_K^H W M_m[:K*O_s, :L-1] and
    R = P_tail F_K.  P_head / P_tail are the first K*O_s / last L - 1 precoder
    rows, TX-guard nulled.  P_head is the steady state W^H diag(resp) less
    P_tail in its first L - 1 rows, so C_m = F_K^H B_m diag(resp) F_K - D_m,
    with B_m the per-path closed form of :func:`~ddmod.ofdm.per_symbol_ft_channel`
    without CP.  The heads subtract the full-rank X_m R; if R has rank
    r < L - 1, the tail pair returned is (X_m U_r S_r, V_r^H) from its thin
    SVD (:func:`_precoder_tail`).  ``chan`` must be the CP-less set, with
    K*O_s columns.
    """
    ko = cfg.k * cfg.o_s
    p = ufmc_precoder(cfg) * _tx_null(cfg)
    resp = np.sqrt(ko) * p[::ko].sum(axis=0)   # rows 0 + K*O_s: W^H[0] resp, W^H[0] = 1/sqrt(KO_s)
    rows = np.arange(cfg.filter_len - 1)[:, np.newaxis] + chan.tap_index  # band, columns < L-1
    h = chan.taps[:, rows, np.arange(rows.shape[1])] * (rows < ko)         # R_tail: rows < K*O_s
    band = np.einsum("kcj,mcj->mkc", oversampled_dft(cfg.k, cfg.o_s)[:, rows % ko], h,
                     optimize=True)                                    # W M_m[:K*O_s, :L-1]
    # F_K^H (.) F_K: an inverse FFT down the columns, then an FFT along the rows;
    # the tail D_m = X_m R takes the first in X_m and the second in R
    x = np.fft.ifft(band, axis=-2)
    r, us, vh = _precoder_tail(cfg)
    head = np.fft.fft(np.fft.ifft(_path_ft_blocks(chan, cfg, 0) * resp, axis=-2), axis=-1)
    head -= x @ r
    if vh.shape[0] < r.shape[0]:              # X_m R = (X_m U_r S_r) V_r^H
        return head, x @ us, vh
    return head, x, r


def drufmc_effective_channel(chan: ChannelMatrixSet, cfg: ModemConfig) -> np.ndarray:
    """Dense KN x KN delay-Doppler map of the filtered CP-less chain.

    Exploits the chain structure instead of forming the KN x (K*O_s*N)
    intermediate: with C_m / D_m the per-symbol head and overlap-tail maps
    brought to the delay domain, the output block (n, n') sums
    exp(-j2*pi*n*m/N) C_m and the shifted tail terms over symbols m, followed
    by the Doppler-side DFT.
    """
    k, n = cfg.k, cfg.n
    cf, x, r = _delay_domain_blocks(chan, cfg)
    df = x @ r
    theta = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
    phi = np.sqrt(n) * dft_matrix(n).conj()         # phi[m, col] = exp(+j2*pi*m*col/N)
    # tail of symbol m lands in the head of symbol m+1: shift its phase row
    phi_shift = np.zeros_like(phi)
    phi_shift[1:] = phi[:-1]
    blocks = (
        np.einsum("rm,mc,mkl->rckl", theta, phi, cf, optimize=True)
        + np.einsum("rm,mc,mkl->rckl", theta, phi_shift, df, optimize=True)
    )
    return blocks.transpose(0, 2, 1, 3).reshape(k * n, k * n) * (1.0 / n)


def drufmc_mmse(
    y_dd: np.ndarray,
    chan: ChannelMatrixSet,
    cfg: ModemConfig,
    sigma2: float,
) -> tuple[np.ndarray, np.ndarray]:
    """MMSE SINR grid and estimates through the block lower-bidiagonal T.

    Returns the (K, N) SINR and delay-Doppler estimate grids; equal to
    ``metrics.sinr_map`` and ``metrics.mmse_detect`` on
    :func:`drufmc_effective_channel` without forming it.
    """
    cf, x, r = _delay_domain_blocks(chan, cfg)
    f_n = dft_matrix(cfg.n)
    u = (np.asarray(y_dd) @ f_n.conj()).T          # U = Y_dd F_N^H, one row per symbol
    mse, a_hat = bidiagonal_mmse(cf, x, r, u, sigma2, f_n)
    return mmse_sinr(mse.T, sigma2), a_hat.T @ f_n


def drufmc_link(x_dd: np.ndarray, chan: ChannelMatrixSet, cfg: ModemConfig, sigma2: float,
                seed=None) -> tuple[np.ndarray, np.ndarray]:
    """Send ``x_dd`` over the CP-less ``chan`` with noise variance sigma^2 and MMSE-detect it.

    Returns the (K, N) SINR and delay-Doppler estimate grids of :func:`drufmc_mmse`.
    """
    r = apply_channel(drufmc_modulate(x_dd, cfg, _tx_guard(cfg)), chan, sigma2, seed)
    return drufmc_mmse(drufmc_demodulate(r, cfg), chan, cfg, sigma2)
