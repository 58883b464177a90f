"""Doppler-resilient filtered multicarrier chain: subband-filtered oversampled
modulation with continuous-packet overlap and no cyclic prefix, wrapped in
delay-Doppler pre/post processing.

Consecutive filtered symbols overlap by the filter tail (L - 1 samples) and
the final tail is dropped, so a frame occupies exactly K*O_s*N samples, the
same air time as the CP-bearing chain's payload.  The transmitter takes the
oversampled inverse FFT of each symbol weighted by the subband filters' gains
resp, the circular block W^H diag(resp) x.  The filtered symbol differs from
it only in its first and last L - 1 samples, by the precoder tail P_tail x:
each block gives that up from its head and takes the previous symbol's from
it, the overlap-add done with one (L - 1) x K product per symbol
(:func:`ufmc_modulate_ft`).  resp and P_tail are closed forms over the L
filter taps (:func:`_filter_response`); the dense precoder of
:func:`~ddmod.transforms.ufmc_precoder` is their reference.

In the delay-time domain (A = X_dd F_N^H in, U = Y_dd F_N^H out) the channel is
block lower-bidiagonal: U[:, m] = T[m, m] A[:, m] + T[m, m-1] A[:, m-1] with
T[m, m] = C_m and T[m, m-1] = D_m, the per-symbol head and overlap-tail maps of
:func:`_delay_domain_blocks`, built path by path, each weighted by its Doppler
phase on symbol m: C_m = F_K^H B_m diag(resp) F_K - D_m, with B_m the
:func:`~ddmod.ofdm.per_symbol_ft_channel` block of the CP-less set and resp the
subband filters' gains, and D_m = X_m R from the L - 1 channel columns the tail
reaches: R, the precoder's tail rows, is the same (L - 1) x K factor for every
symbol.  R is the Dolph-Chebyshev filter ramp, whose singular values fall fast
(numerical rank r = 24 of L - 1 = 59 at table 1), so the tail is kept at that
rank, at every scale: D_m = (X_m U_r S_r) V_r^H from R's thin SVD.  The dense
delay-Doppler channel is V T V^H with V = F_N (x) I_K, so its MMSE error
covariance is sigma^2 V G V^H, G = (T^H T + sigma^2 I)^{-1}.  The Doppler DFT
mixes the diagonals of every block of G, so :func:`drufmc_mmse` takes them from
a selected inverse that keeps the tails in that rank-r form (O(N^2 r^2 K +
N K^3) work, O(N K^2) memory, no K x K tail formed); :func:`drufmc_link` runs the
whole link.  :func:`drufmc_effective_channel` builds the dense matrix as the
reference.  Links and detectors take the channel as a
:class:`~ddmod.ofdm.LinkChannel` and read its CP-less set.
"""

from __future__ import annotations

import functools

import numpy as np

from .channel import ChannelMatrixSet
from .config import ModemConfig, live_rows
from .mmse import _symbol_chunks, bidiagonal_mmse, mmse_sinr
from .ofdm import (LinkChannel, _demodulate, _symbol_blocks, _tx_guard, _tx_null, apply_channel,
                   per_symbol_ft_channel)
from .transforms import dft_matrix, isfft, prototype_filter, sfft


@functools.cache
def _filter_response(cfg: ModemConfig) -> tuple[np.ndarray, np.ndarray]:
    """(resp, P_tail): the subband filters' gains on the K subcarriers and the
    precoder's last L - 1 rows, read-only and memoized per config.

    Column k of the precoder is the prototype's L taps h_l, shifted to the
    centre F_(k//D) of subband k//D, convolved with W^H[:, k], the tone
    exp(j2*pi*t*f_k/(K*O_s)) / sqrt(K*O_s) with f_k = k - K/2.  As
    F_(k//D) - f_k = (D-1)/2 - (k mod D), with Phi[l, k] =
    h_l exp(j2*pi*l*((D-1)/2 - k mod D)/(K*O_s)) the gain is resp[k] =
    sum_l Phi[l, k], the same in every subband, and tail row s (row K*O_s + s
    of the precoder) is exp(j2*pi*s*f_k/(K*O_s)) / sqrt(K*O_s) sum_{l > s}
    Phi[l, k]: the taps that reach past the block.  No precoder is formed;
    ``ufmc_precoder`` is the reference.
    """
    ko, ell = cfg.k * cfg.o_s, np.arange(cfg.filter_len)[:, np.newaxis]
    k = np.arange(cfg.k)
    offset = (cfg.d - 1) / 2.0 - k % cfg.d                                   # F_(k//D) - f_k
    phi = prototype_filter(cfg)[:, np.newaxis] * np.exp(2j * np.pi * ell * offset / ko)
    later = np.cumsum(phi[:0:-1], axis=0)[::-1]                              # rows l > s
    f = k - cfg.k // 2
    out = phi.sum(axis=0), later * (np.exp(2j * np.pi * ell[:-1] * f / ko) / np.sqrt(ko))
    for a in out:
        a.flags.writeable = False
    return out


def ufmc_modulate_ft(x_ft: np.ndarray, cfg: ModemConfig, n_guard: int = 0) -> np.ndarray:
    """Serialize a frequency-time grid through the filtered-subband transmitter.

    A (..., K, N) stack of grids gives a (..., K*O_s*N) stack of frames.  The
    2*n_guard edge subcarriers are not transmitted: only the live rows enter
    the transmitter, as if the edge rows were zero.  Each symbol's circular
    block W^H diag(resp) x_i loses P_tail x_i from its first L - 1 samples
    and gains P_tail x_(i-1) there; the last symbol's tail is dropped.
    """
    x_ft = np.asarray(x_ft)
    resp, p_tail = _filter_response(cfg)
    s = _symbol_blocks(x_ft, cfg, n_guard, 0, resp)
    live = live_rows(cfg.k, n_guard)
    tail = np.swapaxes(p_tail[:, live] @ x_ft[..., live, :], -1, -2)       # (..., N, L-1)
    head = s[..., :cfg.filter_len - 1]
    head -= tail
    head[..., 1:, :] += tail[..., :-1, :]
    return s.reshape(*s.shape[:-2], -1)


def drufmc_modulate(x_dd: np.ndarray, cfg: ModemConfig, n_guard: int = 0) -> np.ndarray:
    """Delay-Doppler grid to a K*O_s*N-sample signal (no CP), 2*n_guard edge subcarriers nulled."""
    return ufmc_modulate_ft(isfft(x_dd), cfg, n_guard)


def drufmc_demodulate(r: np.ndarray, cfg: ModemConfig) -> np.ndarray:
    """Recover the delay-Doppler grid: drop channel tails, oversampled FFT, SFFT."""
    return sfft(_demodulate(r, cfg, 0))


@functools.cache
def _precoder_tail(cfg: ModemConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """R = P_tail F_K and its thin-SVD factors (U_r S_r, V_r^H) at R's numerical rank r.

    P_tail is the precoder's last L - 1 rows, TX-guard nulled.  The kept
    singular values are those above s_0 * max(R.shape) * eps, the tolerance
    of ``numpy.linalg.matrix_rank``.  R depends on the config alone, so the
    three arrays are read-only and memoized per config.
    """
    r = np.fft.fft(_filter_response(cfg)[1] * _tx_null(cfg), axis=-1)
    u, s, vh = np.linalg.svd(r, full_matrices=False)
    rank = np.count_nonzero(s > s[0] * max(r.shape) * np.finfo(float).eps) if s.size else 0
    out = r, u[:, :rank] * s[:rank], vh[:rank]
    for a in out:
        a.flags.writeable = False
    return out


def _delay_domain_blocks(chan: ChannelMatrixSet,
                         cfg: ModemConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Symbol m's head map C_m and overlap-tail map D_m = X_m R, delay domain in and out.

    Returns the (N, K, K) stack of C_m and D_m's two factors, an (N, K, r)
    stack and an (r, K) matrix, with r the numerical rank of the precoder
    tail (at most L - 1).  C_m = F_K^H W (R_tail M_m) P_head F_K carries
    symbol m into its own block; D_m = F_K^H W M_m[:K*O_s, :L-1] P_tail F_K carries symbol
    m - 1's tail into block m, with X_m = F_K^H W M_m[:K*O_s, :L-1] and
    R = P_tail F_K.  P_head / P_tail are the first K*O_s / last L - 1 precoder
    rows, TX-guard nulled.  P_head is the steady state W^H diag(resp) less
    P_tail in its first L - 1 rows, so C_m = F_K^H B_m diag(resp) F_K - D_m,
    with B_m the :func:`~ddmod.ofdm.per_symbol_ft_channel` block of ``chan``.
    The heads subtract the full X_m R; the tail pair returned is
    (X_m U_r S_r, V_r^H) from R's thin SVD (:func:`_precoder_tail`), at any
    rank r <= L - 1.  Column t of the band W M_m[:K*O_s, :L-1] sums entry e's
    tap at row t + l_e times W's column there, exp(-j2*pi*t*f/(K*O_s)) times
    exp(-j2*pi*l_e*f/(K*O_s)) / sqrt(K*O_s): one phase per column and one per
    entry, so W is not formed.  The heads are transformed in place and take
    X_m R a chunk of symbols at a time.  ``chan`` must be the CP-less set, with
    K*O_s columns.
    """
    ko = cfg.k * cfg.o_s
    if chan.cols != ko:
        raise ValueError(f"dimension mismatch: {chan.cols} channel columns, expected {ko}")
    resp = _filter_response(cfg)[0] * _tx_null(cfg)
    t = np.arange(cfg.filter_len - 1)
    rows = t[:, np.newaxis] + chan.tap_index                           # band, columns < L-1
    h = chan.taps[rows, np.arange(rows.shape[1])] * (rows < ko)        # R_tail: rows < K*O_s
    # W M_m[:K*O_s, :L-1]: W[f, t + l_e] = exp(-j2*pi*t*f/KO_s) exp(-j2*pi*l_e*f/KO_s) / sqrt(KO_s)
    f = np.arange(cfg.k) - cfg.k // 2
    delay = np.exp(-2j * np.pi * np.outer(f, chan.tap_index) / ko) / np.sqrt(ko)   # (K, E)
    band = (delay * chan.phase[:, np.newaxis]) @ h.T                   # (N, K, L-1)
    band *= np.exp(-2j * np.pi * np.outer(f, t) / ko)
    # F_K^H (.) F_K: an inverse FFT down the columns, then an FFT along the rows;
    # the tail D_m = X_m R takes the first in X_m and the second in R
    x = np.fft.ifft(band, axis=-2, out=band)
    r, us, vh = _precoder_tail(cfg)
    head = per_symbol_ft_channel(chan, cfg)
    head *= resp
    np.fft.ifft(head, axis=-2, out=head)
    np.fft.fft(head, axis=-1, out=head)
    for sl in _symbol_chunks(head):
        head[sl] -= x[sl] @ r
    return head, x @ us, vh                    # X_m R = (X_m U_r S_r) V_r^H


def drufmc_effective_channel(chan: ChannelMatrixSet, cfg: ModemConfig) -> np.ndarray:
    """Dense KN x KN delay-Doppler channel V T V^H, with V = F_N (x) I_K.

    T is the block lower-bidiagonal delay-time channel on an (N, K, N, K) array:
    T[m, m] = C_m and T[m, m-1] = X_m R, from :func:`_delay_domain_blocks`.
    """
    k, n = cfg.k, cfg.n
    head, x, r = _delay_domain_blocks(chan, cfg)
    t = np.zeros((n, k, n, k), dtype=complex)
    m = np.arange(n)
    t[m, :, m] = head
    t[m[1:], :, m[:-1]] = (x @ r)[1:]
    f_n = dft_matrix(n)
    return np.einsum("nm,mkpl,qp->nkql", f_n, t, f_n.conj(), optimize=True).reshape(k * n, -1)


def drufmc_mmse(y: np.ndarray, channel: LinkChannel, cfg: ModemConfig,
                sigma2: float) -> tuple[np.ndarray, np.ndarray]:
    """MMSE SINR grid and estimates of the received delay-Doppler grid ``y``
    through the block lower-bidiagonal T of ``channel``'s CP-less set.

    Returns the (K, N) SINR and delay-Doppler estimate grids; equal to
    ``metrics.sinr_map`` and ``metrics.mmse_detect`` on
    :func:`drufmc_effective_channel` without forming it.
    """
    cf, x, r = _delay_domain_blocks(channel.channel(False), cfg)
    f_n = dft_matrix(cfg.n)
    u = (np.asarray(y) @ f_n.conj()).T             # U = Y_dd F_N^H, one row per symbol
    mse, a_hat = bidiagonal_mmse(cf, x, r, u, sigma2, f_n)   # overwrites cf with its factors
    return mmse_sinr(mse.T, sigma2), a_hat.T @ f_n


def drufmc_link(x: np.ndarray, channel: LinkChannel, cfg: ModemConfig, sigma2: float,
                seed=None) -> tuple[np.ndarray, np.ndarray]:
    """Send ``x`` over ``channel``'s CP-less set with noise variance sigma^2 and MMSE-detect it.

    Returns the (K, N) SINR and delay-Doppler estimate grids of :func:`drufmc_mmse`.
    """
    r = apply_channel(drufmc_modulate(x, cfg, _tx_guard(cfg)), channel.channel(False), sigma2,
                      seed)
    return drufmc_mmse(drufmc_demodulate(r, cfg), channel, cfg, sigma2)
