"""Oversampled CP-OFDM modulator plus the two OFDM benchmark receivers.

The modulator here is the frequency-time core shared with the delay-Doppler
chain: data sits directly on the K x N frequency-time grid.  Two receivers
are provided, full multicarrier-multisymbol linear MMSE and classical
per-subcarrier one-tap FDE.

The channel is block-diagonal per symbol, so full MMSE needs no KN x KN
matrix: with C_i = B_i * diag(null) the K x K frequency-time
block of symbol i, the MMSE SINR of bin (k, i) is 1 / (sigma^2 [G_i]_kk) - 1
and the estimate of column i is G_i C_i^H y_i, G_i = (C_i^H C_i + sigma^2 I)^{-1}
(:func:`ofdm_full_mmse`).  The factor of that MMSE (:func:`mmse_factor`) is
OTFS's too, so a caller that runs both computes it once.
:func:`ofdm_full_link` and :func:`ofdm_onetap_link` run each receiver's whole
link.  :func:`ofdm_full_effective_channel` builds the dense block-diagonal
matrix as the reference.
"""

from __future__ import annotations

import numpy as np

from .channel import ChannelMatrixSet
from .config import ModemConfig, live_rows
from .mmse import mmse_sinr, per_symbol_factor, per_symbol_mmse
from .transforms import invec, oversampled_dft, oversampled_idft, vec


def _tx_guard(cfg: ModemConfig) -> int:
    """Edge subcarriers nulled each side at the transmitter: n_guard if guard_nulling is "tx"."""
    return cfg.n_guard if cfg.guard_nulling == "tx" else 0


def _tx_null(cfg: ModemConfig) -> np.ndarray:
    """1 on transmitted subcarriers, 0 on the :func:`_tx_guard` edge subcarriers each side."""
    mask = np.zeros(cfg.k)
    mask[live_rows(cfg.k, _tx_guard(cfg))] = 1.0
    return mask


def ofdm_modulate(x_ft: np.ndarray, cfg: ModemConfig, n_guard: int = 0) -> np.ndarray:
    """Serialize a K x N frequency-time grid: oversampled IFFT, CP, columnwise vec.

    A (..., K, N) stack of grids gives a (..., N*(K*O_s + N_CP)) stack of
    frames.  The 2*n_guard edge subcarriers are not transmitted: only the
    live rows enter the IFFT, as if the edge rows were zero.
    """
    x_ft = np.asarray(x_ft)
    if x_ft.shape[-2:] != (cfg.k, cfg.n):
        raise ValueError(f"dimension mismatch: expected {(cfg.k, cfg.n)}, got {x_ft.shape}")
    live = live_rows(cfg.k, n_guard)
    s = np.empty((*x_ft.shape[:-2], cfg.block_len, cfg.n), dtype=complex)
    w_h = oversampled_idft(cfg.k, cfg.o_s)[:, live]
    np.matmul(w_h, x_ft[..., live, :], out=s[..., cfg.n_cp:, :])
    s[..., :cfg.n_cp, :] = s[..., cfg.k * cfg.o_s:, :]      # A_cp: the last N_CP samples lead
    return vec(s)


def apply_channel(
    s: np.ndarray,
    chan: ChannelMatrixSet,
    noise_var: float,
    seed=None,
) -> np.ndarray:
    """Push a serialized signal through the per-symbol LTV matrices and add noise.

    Blocks are independent (block-diagonal channel) and are convolved with the
    active taps all at once; each output block gains L_ch - 1 tail samples.
    Noise is circular complex Gaussian with the given per-sample variance.
    """
    s = np.asarray(s)
    n_sym = len(chan)
    if s.size != n_sym * chan.cols:
        raise ValueError(
            f"dimension mismatch: signal length {s.size} != {n_sym} x {chan.cols}"
        )
    r = vec(chan.apply(invec(s, chan.cols)))
    if noise_var > 0:
        rng = np.random.default_rng(seed)
        w = rng.standard_normal(r.size) + 1j * rng.standard_normal(r.size)
        r = r + np.sqrt(noise_var / 2.0) * w
    return r


def _demodulate(r: np.ndarray, cfg: ModemConfig, n_cp: int) -> np.ndarray:
    """K x N frequency-time grid of N received blocks: R_cp keeps the K*O_s samples
    after ``n_cp`` CP samples, dropping the channel tail, then the oversampled FFT W."""
    r = np.asarray(r)
    if r.size % cfg.n != 0:
        raise ValueError(f"dimension mismatch: length {r.size} not divisible by N={cfg.n}")
    block, ko = r.size // cfg.n, cfg.k * cfg.o_s
    if block < n_cp + ko:
        raise ValueError(f"dimension mismatch: received block {block} shorter than {n_cp + ko}")
    return oversampled_dft(cfg.k, cfg.o_s) @ invec(r, block)[n_cp:n_cp + ko, :]


def ofdm_demodulate(r: np.ndarray, cfg: ModemConfig) -> np.ndarray:
    """Recover the K x N frequency-time grid: CP and tail removal, oversampled FFT."""
    return _demodulate(r, cfg, cfg.n_cp)


def _path_ft_blocks(chan: ChannelMatrixSet, cfg: ModemConfig, n_cp: int) -> np.ndarray:
    """:func:`per_symbol_ft_channel` for a chain with ``n_cp`` CP samples (0: no CP, R = I)."""
    k, ko = cfg.k, cfg.k * cfg.o_s
    if chan.cols != ko + n_cp:
        raise ValueError(f"dimension mismatch: {chan.cols} channel columns, expected {ko + n_cp}")
    seg = chan.taps[:, n_cp:n_cp + ko, :].transpose(0, 2, 1).copy()      # (N, P, KO_s)
    seg[:, np.arange(ko) < chan.tap_index[:, np.newaxis] - n_cp] = 0.0
    diffs = np.arange(1 - k, k)                                         # f_k' - f_k
    g = np.fft.fft(seg, axis=-1)[..., diffs % ko]                       # (N, P, 2K-1)
    phase = np.exp(-2j * np.pi * np.outer(chan.tap_index, np.arange(k) - k // 2) / ko)
    by_diff = np.swapaxes(g, 1, 2) @ (phase / ko)                       # (N, 2K-1, K)
    toeplitz = np.arange(k)[:, np.newaxis] - np.arange(k) + k - 1       # row of f_k' - f_k
    return np.take_along_axis(by_diff, toeplitz[np.newaxis], axis=1)


def per_symbol_ft_channel(chan: ChannelMatrixSet, cfg: ModemConfig) -> np.ndarray:
    """(N, K, K) stack of frequency-time channels W @ R_cp @ M_i @ A_cp @ W^H.

    R_cp keeps rows n_cp .. n_cp + K*O_s - 1 of the banded product; A_cp @ W^H
    is the CP-prefixed inverse DFT.  W^H is periodic in time, so block i sums
    one term per active tap j at delay l_j (the per-path ICI structure of
    Schniter, IEEE TSP 2004; Raviteja et al., IEEE TWC 2018):

        B_i[k', k] = (1/KO_s) sum_j exp(-j2*pi*l_j*f_k/KO_s) G_ij[(f_k' - f_k) mod KO_s]

    with f_k the centred subcarrier index and G_ij the FFT of
    taps[i, n_cp:n_cp + KO_s, j], zeroed where t < l_j - n_cp (a path longer
    than the CP reads there from before the CP).  ``chan`` must be the
    CP-bearing set, with K*O_s + N_CP columns.
    """
    return _path_ft_blocks(chan, cfg, cfg.n_cp)


def ofdm_full_effective_channel(chan: ChannelMatrixSet, cfg: ModemConfig) -> np.ndarray:
    """Block-diagonal KN x KN input/output map on the frequency-time grid.

    Symbol blocks are W @ H_i @ W^H; the block-diagonal channel
    model mixes nothing across symbols in this domain.
    """
    k, n = cfg.k, cfg.n
    blocks = per_symbol_ft_channel(chan, cfg) * _tx_null(cfg)
    out = np.zeros((k * n, k * n), dtype=complex)
    for i in range(n):
        out[i * k:(i + 1) * k, i * k:(i + 1) * k] = blocks[i]
    return out


def mmse_factor(ft: np.ndarray, cfg: ModemConfig, sigma2: float) -> np.ndarray:
    """:func:`~ddmod.mmse.per_symbol_factor` of the TX-nulled stack C_i = ``ft[i]`` * diag(null).

    It depends on ``cfg`` only through :func:`_tx_guard`, so every guard
    count under ``accounting`` shares one.
    """
    return per_symbol_factor(ft * _tx_null(cfg), sigma2)


def ofdm_full_mmse(
    y_ft: np.ndarray,
    ft: np.ndarray,
    cfg: ModemConfig,
    sigma2: float,
    l_inv: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Full MMSE SINR grid and estimates from the (N, K, K) frequency-time stack.

    One batched Cholesky of C_i^H C_i + sigma^2 I per symbol, or its
    :func:`mmse_factor` ``l_inv`` if given; bins whose column is exactly
    zero (TX-nulled guards) report SINR 0, as in ``metrics.sinr_map``.
    Returns the (K, N) SINR and estimate grids.
    """
    c = ft * _tx_null(cfg)
    mse, x_hat = per_symbol_mmse(c, y_ft, sigma2, l_inv=l_inv)
    live = np.any(c != 0, axis=1).T
    return np.where(live, mmse_sinr(mse.T, sigma2), 0.0), x_hat


def ofdm_onetap_fde(
    y_ft: np.ndarray,
    ft: np.ndarray,
    cfg: ModemConfig,
    noise_var: float,
) -> np.ndarray:
    """Per-subcarrier scalar equalization of a received frequency-time grid.

    ``ft`` is the (N, K, K) stack from :func:`per_symbol_ft_channel`.  The
    scalar channel of bin (k, i) is the diagonal of the symbol-i
    frequency-time matrix; inter-carrier leakage is left as noise.  The
    estimate is the MMSE scalar's, conj(c) y / (|c|^2 + sigma^2).
    """
    y_ft = np.asarray(y_ft)
    if y_ft.shape != (cfg.k, cfg.n):
        raise ValueError(f"dimension mismatch: expected {(cfg.k, cfg.n)}, got {y_ft.shape}")
    c = np.diagonal(ft, axis1=1, axis2=2).T
    return np.conj(c) * y_ft / (np.abs(c) ** 2 + noise_var)


def ofdm_onetap_sinr(ft: np.ndarray, cfg: ModemConfig, noise_var: float) -> np.ndarray:
    """Per-bin SINR of one-tap FDE: diagonal power over row residual plus noise.

    ``ft`` is the (N, K, K) stack from :func:`per_symbol_ft_channel`; TX-nulled
    guard columns carry nothing, so guard bins report SINR 0.
    """
    blk = ft * _tx_null(cfg)
    sig = np.abs(np.diagonal(blk, axis1=1, axis2=2)) ** 2
    interference = np.sum(np.abs(blk) ** 2, axis=2) - sig
    return (sig / (interference + noise_var)).T


def _receive(x_ft: np.ndarray, chan: ChannelMatrixSet, cfg: ModemConfig, sigma2: float,
             seed) -> np.ndarray:
    """Received frequency-time grid of ``x_ft``, sent without the TX-nulled guards."""
    r = apply_channel(ofdm_modulate(x_ft, cfg, _tx_guard(cfg)), chan, sigma2, seed)
    return ofdm_demodulate(r, cfg)


def ofdm_full_link(x_ft: np.ndarray, chan: ChannelMatrixSet, cfg: ModemConfig, sigma2: float,
                   seed=None, *, ft: np.ndarray,
                   l_inv: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Send ``x_ft`` over ``chan`` with noise variance sigma^2 and full-MMSE-detect it.

    ``ft`` is the channel's stack ``per_symbol_ft_channel(chan, cfg)`` and
    ``l_inv``, if given, its ``mmse_factor(ft, cfg, sigma2)``.
    Returns the (K, N) SINR and estimate grids of :func:`ofdm_full_mmse`.
    """
    return ofdm_full_mmse(_receive(x_ft, chan, cfg, sigma2, seed), ft, cfg, sigma2, l_inv)


def ofdm_onetap_link(x_ft: np.ndarray, chan: ChannelMatrixSet, cfg: ModemConfig, sigma2: float,
                     seed=None, *, ft: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Send ``x_ft`` over ``chan`` with noise variance sigma^2 and one-tap-equalize it.

    ``ft`` is the channel's stack ``per_symbol_ft_channel(chan, cfg)``.
    Returns the (K, N) SINR grid of :func:`ofdm_onetap_sinr` and the
    estimates of :func:`ofdm_onetap_fde`.
    """
    y_ft = _receive(x_ft, chan, cfg, sigma2, seed)
    return ofdm_onetap_sinr(ft, cfg, sigma2), ofdm_onetap_fde(y_ft, ft, cfg, sigma2)
