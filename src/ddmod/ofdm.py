"""Oversampled CP-OFDM modulator plus the two OFDM benchmark receivers.

The modulator here is the frequency-time core shared with the delay-Doppler
chain: data sits directly on the K x N frequency-time grid.  Two receivers
are provided, full multicarrier-multisymbol linear MMSE and classical
per-subcarrier one-tap FDE.

The channel is block-diagonal per symbol, so full MMSE needs no KN x KN
matrix: with C_i = sqrt(P_T) * B_i * diag(null) the K x K frequency-time
block of symbol i, the MMSE SINR of bin (k, i) is 1 / (sigma^2 [G_i]_kk) - 1
and the estimate of column i is G_i C_i^H y_i, G_i = (C_i^H C_i + sigma^2 I)^{-1}
(:func:`ofdm_full_mmse`).  :func:`ofdm_full_link` and :func:`ofdm_onetap_link`
run each receiver's whole link.  :func:`ofdm_full_effective_channel` builds
the dense block-diagonal matrix as the reference.
"""

from __future__ import annotations

import numpy as np

from .channel import ChannelMatrixSet
from .config import ModemConfig, check_guard_count
from .mmse import mmse_sinr, per_symbol_mmse
from .transforms import invec, oversampled_dft, oversampled_idft, vec


def _tx_guard(cfg: ModemConfig) -> int:
    """Edge subcarriers nulled each side at the transmitter: n_guard if guard_nulling is "tx"."""
    return cfg.n_guard if cfg.guard_nulling == "tx" else 0


def _tx_null(cfg: ModemConfig) -> np.ndarray:
    """1 on transmitted subcarriers, 0 on the :func:`_tx_guard` edge subcarriers each side."""
    mask = np.zeros(cfg.k)
    mask[_live_rows(cfg, _tx_guard(cfg))] = 1.0
    return mask


def _tx_stack(ft: np.ndarray, cfg: ModemConfig) -> np.ndarray:
    """sqrt(P_T) * ft with the :func:`_tx_null` guard columns zeroed, in one full-array product."""
    return ft * (np.sqrt(cfg.p_t) * _tx_null(cfg))


def _live_rows(cfg: ModemConfig, n_guard: int) -> slice:
    """Grid rows [n_guard, K - n_guard): every subcarrier but the 2*n_guard edge ones."""
    check_guard_count(n_guard, cfg.k)
    return slice(n_guard, cfg.k - n_guard)


def ofdm_modulate(x_ft: np.ndarray, cfg: ModemConfig, n_guard: int = 0) -> np.ndarray:
    """Serialize a K x N frequency-time grid: oversampled IFFT, CP, columnwise vec.

    A (..., K, N) stack of grids gives a (..., N*(K*O_s + N_CP)) stack of
    frames.  The 2*n_guard edge subcarriers are not transmitted: only the
    live rows enter the IFFT, as if the edge rows were zero.
    """
    x_ft = np.asarray(x_ft)
    if x_ft.shape[-2:] != (cfg.k, cfg.n):
        raise ValueError(f"dimension mismatch: expected {(cfg.k, cfg.n)}, got {x_ft.shape}")
    live = _live_rows(cfg, n_guard)
    s = np.empty((*x_ft.shape[:-2], cfg.block_len, cfg.n), dtype=complex)
    w_h = oversampled_idft(cfg.k, cfg.o_s)[:, live]
    np.matmul(w_h, x_ft[..., live, :], out=s[..., cfg.n_cp:, :])
    s[..., :cfg.n_cp, :] = s[..., cfg.k * cfg.o_s:, :]      # A_cp: the last N_CP samples lead
    return vec(s)


def apply_channel(
    s: np.ndarray,
    chan: ChannelMatrixSet,
    p_t: float,
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
    r = vec(np.sqrt(p_t) * chan.apply(invec(s, chan.cols)))
    if noise_var > 0:
        rng = np.random.default_rng(seed)
        w = rng.standard_normal(r.size) + 1j * rng.standard_normal(r.size)
        r = r + np.sqrt(noise_var / 2.0) * w
    return r


def ofdm_demodulate(r: np.ndarray, cfg: ModemConfig) -> np.ndarray:
    """Recover the K x N frequency-time grid: CP and tail removal, oversampled FFT."""
    r = np.asarray(r)
    if r.size % cfg.n != 0:
        raise ValueError(f"dimension mismatch: length {r.size} not divisible by N={cfg.n}")
    block = r.size // cfg.n
    l_ch = block - cfg.k * cfg.o_s - cfg.n_cp + 1
    if l_ch < 1:
        raise ValueError(f"dimension mismatch: received block {block} too short")
    rr = invec(r, block)
    z = rr[cfg.n_cp:cfg.n_cp + cfg.k * cfg.o_s, :]          # R_cp @ rr
    return oversampled_dft(cfg.k, cfg.o_s) @ z


def per_symbol_ft_channel(chan: ChannelMatrixSet, cfg: ModemConfig) -> np.ndarray:
    """(N, K, K) stack of frequency-time channels W @ R_cp @ M_i @ A_cp @ W^H.

    R_cp keeps rows n_cp .. n_cp + K*O_s - 1 of the banded product; A_cp @ W^H
    is the CP-prefixed inverse DFT, which folds the CP columns back.
    """
    ko = cfg.k * cfg.o_s
    w = oversampled_dft(cfg.k, cfg.o_s)
    wh = oversampled_idft(cfg.k, cfg.o_s)
    return chan.left_multiply(w, cfg.n_cp) @ np.concatenate((wh[ko - cfg.n_cp:], wh))


def ofdm_full_effective_channel(chan: ChannelMatrixSet, cfg: ModemConfig) -> np.ndarray:
    """Block-diagonal KN x KN input/output map on the frequency-time grid.

    Symbol blocks are sqrt(P_T) * W @ H_i @ W^H; the block-diagonal channel
    model mixes nothing across symbols in this domain.
    """
    k, n = cfg.k, cfg.n
    blocks = per_symbol_ft_channel(chan, cfg) * _tx_null(cfg)
    out = np.zeros((k * n, k * n), dtype=complex)
    for i in range(n):
        out[i * k:(i + 1) * k, i * k:(i + 1) * k] = np.sqrt(cfg.p_t) * blocks[i]
    return out


def ofdm_full_mmse(
    y_ft: np.ndarray,
    ft: np.ndarray,
    cfg: ModemConfig,
    sigma2: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Full MMSE SINR grid and estimates from the (N, K, K) frequency-time stack.

    One batched Cholesky of C_i^H C_i + sigma^2 I per symbol; bins whose
    column is exactly zero (TX-nulled guards) report SINR 0, as in
    ``metrics.sinr_map``.  Returns the (K, N) SINR and estimate grids.
    """
    c = _tx_stack(ft, cfg)
    mse, x_hat = per_symbol_mmse(c, y_ft, sigma2)
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
    MMSE scalar shrinks by |c|^2 + sigma^2/P_T, the ZF variant divides by c.
    """
    y_ft = np.asarray(y_ft)
    if y_ft.shape != (cfg.k, cfg.n):
        raise ValueError(f"dimension mismatch: expected {(cfg.k, cfg.n)}, got {y_ft.shape}")
    c = np.diagonal(ft, axis1=1, axis2=2).T
    y = y_ft / np.sqrt(cfg.p_t)
    if cfg.onetap == "zf":
        return y / c
    return np.conj(c) * y / (np.abs(c) ** 2 + noise_var / cfg.p_t)


def ofdm_onetap_sinr(ft: np.ndarray, cfg: ModemConfig, noise_var: float) -> np.ndarray:
    """Per-bin SINR of one-tap FDE: diagonal power over row residual plus noise.

    ``ft`` is the (N, K, K) stack from :func:`per_symbol_ft_channel`; TX-nulled
    guard columns carry nothing, so guard bins report SINR 0.  Scalar
    equalization rescales the whole observation row, so the SINR does not
    depend on the MMSE/ZF choice.
    """
    blk = _tx_stack(ft, cfg)
    sig = np.abs(np.diagonal(blk, axis1=1, axis2=2)) ** 2
    interference = np.sum(np.abs(blk) ** 2, axis=2) - sig
    return (sig / (interference + noise_var)).T


def _receive(x_ft: np.ndarray, chan: ChannelMatrixSet, cfg: ModemConfig, sigma2: float,
             seed) -> np.ndarray:
    """Received frequency-time grid of ``x_ft``, sent without the TX-nulled guards."""
    r = apply_channel(ofdm_modulate(x_ft, cfg, _tx_guard(cfg)), chan, cfg.p_t, sigma2, seed)
    return ofdm_demodulate(r, cfg)


def ofdm_full_link(x_ft: np.ndarray, chan: ChannelMatrixSet, cfg: ModemConfig, sigma2: float,
                   seed=None, *, ft: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Send ``x_ft`` over ``chan`` with noise variance sigma^2 and full-MMSE-detect it.

    ``ft`` is the channel's stack ``per_symbol_ft_channel(chan, cfg)``.
    Returns the (K, N) SINR and estimate grids of :func:`ofdm_full_mmse`.
    """
    return ofdm_full_mmse(_receive(x_ft, chan, cfg, sigma2, seed), ft, cfg, sigma2)


def ofdm_onetap_link(x_ft: np.ndarray, chan: ChannelMatrixSet, cfg: ModemConfig, sigma2: float,
                     seed=None, *, ft: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Send ``x_ft`` over ``chan`` with noise variance sigma^2 and one-tap-equalize it.

    ``ft`` is the channel's stack ``per_symbol_ft_channel(chan, cfg)``.
    Returns the (K, N) SINR grid of :func:`ofdm_onetap_sinr` and the
    estimates of :func:`ofdm_onetap_fde`.
    """
    y_ft = _receive(x_ft, chan, cfg, sigma2, seed)
    return ofdm_onetap_sinr(ft, cfg, sigma2), ofdm_onetap_fde(y_ft, ft, cfg, sigma2)
