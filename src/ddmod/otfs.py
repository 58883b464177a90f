"""Delay-Doppler transceiver with oversampled IFFT/FFT and cyclic prefix.

The chain wraps the CP-OFDM core of :mod:`ddmod.ofdm` between the inverse
and forward symplectic transforms.  The effective channel maps the
vectorized K x N delay-Doppler input grid to the vectorized output grid.

That channel is OFDM-full's block-diagonal frequency-time channel C_FT
conjugated by the unitary Q = F_N^* (x) F_K (vec(isfft(X)) = Q vec(X)), so
G = (C^H C + sigma^2 I)^{-1} is Q^H blockdiag(G_i) Q.  Its diagonal at
delay k is mean_i [F_K^H G_i F_K]_kk for every Doppler bin, and the MMSE
estimate is sfft of the per-symbol MMSE estimate of isfft(y)
(:func:`otfs_mmse`, on the factor of G_i^{-1} that a
:class:`~ddmod.ofdm.LinkChannel` shares with OFDM-full; :func:`otfs_link`
runs the whole link).
:func:`otfs_effective_channel` builds the dense Q^H C Q as the reference.
"""

from __future__ import annotations

import numpy as np

from .channel import ChannelMatrixSet
from .config import ModemConfig
from .mmse import mmse_sinr, per_symbol_mmse
from .ofdm import (LinkChannel, _tx_guard, _tx_null, apply_channel, ofdm_demodulate,
                   ofdm_modulate, per_symbol_ft_channel)
from .transforms import dft_matrix, isfft, sfft


def otfs_modulate(x_dd: np.ndarray, cfg: ModemConfig, n_guard: int = 0) -> np.ndarray:
    """Serialize a delay-Doppler grid: ISFFT, oversampled IFFT, CP, vectorize.

    The 2*n_guard edge subcarriers are not transmitted.
    """
    return ofdm_modulate(isfft(x_dd), cfg, n_guard)


def otfs_demodulate(r: np.ndarray, cfg: ModemConfig) -> np.ndarray:
    """Recover the delay-Doppler grid: CP/tail removal, oversampled FFT, SFFT."""
    return sfft(ofdm_demodulate(r, cfg))


def otfs_effective_channel(chan: ChannelMatrixSet, cfg: ModemConfig) -> np.ndarray:
    """Dense KN x KN delay-Doppler channel Q^H C Q, with Q = F_N^* (x) F_K.

    C's blocks C_i are the TX-nulled :func:`~ddmod.ofdm.per_symbol_ft_channel` stack, so the
    channel is sum_i (F_N e_i e_i^T F_N^*) (x) (F_K^H C_i F_K), summed on an (N, K, N, K) array.
    """
    f_k, f_n = dft_matrix(cfg.k), dft_matrix(cfg.n)
    b = f_k.conj().T @ (per_symbol_ft_channel(chan, cfg) * _tx_null(cfg)) @ f_k
    out = np.einsum("ni,mi,ikl->nkml", f_n, f_n.conj(), b, optimize=True)
    return out.reshape(cfg.k * cfg.n, -1)


def otfs_mmse(y: np.ndarray, channel: LinkChannel, cfg: ModemConfig,
              sigma2: float) -> tuple[np.ndarray, np.ndarray]:
    """MMSE SINR grid and estimates of the received delay-Doppler grid ``y``.

    Detects through the TX-nulled stack and factor that ``channel`` shares
    with :func:`ddmod.ofdm.ofdm_full_mmse`
    (:meth:`~ddmod.ofdm.LinkChannel.nulled_stack_and_factor`); the SINR is
    1 / (sigma^2 mean_i diag(F_K^H G_i F_K)) - 1, equal across Doppler bins.
    Returns the (K, N) SINR and delay-Doppler estimate grids.
    """
    c, l_inv = channel.nulled_stack_and_factor(cfg, sigma2)
    mse, x_ft = per_symbol_mmse(c, isfft(y), l_inv, fourier=True)
    sinr = mmse_sinr(mse.mean(axis=0), sigma2)
    return np.repeat(sinr[:, np.newaxis], cfg.n, axis=1), sfft(x_ft)


def otfs_link(x: np.ndarray, channel: LinkChannel, cfg: ModemConfig, sigma2: float,
              seed=None) -> tuple[np.ndarray, np.ndarray]:
    """Send ``x`` over ``channel`` with noise variance sigma^2 and MMSE-detect it.

    Returns the (K, N) SINR and delay-Doppler estimate grids of :func:`otfs_mmse`.
    """
    r = apply_channel(otfs_modulate(x, cfg, n_guard=_tx_guard(cfg)), channel.channel(True),
                      sigma2, seed)
    return otfs_mmse(otfs_demodulate(r, cfg), channel, cfg, sigma2)
