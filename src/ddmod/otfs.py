"""Delay-Doppler transceiver with oversampled IFFT/FFT and cyclic prefix.

The chain wraps the CP-OFDM core of :mod:`ddmod.ofdm` between the inverse
and forward symplectic transforms.  The effective channel maps the
vectorized K x N delay-Doppler input grid to the vectorized output grid.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .channel import ChannelMatrixSet
from .config import ModemConfig
from .ofdm import _guard_mask, apply_channel, ofdm_demodulate, ofdm_modulate, per_symbol_ft_channel
from .transforms import dft_matrix, isfft, sfft


@dataclass(frozen=True)
class EffectiveChannel:
    """Dense KN x KN map from vectorized input symbols to vectorized outputs."""

    matrix: np.ndarray
    p_t: float

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def otfs_modulate(x_dd: np.ndarray, cfg: ModemConfig, chan: ChannelMatrixSet | None = None) -> np.ndarray:
    """Serialize a delay-Doppler grid: ISFFT, oversampled IFFT, CP, vectorize.

    If a channel is supplied, warns when the CP is shorter than the channel
    memory; the resulting intra-block leakage stays part of the simulation.
    """
    if chan is not None and cfg.n_cp < chan.realization.l_ch - 1:
        warnings.warn(
            f"N_CP={cfg.n_cp} shorter than channel memory {chan.realization.l_ch - 1}; "
            "residual interference is simulated, not removed",
            stacklevel=2,
        )
    return ofdm_modulate(isfft(x_dd), cfg)


def otfs_apply_channel(
    s: np.ndarray,
    chan: ChannelMatrixSet,
    p_t: float,
    noise_var: float,
    seed=None,
) -> np.ndarray:
    """Received serialized signal sqrt(P_T) * M_blockdiag @ s + noise."""
    return apply_channel(s, chan, p_t, noise_var, seed)


def otfs_demodulate(r: np.ndarray, cfg: ModemConfig) -> np.ndarray:
    """Recover the delay-Doppler grid: CP/tail removal, oversampled FFT, SFFT."""
    return sfft(ofdm_demodulate(r, cfg))


def otfs_effective_channel(chan: ChannelMatrixSet, cfg: ModemConfig) -> EffectiveChannel:
    """Dense KN x KN delay-Doppler channel matrix.

    Per-symbol frequency-time maps B_i are conjugated into the delay domain,
    then combined across symbols with the Doppler-difference phases
    exp(-j2*pi*(i-1)*(n-n')/N); the result is block-circulant over the
    Doppler index, so only N distinct K x K blocks are formed.
    """
    k, n = cfg.k, cfg.n
    f_k = dft_matrix(k)
    null = _guard_mask(k, cfg.n_guard if cfg.guard_nulling == "tx" else 0)
    b_i = f_k.conj().T @ (per_symbol_ft_channel(chan, cfg) * null[np.newaxis, :]) @ f_k
    # B_dd[d] = sum_i B_i * exp(-j2*pi*(i-1)*d/N) with i counted from 1
    phases = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
    b_dd = np.einsum("id,ikl->dkl", phases, b_i)
    out = np.empty((k * n, k * n), dtype=complex)
    scale = np.sqrt(cfg.p_t) / n
    for row in range(n):
        for col in range(n):
            out[row * k:(row + 1) * k, col * k:(col + 1) * k] = scale * b_dd[(row - col) % n]
    return EffectiveChannel(matrix=out, p_t=cfg.p_t)
