"""Oversampled CP-OFDM modulator, the two OFDM benchmark receivers, and the
channel object every link runs on.

The modulator here is the frequency-time core shared with the delay-Doppler
chain: data sits directly on the K x N frequency-time grid.  Each symbol
takes one K*O_s-point inverse FFT of its K centred subcarriers, written
behind its CP; each receiver takes one K*O_s-point FFT of its kept window
and keeps the K centred bins (:func:`_demodulate`).  The dense W of
:mod:`ddmod.transforms` is their reference.  Two receivers are provided,
full multicarrier-multisymbol linear MMSE and classical per-subcarrier
one-tap FDE.

The channel is block-diagonal per symbol, so full MMSE needs no KN x KN
matrix: with C_i = B_i * diag(null) the K x K frequency-time
block of symbol i, the MMSE SINR of bin (k, i) is 1 / (sigma^2 [G_i]_kk) - 1
and the estimate of column i is G_i C_i^H y_i, G_i = (C_i^H C_i + sigma^2 I)^{-1}
(:func:`ofdm_full_mmse`).  Every link takes its channel as one
:class:`LinkChannel`: a realization that builds its frequency-time stack and
the TX-nulled stack's MMSE factor on first use, so receivers that share it
(OTFS and OFDM-full) share both.  :func:`ofdm_full_link` and
:func:`ofdm_onetap_link` run each receiver's whole link.
:func:`ofdm_full_effective_channel` builds the dense block-diagonal matrix as
the reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import channel as ch
from .channel import ChannelMatrixSet, PathSet
from .config import ModemConfig, live_rows
from .mmse import _symbol_chunks, mmse_sinr, per_symbol_factor, per_symbol_mmse


def _tx_guard(cfg: ModemConfig) -> int:
    """Edge subcarriers nulled each side at the transmitter: n_guard if guard_nulling is "tx"."""
    return cfg.n_guard if cfg.guard_nulling == "tx" else 0


def _tx_null(cfg: ModemConfig) -> np.ndarray:
    """1 on transmitted subcarriers, 0 on the :func:`_tx_guard` edge subcarriers each side."""
    mask = np.zeros(cfg.k)
    mask[live_rows(cfg.k, _tx_guard(cfg))] = 1.0
    return mask


def _symbol_blocks(x_ft: np.ndarray, cfg: ModemConfig, n_guard: int, lead: int,
                   gain: np.ndarray | None = None) -> np.ndarray:
    """(..., N, lead + K*O_s) buffer of the blocks W^H diag(gain) x_i behind ``lead`` zeros.

    x_i is column i of a (..., K, N) grid with its 2*n_guard edge rows left
    out, and ``gain`` (length K) defaults to ones.  Subcarrier l goes to bin
    (l - K/2) mod K*O_s, and one orthonormal inverse FFT per symbol runs in
    place.
    """
    if x_ft.shape[-2:] != (cfg.k, cfg.n):
        raise ValueError(f"dimension mismatch: expected {(cfg.k, cfg.n)}, got {x_ft.shape}")
    live = live_rows(cfg.k, n_guard)
    ko, m = cfg.k * cfg.o_s, cfg.k // 2 - n_guard       # m live subcarriers each side of K/2
    x = np.swapaxes(x_ft[..., live, :], -1, -2)                      # (..., N, K - 2 N_G)
    if gain is not None:
        x = x * gain[live]
    out = np.zeros((*x.shape[:-1], lead + ko), dtype=complex)
    bins = out[..., lead:]
    bins[..., :m] = x[..., m:]                                        # l >= K/2: bins 0, 1, ...
    bins[..., ko - m:] = x[..., :m]                                   # l < K/2: bins ..., -1
    np.fft.ifft(bins, axis=-1, norm="ortho", out=bins)
    return out


def ofdm_modulate(x_ft: np.ndarray, cfg: ModemConfig, n_guard: int = 0) -> np.ndarray:
    """Serialize a K x N frequency-time grid: oversampled IFFT, CP, columnwise vec.

    A (..., K, N) stack of grids gives a (..., N*(K*O_s + N_CP)) stack of
    frames.  The 2*n_guard edge subcarriers are not transmitted: only the
    live rows enter the IFFT, as if the edge rows were zero.
    """
    ko = cfg.k * cfg.o_s
    s = _symbol_blocks(np.asarray(x_ft), cfg, n_guard, cfg.n_cp)
    s[..., :cfg.n_cp] = s[..., ko:]                 # A_cp: the last N_CP samples lead
    return s.reshape(*s.shape[:-2], -1)


def apply_channel(
    s: np.ndarray,
    chan: ChannelMatrixSet,
    noise_var: float,
    seed=None,
) -> np.ndarray:
    """Push a serialized signal through the per-symbol LTV matrices and add noise.

    The signal is read as its N symbol rows of ``chan.cols`` samples.  Blocks
    are independent (block-diagonal channel) and are convolved path by path,
    all symbols at once; each output block gains L_ch - 1 tail samples, and
    the output rows are serialized in symbol order.  Noise is circular complex
    Gaussian with the given per-sample variance.
    """
    s = np.asarray(s)
    n_sym = len(chan)
    if s.size != n_sym * chan.cols:
        raise ValueError(
            f"dimension mismatch: signal length {s.size} != {n_sym} x {chan.cols}"
        )
    r = chan.apply(s.reshape(n_sym, chan.cols)).reshape(-1)
    if noise_var > 0:
        rng = np.random.default_rng(seed)
        w = rng.standard_normal(r.size) + 1j * rng.standard_normal(r.size)
        r = r + np.sqrt(noise_var / 2.0) * w
    return r


def _demodulate(r: np.ndarray, cfg: ModemConfig, n_cp: int) -> np.ndarray:
    """K x N frequency-time grid of N received blocks: R_cp keeps the K*O_s samples
    after ``n_cp`` CP samples, dropping the channel tail, then the oversampled DFT W,
    taken as one K*O_s-point FFT per block whose K centred bins are kept."""
    r = np.asarray(r)
    if r.size % cfg.n != 0:
        raise ValueError(f"dimension mismatch: length {r.size} not divisible by N={cfg.n}")
    block, ko = r.size // cfg.n, cfg.k * cfg.o_s
    if block < n_cp + ko:
        raise ValueError(f"dimension mismatch: received block {block} shorter than {n_cp + ko}")
    spec = np.fft.fft(r.reshape(cfg.n, block)[:, n_cp:n_cp + ko], axis=-1, norm="ortho")
    half = cfg.k // 2
    return np.concatenate((spec[:, ko - half:], spec[:, :half]), axis=-1).T  # bins -K/2 .. K/2-1


def ofdm_demodulate(r: np.ndarray, cfg: ModemConfig) -> np.ndarray:
    """Recover the K x N frequency-time grid: CP and tail removal, oversampled FFT."""
    return _demodulate(r, cfg, cfg.n_cp)


def per_symbol_ft_channel(chan: ChannelMatrixSet, cfg: ModemConfig) -> np.ndarray:
    """(N, K, K) stack of frequency-time channels W @ R_cp @ M_i @ A_cp @ W^H, either chain's.

    The CP width n_cp is ``chan.cols`` - K*O_s: N_CP for the CP-bearing set
    the CP receivers read, 0 for the CP-less set of DR-UFMC's heads (R_cp =
    A_cp = I).  R_cp keeps rows n_cp .. n_cp + K*O_s - 1 of the banded
    product; A_cp @ W^H is the CP-prefixed inverse DFT.  W^H is periodic in
    time, so block i sums one term per stored entry e at delay l_e (the
    per-path ICI structure of Schniter, IEEE TSP 2004; Raviteja et al., IEEE
    TWC 2018):

        B_i[k', k] = (1/KO_s) sum_e phase[i, e] exp(-j2*pi*l_e*f_k/KO_s) G_e[(f_k' - f_k) mod KO_s]

    with f_k the centred subcarrier index and G_e the FFT of
    taps[n_cp:n_cp + KO_s, e] (one per entry, for every symbol), zeroed where
    t < l_e - n_cp (a path longer than the CP reads there from before the
    CP).
    """
    k, ko = cfg.k, cfg.k * cfg.o_s
    n_cp = chan.cols - ko
    if n_cp not in (0, cfg.n_cp):
        raise ValueError(f"dimension mismatch: CP width {n_cp} is neither 0 nor {cfg.n_cp}")
    seg = chan.taps[n_cp:n_cp + ko].T.copy()                            # (E, KO_s)
    seg[np.arange(ko) < chan.tap_index[:, np.newaxis] - n_cp] = 0.0
    diffs = np.arange(1 - k, k)                                         # f_k' - f_k
    g = np.fft.fft(seg, axis=-1)[:, diffs % ko].T                       # (2K-1, E)
    delay = np.exp(-2j * np.pi * np.outer(chan.tap_index, np.arange(k) - k // 2) / ko)
    weights = chan.phase[:, :, np.newaxis] * (delay / ko)               # (N, E, K)
    out = np.empty((len(chan), k, k), dtype=complex)
    for sl in _symbol_chunks(out):
        by_diff = g @ weights[sl]                                       # (symbols, 2K-1, K)
        s_sym, s_row, s_col = by_diff.strides
        # block[k', k] = by_diff[K-1 + k' - k, k]: a strided view from row K-1, rows 0 .. 2K-2
        out[sl] = as_strided(by_diff[:, k - 1:], out[sl].shape, (s_sym, s_row, s_col - s_row))
    return out


def ofdm_full_effective_channel(chan: ChannelMatrixSet, cfg: ModemConfig) -> np.ndarray:
    """Dense KN x KN frequency-time channel C = blockdiag(C_i): no symbol mixes with another.

    Block C_i = W H_i W^H (TX-nulled :func:`per_symbol_ft_channel`) sits at (i, i) of (N, K, N, K).
    """
    k, n = cfg.k, cfg.n
    out = np.zeros((n, k, n, k), dtype=complex)
    i = np.arange(n)
    out[i, :, i] = per_symbol_ft_channel(chan, cfg) * _tx_null(cfg)
    return out.reshape(k * n, -1)


@dataclass(eq=False)
class LinkChannel:
    """The channel of ``paths`` as every link reads it, with the work its receivers share.

    ``paths`` is realized once, for the CP-bearing chain, on first use; the
    CP-less set shares its taps and phases with K*O_s columns (:meth:`channel`).
    The (N, K, K) frequency-time stack of the CP-bearing set (:attr:`ft`)
    serves every CP receiver; OTFS and OFDM-full share its TX-nulled form, one
    per TX-guard count, and that form's MMSE factor, one per sigma^2 and count
    (:meth:`nulled_stack_and_factor`).  The guard count does not enter the
    channel, so links whose configs differ only in it share one.  The
    realization, stacks and factors are each built on first use and live as
    long as the object.
    """

    paths: PathSet
    cfg: ModemConfig
    _nulled: dict = field(default_factory=dict, init=False, repr=False)  # guard: (C, {s2: L^-1})

    @cached_property
    def _cp_set(self) -> ChannelMatrixSet:
        return ch.realize(self.paths, self.cfg, with_cp=True)

    def channel(self, with_cp: bool) -> ChannelMatrixSet:
        """The banded channel sized for the CP-bearing or the CP-less chain."""
        return self._cp_set if with_cp else ch.channel_matrices(self._cp_set, self.cfg, False)

    @cached_property
    def ft(self) -> np.ndarray:
        """:func:`per_symbol_ft_channel` of the CP-bearing set."""
        return per_symbol_ft_channel(self._cp_set, self.cfg)

    def nulled_stack_and_factor(self, cfg: ModemConfig, sigma2: float) -> tuple:
        """(C, L^-1): the TX-nulled stack C = ``ft`` * diag(null) and its
        :func:`~ddmod.mmse.per_symbol_factor`, kept per :func:`_tx_guard` count
        (not ``n_guard``) and sigma^2.  With no guard nulled, C is ``ft`` itself."""
        guard = _tx_guard(cfg)
        if guard not in self._nulled:
            self._nulled[guard] = (self.ft * _tx_null(cfg) if guard else self.ft, {})
        c, factors = self._nulled[guard]
        if sigma2 not in factors:
            factors[sigma2] = per_symbol_factor(c, sigma2)
        return c, factors[sigma2]


def ofdm_full_mmse(y: np.ndarray, channel: LinkChannel, cfg: ModemConfig,
                   sigma2: float) -> tuple[np.ndarray, np.ndarray]:
    """Full MMSE SINR grid and estimates of the received frequency-time grid ``y``.

    Detects through ``channel``'s shared TX-nulled stack C and its factor
    (:meth:`LinkChannel.nulled_stack_and_factor`), one batched Cholesky of
    C_i^H C_i + sigma^2 I per symbol; the TX-nulled guard bins report SINR 0,
    as in ``metrics.sinr_map``.  Returns the (K, N) SINR and estimate grids.
    """
    c, l_inv = channel.nulled_stack_and_factor(cfg, sigma2)
    mse, x_hat = per_symbol_mmse(c, y, l_inv)
    return np.where(_tx_null(cfg)[:, np.newaxis] > 0, mmse_sinr(mse.T, sigma2), 0.0), x_hat


def ofdm_onetap_fde(
    y_ft: np.ndarray,
    ft: np.ndarray,
    cfg: ModemConfig,
    noise_var: float,
) -> np.ndarray:
    """Per-subcarrier scalar equalization of a received frequency-time grid.

    ``ft`` is the (N, K, K) stack from :func:`per_symbol_ft_channel`.  The
    scalar channel c of bin (k, i) is the diagonal of the symbol-i
    frequency-time matrix, 0 on the TX-nulled guard bins, which carry
    nothing (as in :func:`ofdm_onetap_sinr`), so their estimates are 0;
    inter-carrier leakage is left as noise.  The estimate is
    conj(c) y / (|c|^2 + sigma^2).  It is not the MMSE scalar's:
    the denominator leaves out the row's inter-carrier power, which
    :func:`ofdm_onetap_sinr` counts, so under heavy Doppler the NMSE can
    exceed 1.  The committed one-tap ``nmse`` references are this estimate's.
    """
    y_ft = np.asarray(y_ft)
    if y_ft.shape != (cfg.k, cfg.n):
        raise ValueError(f"dimension mismatch: expected {(cfg.k, cfg.n)}, got {y_ft.shape}")
    c = np.diagonal(ft, axis1=1, axis2=2).T * _tx_null(cfg)[:, np.newaxis]
    return np.conj(c) * y_ft / (np.abs(c) ** 2 + noise_var)


def ofdm_onetap_sinr(ft: np.ndarray, cfg: ModemConfig, noise_var: float) -> np.ndarray:
    """Per-bin SINR of one-tap FDE: diagonal power over row residual plus noise.

    ``ft`` is the (N, K, K) stack from :func:`per_symbol_ft_channel`; TX-nulled
    guard columns carry nothing, so guard bins report SINR 0.  The row
    energies of the nulled stack are taken a chunk of symbols at a time.
    """
    null = _tx_null(cfg)
    sig = np.abs(np.diagonal(ft, axis1=1, axis2=2) * null) ** 2
    power = np.empty_like(sig)
    for sl in _symbol_chunks(ft):
        power[sl] = np.sum(np.abs(ft[sl] * null) ** 2, axis=2)
    return (sig / (power - sig + noise_var)).T


def _receive(x: np.ndarray, channel: LinkChannel, cfg: ModemConfig, sigma2: float,
             seed) -> np.ndarray:
    """Received frequency-time grid of ``x``, sent without the TX-nulled guards."""
    r = apply_channel(ofdm_modulate(x, cfg, _tx_guard(cfg)), channel.channel(True), sigma2, seed)
    return ofdm_demodulate(r, cfg)


def ofdm_full_link(x: np.ndarray, channel: LinkChannel, cfg: ModemConfig, sigma2: float,
                   seed=None) -> tuple[np.ndarray, np.ndarray]:
    """Send ``x`` over ``channel`` with noise variance sigma^2 and full-MMSE-detect it.

    Returns the (K, N) SINR and estimate grids of :func:`ofdm_full_mmse`.
    """
    return ofdm_full_mmse(_receive(x, channel, cfg, sigma2, seed), channel, cfg, sigma2)


def ofdm_onetap_link(x: np.ndarray, channel: LinkChannel, cfg: ModemConfig, sigma2: float,
                     seed=None) -> tuple[np.ndarray, np.ndarray]:
    """Send ``x`` over ``channel`` with noise variance sigma^2 and one-tap-equalize it.

    Returns the (K, N) SINR grid of :func:`ofdm_onetap_sinr` and the
    estimates of :func:`ofdm_onetap_fde`, both from ``channel.ft``.
    """
    y = _receive(x, channel, cfg, sigma2, seed)
    return ofdm_onetap_sinr(channel.ft, cfg, sigma2), ofdm_onetap_fde(y, channel.ft, cfg, sigma2)
