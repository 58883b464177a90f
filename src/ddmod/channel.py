"""Seeded EVA/Jakes linear time-varying channels and their banded block matrices.

A channel is a tap tensor h[i, r, l] for symbol i, output sample r and
tap index l, where tap l carries the energy of paths whose delay rounds to
l-1 oversampled samples.  The per-symbol channel matrix places tap l on the
l-1'th subdiagonal, so a single zero-delay unit tap is exactly the identity
(embedded over trailing zero rows).  A channel is a sum of a few paths, so
:class:`ChannelMatrixSet`, the one channel type, stores each path's taps
once, one Doppler phase per symbol and the block width its matrices have.

Generation is pure given (seed, config); channels are immutable after
construction, so parallel Monte-Carlo trials can each own an independent
generator without shared state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import ModemConfig

SPEED_OF_LIGHT = 299792458.0  # m/s

# Standard Extended Vehicular A power-delay profile (9 taps).
EVA_DELAYS_NS = np.array([0.0, 30.0, 150.0, 310.0, 370.0, 710.0, 1090.0, 1730.0, 2510.0])
EVA_POWERS_DB = np.array([0.0, -1.5, -1.4, -3.6, -0.6, -9.1, -7.0, -12.0, -16.9])

RRC_ROLLOFF = 0.25
RRC_HALF_SPAN = 4  # samples each side of the pulse peak


@dataclass(frozen=True)
class PathSet:
    """Sparse multipath description: complex gains, delays and Doppler shifts."""

    gains: np.ndarray      # complex, unit total mean power after normalization
    delays_s: np.ndarray   # non-negative, ascending
    dopplers_hz: np.ndarray

    def __post_init__(self):
        g = np.atleast_1d(np.asarray(self.gains, dtype=complex))
        t = np.atleast_1d(np.asarray(self.delays_s, dtype=float))
        v = np.atleast_1d(np.asarray(self.dopplers_hz, dtype=float))
        if not (g.size == t.size == v.size):
            raise ValueError("dimension mismatch: gains, delays and dopplers differ in length")
        if np.any(t < 0):
            raise ValueError("path delays must be non-negative")
        if np.any(np.diff(t) < 0):
            raise ValueError("path delays must be sorted ascending")
        object.__setattr__(self, "gains", g)
        object.__setattr__(self, "delays_s", t)
        object.__setattr__(self, "dopplers_hz", v)


def max_doppler_hz(v_max_ms: float, f_c_hz: float) -> float:
    """Maximum Doppler shift f_c * v / c."""
    return f_c_hz * v_max_ms / SPEED_OF_LIGHT


def sample_eva_paths(seed, v_max_ms: float, f_c_hz: float) -> PathSet:
    """Draw a 9-tap EVA realization with Jakes-distributed Doppler shifts.

    Per-path gains are circular Gaussians scaled to the profile powers and
    normalized to unit total mean power.  Each Doppler is
    nu_max * cos(theta) with theta uniform on [-pi, pi] from the seeded
    generator, so identical seeds give identical path sets.
    """
    if v_max_ms < 0:
        raise ValueError(f"v_max must be >= 0, got {v_max_ms}")
    if f_c_hz <= 0:
        raise ValueError(f"carrier frequency must be > 0, got {f_c_hz}")
    rng = np.random.default_rng(seed)
    powers = 10.0 ** (EVA_POWERS_DB / 10.0)
    powers = powers / powers.sum()
    p = powers.size
    gains = np.sqrt(powers / 2.0) * (rng.standard_normal(p) + 1j * rng.standard_normal(p))
    theta = rng.uniform(-np.pi, np.pi, p)
    nu_max = max_doppler_hz(v_max_ms, f_c_hz)
    return PathSet(gains=gains, delays_s=EVA_DELAYS_NS * 1e-9, dopplers_hz=nu_max * np.cos(theta))


def ideal_path(gain: complex = 1.0) -> PathSet:
    """Single zero-delay, zero-Doppler path: the identity channel."""
    return PathSet(gains=np.array([gain]), delays_s=np.zeros(1), dopplers_hz=np.zeros(1))


def _pulse_half_span(pulse: str) -> int:
    return 0 if pulse == "ideal" else RRC_HALF_SPAN


def raised_cosine(x: np.ndarray, rolloff: float = RRC_ROLLOFF) -> np.ndarray:
    """Raised-cosine pulse (the TX/RX root-raised-cosine pair convolved), in sample units."""
    x = np.asarray(x, dtype=float)
    denom = 1.0 - (2.0 * rolloff * x) ** 2
    singular = np.isclose(np.abs(denom), 0.0)
    safe = np.where(singular, 1.0, denom)
    out = np.sinc(x) * np.cos(np.pi * rolloff * x) / safe
    return np.where(singular, np.sinc(x) * np.pi / 4.0, out)


def required_l_ch(paths: PathSet, cfg: ModemConfig) -> int:
    """Tap count covering the longest rounded delay plus the pulse half-support."""
    ts = cfg.sample_period_s
    return int(math.ceil(paths.delays_s.max() / ts)) + _pulse_half_span(cfg.pulse) + 1


@dataclass(frozen=True)
class ChannelMatrixSet:
    """Per-symbol banded channel matrices M_i, stored as their paths.

    Entry e is one column ``tap_index[e]`` of a path's tap window (columns
    repeat where windows overlap), ``taps[r, e]`` its tap on output row r at
    symbol 0 and ``phase[i, e]`` its Doppler phase on symbol i: h[i, r, l]
    sums phase[i, e] * taps[r, e] over the entries at l.  Matrix i is
    (cols + L_ch - 1) x cols with entry (r, c) equal to h[i, r, r - c + 1] for
    0 <= r - c <= L_ch - 1 and zero elsewhere (1-based tap indexing;
    zero-delay taps sit on the main diagonal).  The kernels act on all N
    symbols at once; :meth:`matrix` builds one dense M_i as a test oracle.
    """

    taps: np.ndarray          # (stored rows, E) complex, symbol 0
    phase: np.ndarray         # (N, E) unit-modulus, one column per entry
    tap_index: np.ndarray     # (E,) tap columns in [0, l_ch)
    l_ch: int
    cols: int

    def __post_init__(self):
        if not (self.taps.ndim == self.phase.ndim == 2 and self.taps.shape[0] >= self.rows
                and self.taps.shape[1] == self.phase.shape[1] == self.tap_index.size):
            raise ValueError(f"dimension mismatch: taps {self.taps.shape} (>= {self.rows} rows), "
                             f"phase {self.phase.shape} and {self.tap_index.size} tap columns")

    def __len__(self) -> int:
        return self.phase.shape[0]

    @property
    def rows(self) -> int:
        return self.cols + self.l_ch - 1

    def matrix(self, i: int) -> np.ndarray:
        """Dense M_i (oracle for the banded kernels)."""
        mat = np.zeros((self.rows, self.cols), dtype=complex)
        c = np.arange(self.cols)
        for e, ell in enumerate(self.tap_index):
            mat[c + ell, c] += self.phase[i, e] * self.taps[c + ell, e]
        return mat

    def apply(self, blocks: np.ndarray) -> np.ndarray:
        """(rows, N) array whose column i is M_i @ blocks[:, i]; entries on consecutive
        columns with one phase (a path's window) are one banded product."""
        x, idx, ph = np.asarray(blocks).T, self.tap_index, self.phase
        starts = (np.diff(idx, prepend=-2) != 1) | np.any(np.diff(ph, prepend=0) != 0, axis=0)
        bounds = [*np.flatnonzero(starts).tolist(), idx.size]
        pad = np.zeros((len(self), self.rows + self.l_ch - 1), dtype=complex)
        pad[:, self.l_ch - 1:self.rows] = x
        win = sliding_window_view(pad, self.l_ch, axis=1)[:, :, ::-1]  # win[i, r, l] = x[i, r - l]
        out = np.zeros((len(self), self.rows), dtype=complex)
        for s, t in zip(bounds[:-1], bounds[1:]):
            out_rows, window = slice(idx[s], idx[t - 1] + self.cols), slice(idx[s], idx[t - 1] + 1)
            out[:, out_rows] += ph[:, s, np.newaxis] * np.einsum(
                "iqk,qk->iq", win[:, out_rows, window], self.taps[out_rows, s:t])
        return out.T


def materialize_taps(paths: PathSet, cfg: ModemConfig, cols: int) -> ChannelMatrixSet:
    """The channel of ``cols``-column blocks: each path's tap window and its symbol phases.

    Tap (i, r, l) sums h_p * g((l-1) - tau_p/Ts) * exp(j2*pi*nu_p*((l + r + i - 1)*Ts - Ts/2))
    over paths, with r and i counted from 1 and g the configured shaping pulse
    (ideal Nyquist rounds each delay to a single unit tap), on the
    cols + L_ch - 1 output rows.  Path p's window, its rounded delay plus or
    minus the pulse half-span inside the :func:`required_l_ch` span, is one
    outer product (symbol 0), and symbol i scales it by exp(j2*pi*nu_p*(i-1)*Ts).
    """
    ts = cfg.sample_period_s
    half = _pulse_half_span(cfg.pulse)
    l_ch = required_l_ch(paths, cfg)
    r = np.arange(1, cols + l_ch)
    windows = [np.arange(max(0, peak - half), peak + half + 1)
               for peak in (int(round(tau / ts)) for tau in paths.delays_s)]
    taps = []
    for h_p, tau, nu, window in zip(paths.gains, paths.delays_s, paths.dopplers_hz, windows):
        g = np.ones(1) if cfg.pulse == "ideal" else raised_cosine(window - tau / ts)
        ph_ell = np.exp(2j * np.pi * nu * ((window + 1) * ts - ts / 2.0))
        taps.append(h_p * np.outer(np.exp(2j * np.pi * nu * r * ts), g * ph_ell))
    dopplers = np.repeat(paths.dopplers_hz, [window.size for window in windows])
    phase = np.exp(2j * np.pi * dopplers * np.arange(cfg.n)[:, np.newaxis] * ts)
    return ChannelMatrixSet(taps=np.hstack(taps), phase=phase, tap_index=np.concatenate(windows),
                            l_ch=l_ch, cols=cols)


def _cols(cfg: ModemConfig, with_cp: bool) -> int:
    """Input samples per symbol block: K*O_s, plus N_CP on the CP-bearing chain."""
    return cfg.k * cfg.o_s + (cfg.n_cp if with_cp else 0)


def channel_matrices(chan: ChannelMatrixSet, cfg: ModemConfig, with_cp: bool) -> ChannelMatrixSet:
    """The same taps as banded matrices sized for the CP-bearing or CP-less chain."""
    return replace(chan, cols=_cols(cfg, with_cp))


def realize(paths: PathSet, cfg: ModemConfig, with_cp: bool) -> ChannelMatrixSet:
    """The path-sparse channel of ``paths`` sized for a CP-bearing or CP-less modulation."""
    return materialize_taps(paths, cfg, _cols(cfg, with_cp))
