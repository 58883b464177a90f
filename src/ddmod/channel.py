"""Seeded EVA/Jakes linear time-varying channels and their banded block matrices.

A realization is a tap tensor h[i, r, l] for symbol i, output sample r and
tap index l, where tap l carries the energy of paths whose delay rounds to
l-1 oversampled samples.  The per-symbol channel matrix places tap l on the
l-1'th subdiagonal, so a single zero-delay unit tap is exactly the identity
(embedded over trailing zero rows).  A channel is a sum of a few paths, so
only the tap columns those paths reach are stored and applied.

Generation is pure given (seed, config); realizations are immutable after
construction, so parallel Monte-Carlo trials can each own an independent
generator without shared state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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

    @property
    def n_paths(self) -> int:
        return self.gains.size


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
class LtvChannelRealization:
    """Path-sparse taps h[i, r, l] with i = 0..N-1, r = 0..rows-1, l = 0..L_ch-1.

    Only the active tap columns are stored: column j of ``taps`` is tap
    ``tap_index[j]`` (ascending), and every other column of h is zero.
    """

    taps: np.ndarray          # (n_symbols, rows, n_active) complex
    tap_index: np.ndarray     # (n_active,) ascending tap columns in [0, l_ch)
    l_ch: int

    @property
    def n_symbols(self) -> int:
        return self.taps.shape[0]

    @property
    def rows(self) -> int:
        return self.taps.shape[1]


def materialize_taps(paths: PathSet, cfg: ModemConfig, rows: int) -> LtvChannelRealization:
    """Evaluate the N per-symbol time-varying taps on the active tap columns.

    Tap (i, r, l) sums h_p * g((l-1) - tau_p/Ts) * exp(j2*pi*nu_p*((l + r + i - 1)*Ts - Ts/2))
    over paths, with r and i counted from 1 and g the configured shaping pulse
    (ideal Nyquist rounds each delay to a single unit tap).  The active
    columns are the union over paths of the rounded delay plus or minus the
    pulse half-span, inside the :func:`required_l_ch` span; every other
    column is exactly zero and is not stored.
    """
    ts = cfg.sample_period_s
    half = _pulse_half_span(cfg.pulse)
    peaks = [int(round(tau / ts)) for tau in paths.delays_s]
    windows = [(max(0, peak - half), peak + half) for peak in peaks]
    tap_index = np.unique(np.concatenate([np.arange(lo, hi + 1) for lo, hi in windows]))
    taps = np.zeros((cfg.n, rows, tap_index.size), dtype=complex)
    ell = tap_index + 1                     # 1-based tap index; delay = ell - 1 samples
    r = np.arange(1, rows + 1)

    for h_p, tau, nu, (lo, hi) in zip(paths.gains, paths.delays_s, paths.dopplers_hz, windows):
        first = np.searchsorted(tap_index, lo)
        window = slice(first, first + hi - lo + 1)       # this path's columns of tap_index
        g = np.ones(1) if cfg.pulse == "ideal" else raised_cosine(np.arange(lo, hi + 1) - tau / ts)
        # phase exp(j2*pi*nu*((ell + r + i - 1)*Ts - Ts/2)), separable in ell, r, i
        ph_ell = np.exp(2j * np.pi * nu * (ell[window] * ts - ts / 2.0))
        ph_r = np.exp(2j * np.pi * nu * r * ts)
        ph_i = np.exp(2j * np.pi * nu * np.arange(cfg.n) * ts)
        taps[:, :, window] += h_p * np.einsum("i,r,l->irl", ph_i, ph_r, g * ph_ell)
    return LtvChannelRealization(taps=taps, tap_index=tap_index, l_ch=required_l_ch(paths, cfg))


@dataclass(frozen=True)
class ChannelMatrixSet:
    """Per-symbol banded channel matrices M_i, applied through their active taps.

    Matrix i has shape (cols + L_ch - 1) x cols with entry (r, c) equal to
    h[i, r, r - c + 1] for 0 <= r - c <= L_ch - 1 and zero elsewhere
    (1-based tap indexing; zero-delay taps sit on the main diagonal).  The
    kernels touch only the active taps and act on all N symbols at once;
    :meth:`matrix` builds one dense M_i and serves only as a test oracle.
    """

    realization: LtvChannelRealization
    cols: int

    def __post_init__(self):
        if self.realization.rows < self.rows:
            raise ValueError(
                f"dimension mismatch: realization rows {self.realization.rows} < required {self.rows}"
            )

    def __len__(self) -> int:
        return self.realization.n_symbols

    @property
    def rows(self) -> int:
        return self.cols + self.realization.l_ch - 1

    def matrix(self, i: int) -> np.ndarray:
        """Dense M_i (oracle for the banded kernels)."""
        real = self.realization
        mat = np.zeros((self.rows, self.cols), dtype=complex)
        c = np.arange(self.cols)
        for j, ell in enumerate(real.tap_index):
            mat[c + ell, c] = real.taps[i, c + ell, j]
        return mat

    def apply(self, blocks: np.ndarray) -> np.ndarray:
        """(rows, N) array whose column i is M_i @ blocks[:, i]."""
        real = self.realization
        x = np.asarray(blocks).T
        out = np.zeros((len(self), self.rows), dtype=complex)
        for j, ell in enumerate(real.tap_index):
            out[:, ell:ell + self.cols] += real.taps[:, ell:ell + self.cols, j] * x
        return out.T


def _cols(cfg: ModemConfig, with_cp: bool) -> int:
    """Input samples per symbol block: K*O_s, plus N_CP on the CP-bearing chain."""
    return cfg.k * cfg.o_s + (cfg.n_cp if with_cp else 0)


def channel_matrices(
    real: LtvChannelRealization, cfg: ModemConfig, with_cp: bool
) -> ChannelMatrixSet:
    """Banded per-symbol matrices sized for the CP-bearing or CP-less chain."""
    return ChannelMatrixSet(realization=real, cols=_cols(cfg, with_cp))


def realize(paths: PathSet, cfg: ModemConfig, with_cp: bool) -> ChannelMatrixSet:
    """One-stop materialization: path-sparse taps plus matrix set for a modulation."""
    rows = _cols(cfg, with_cp) + required_l_ch(paths, cfg) - 1
    return channel_matrices(materialize_taps(paths, cfg, rows=rows), cfg, with_cp=with_cp)
