"""Linear MMSE detection, SINR / spectral-efficiency accounting, PSD estimation
and the guard-subcarrier search against an out-of-band emission threshold.

``sinr_map`` and ``mmse_detect`` work on any dense effective channel; they are
the reference for the structured per-waveform routes built on
:mod:`ddmod.mmse`, which the sweep uses.  The Welch PSD is plain numpy
(``scipy.signal.welch`` is its test reference) and takes the signal itself;
the guard search bisects over a caller's ``spectrum(n_guard)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ModemConfig, check_guard_count
from .mmse import IllConditionedError, _inverse_factor


class GuardSearchError(RuntimeError):
    """No guard count meets the out-of-band threshold."""


def _normal_solve(c: np.ndarray, sigma2: float, rhs: np.ndarray) -> np.ndarray:
    """Solve (C C^H + sigma^2 I) X = rhs as L^{-H} (L^{-1} rhs), L its Cholesky factor."""
    a = c @ c.conj().T
    a[np.diag_indices_from(a)] += sigma2
    l_inv = _inverse_factor(a)
    return l_inv.conj().T @ (l_inv @ rhs)


def mmse_detect(c, y: np.ndarray, sigma2: float) -> np.ndarray:
    """Linear MMSE symbol estimates C^H (C C^H + sigma^2 I)^{-1} y."""
    cm = np.asarray(c)
    y = np.asarray(y)
    if y.shape[0] != cm.shape[0]:
        raise ValueError(f"dimension mismatch: y has {y.shape[0]} rows, C has {cm.shape[0]}")
    return cm.conj().T @ _normal_solve(cm, sigma2, y)


def sinr_map(c, sigma2: float, cfg: ModemConfig | None = None) -> np.ndarray:
    """(K, N) grid of per-bin linear MMSE output SINR of an effective channel.

    For bin j with detector d_j = (C C^H + sigma^2 I)^{-1} C_j, the SINR is
    |d_j^H C_j|^2 / (sum_{l != j} |d_j^H C_l|^2 + sigma^2 ||d_j||^2).
    Bins whose column is exactly zero (TX-nulled guards) report SINR 0.
    Without ``cfg`` the grid is one column, (dim, 1).
    """
    cm = np.asarray(c)
    dim = cm.shape[0]
    t = _normal_solve(cm, sigma2, cm)          # column j = d_j
    g = t.conj().T @ cm                        # g[j, l] = d_j^H C_l
    diag = np.abs(np.diag(g)) ** 2
    interference = np.sum(np.abs(g) ** 2, axis=1) - diag
    noise = sigma2 * np.sum(np.abs(t) ** 2, axis=0)
    denom = interference + noise
    vals = np.divide(diag, denom, out=np.zeros(dim), where=denom > 0)
    if cfg is not None:
        k, n = cfg.k, cfg.n
    else:
        k, n = dim, 1
    return vals.reshape(n, k).T


def _interior(values: np.ndarray, n_guard: int) -> np.ndarray:
    """Rows [n_guard, K - n_guard) of a (K, N) SINR grid: the non-guard bins."""
    k = values.shape[0]
    check_guard_count(n_guard, k)
    return values[n_guard:k - n_guard, :]


def net_sinr(values: np.ndarray, n_guard: int = 0) -> float:
    """Linear-domain mean SINR of a (K, N) grid over non-guard bins, reported in dB."""
    return 10.0 * np.log10(_interior(values, n_guard).mean())


def avg_spectral_efficiency(values: np.ndarray, efficiency: float, n_guard: int = 0) -> float:
    """Average spectral efficiency (xi / KN) * sum over non-guard bins of log2(1 + SINR).

    ``values`` is the (K, N) linear SINR grid; guard bins contribute zero but
    stay in the K*N normalization.
    """
    interior = _interior(values, n_guard)
    return efficiency * np.log2(1.0 + interior).sum() / values.size


def normalized_mse(x_hat: np.ndarray, x: np.ndarray) -> float:
    """||x_hat - x||^2 / ||x||^2."""
    x_hat = np.asarray(x_hat)
    x = np.asarray(x)
    if x_hat.shape != x.shape:
        raise ValueError(f"dimension mismatch: {x_hat.shape} vs {x.shape}")
    ref = np.sum(np.abs(x) ** 2)
    if ref == 0:
        raise ValueError("zero reference: ||x|| = 0")
    return float(np.sum(np.abs(x_hat - x) ** 2) / ref)


# Power spectral density ------------------------------------------------------

@dataclass(frozen=True)
class PsdEstimate:
    """Two-sided Welch PSD with the linear density kept for power checks."""

    freqs_hz: np.ndarray
    density: np.ndarray          # linear, V^2/Hz
    sample_rate_hz: float

    def db_rel_peak(self) -> np.ndarray:
        peak = self.density.max()
        return 10.0 * np.log10(np.maximum(self.density, 1e-300) / peak)

    def band_mask(self, band_hz: float) -> np.ndarray:
        """True inside the nominal band [-band/2, band/2]."""
        return np.abs(self.freqs_hz) <= band_hz / 2.0


def qpsk_grid(rng: np.random.Generator, k: int, n: int) -> np.ndarray:
    """Unit-energy QPSK symbols on a K x N grid."""
    bits = rng.integers(0, 2, size=(2, k, n))
    return ((2 * bits[0] - 1) + 1j * (2 * bits[1] - 1)) / np.sqrt(2)


#: Bytes of windowed segments transformed per batch in :func:`psd_estimate`.
_WELCH_BATCH_BYTES = 4 << 20


def psd_estimate(x: np.ndarray, cfg: ModemConfig) -> PsdEstimate:
    """Welch-averaged two-sided PSD of the signal ``x``.

    Periodic-Hann-windowed segments of length nper = 4*K*O_s (at most the
    signal length) start every hop = nper - nper//2 samples; the density is
    the mean |FFT|^2 over segments scaled by 1/(fs * sum(w^2)), on a
    frequency axis spanning +-K*O_s*delta_f/2.  This is
    ``scipy.signal.welch`` with a Hann window, ``noverlap=nper//2``, no
    detrending and two-sided output.  Segments are strided views transformed
    in batches of a few MB, so no (segments, nper) array is built.
    """
    x = np.asarray(x)
    fs = cfg.sample_rate_hz
    nper = min(4 * cfg.k * cfg.o_s, x.size)
    hop = nper - nper // 2
    # starts 0, hop, ... <= x.size - nper: scipy's (x.size - nper // 2) // hop segments
    segments = np.lib.stride_tricks.sliding_window_view(x, nper)[::hop]
    window = np.hanning(nper + 1)[:-1] if nper > 1 else np.ones(1)
    batch = max(1, _WELCH_BATCH_BYTES // (16 * nper))
    power = np.zeros(nper)
    for start in range(0, len(segments), batch):
        spec = np.fft.fft(segments[start:start + batch] * window, axis=-1)
        power += np.sum(spec.real ** 2 + spec.imag ** 2, axis=0)
    density = power / (len(segments) * fs * np.sum(window ** 2))
    return PsdEstimate(
        freqs_hz=np.fft.fftshift(np.fft.fftfreq(nper, 1.0 / fs)),
        density=np.fft.fftshift(density),
        sample_rate_hz=fs,
    )


def oob_level_db(psd: PsdEstimate, band_hz: float) -> float:
    """Maximum out-of-band density relative to the in-band peak, in dB."""
    inband = psd.band_mask(band_hz)
    if not np.any(~inband):
        raise ValueError("PSD grid has no out-of-band samples")
    peak = psd.density[inband].max()
    return 10.0 * np.log10(psd.density[~inband].max() / peak)


def guard_count_for_threshold(spectrum, cfg: ModemConfig, delta_oob_db: float | None = None) -> int:
    """Smallest per-edge guard count whose PSD meets the out-of-band threshold.

    ``spectrum(n_guard)`` must return the :class:`PsdEstimate` of the signal
    with 2*n_guard edge subcarriers nulled on the frequency-time grid.
    Nulling more edge subcarriers only lowers the out-of-band level, so the
    first passing count is found by bisection: count 0 is estimated first and
    returned if it passes, then (0, K/2] is bisected with K/2 standing for
    "none passes", about log2(K) estimates in all, each count at most once.
    Raises :class:`GuardSearchError` when even maximal nulling fails.
    """
    threshold = cfg.delta_oob_db if delta_oob_db is None else delta_oob_db

    def passes(n_guard):
        return oob_level_db(spectrum(n_guard), cfg.bandwidth_hz) <= threshold

    if passes(0):
        return 0
    fails, first_pass = 0, cfg.k // 2
    while first_pass - fails > 1:
        mid = (fails + first_pass) // 2
        if passes(mid):
            first_pass = mid
        else:
            fails = mid
    if first_pass == cfg.k // 2:
        raise GuardSearchError(
            f"not achievable: out-of-band level above {threshold} dB at every guard count"
        )
    return first_pass
