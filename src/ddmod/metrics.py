"""Linear MMSE detection, SINR / spectral-efficiency accounting, PSD estimation
and the guard-subcarrier search against an out-of-band emission threshold.

``sinr_map`` and ``mmse_detect`` work on any dense effective channel; they are
the reference for the structured per-waveform routes built on
:mod:`ddmod.mmse`, which the sweep uses.  The Welch PSD is plain numpy
(``scipy.signal.welch`` is its test reference) and takes the signal whole or
as a stream of consecutive pieces, which it never joins; the guard search
brackets the threshold crossing over a caller's ``spectrum(n_guard)``, guided
by the skirt of the unnulled estimate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .config import ModemConfig, live_rows
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


def net_sinr(values: np.ndarray, n_guard: int = 0) -> float:
    """Linear-domain mean SINR of a (K, N) grid over non-guard bins, reported in dB."""
    return 10.0 * np.log10(values[live_rows(values.shape[0], n_guard)].mean())


def avg_spectral_efficiency(values: np.ndarray, efficiency: float, n_guard: int = 0) -> float:
    """Average spectral efficiency (xi / KN) * sum over non-guard bins of log2(1 + SINR).

    ``values`` is the (K, N) linear SINR grid; guard bins contribute zero but
    stay in the K*N normalization.
    """
    interior = values[live_rows(values.shape[0], n_guard)]
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


#: Bytes of windowed segments transformed per batch in :func:`psd_estimate`:
#: 12 segments of 5120 samples at table 1.  Each PSD family thread holds one
#: batch; larger batches cost memory and are no faster.
_WELCH_BATCH_BYTES = 1 << 20


def _pieces(x):
    """The 1-D arrays of ``x``: an array is one piece, anything else an iterable of them."""
    for piece in [x] if isinstance(x, np.ndarray) else x:
        piece = np.asarray(piece)
        if piece.ndim != 1:
            raise ValueError(f"PSD signal pieces must be 1-D, got shape {piece.shape}")
        yield piece


def _segments(pieces, nper: int, hop: int):
    """(m, nper) strided views of the segments starting every ``hop`` samples
    of the joined ``pieces``, in order.

    A segment that crosses a piece boundary is cut from the fewer than nper
    samples carried over, joined to the head of the next piece; the others are
    views of their own piece.
    """
    window_view = np.lib.stride_tricks.sliding_window_view
    carry = np.empty(0, dtype=complex)          # the signal from the next segment start on
    for piece in pieces:
        c = carry.size
        count = max(0, (c + piece.size - nper) // hop + 1)   # starts 0, hop, ... of carry + piece
        straddling = min(count, -(-c // hop))
        if straddling:
            yield window_view(np.concatenate((carry, piece[:(straddling - 1) * hop + nper - c])),
                              nper)[::hop]
        if count > straddling:
            yield window_view(piece[straddling * hop - c:(count - 1) * hop + nper - c], nper)[::hop]
        start = count * hop
        carry = np.concatenate((carry[start:], piece[max(0, start - c):]))


def _power(windowed: np.ndarray) -> np.ndarray:
    """Sum over rows of |FFT|^2, computed in place: ``windowed`` is overwritten."""
    np.fft.fft(windowed, axis=-1, out=windowed)
    re, im = windowed.real, windowed.imag
    np.square(re, out=re)
    np.square(im, out=im)
    return np.sum(np.add(re, im, out=re), axis=0)


def psd_estimate(x, cfg: ModemConfig) -> PsdEstimate:
    """Welch-averaged two-sided PSD of the signal ``x``.

    ``x`` is one 1-D array or an iterable of consecutive 1-D pieces; the
    estimate is that of their concatenation, which is never built.
    Periodic-Hann-windowed segments of length nper = 4*K*O_s (at most the
    signal length) start every hop = nper - nper//2 samples; the density is
    the mean |FFT|^2 over segments scaled by 1/(fs * sum(w^2)), on a
    frequency axis spanning +-K*O_s*delta_f/2.  This is
    ``scipy.signal.welch`` with a Hann window, ``noverlap=nper//2``, no
    detrending and two-sided output.  Segments are windowed into a batch of
    about 1 MB, transformed whenever it is full, so no (segments, nper) array
    is built and the result does not depend on how ``x`` is split.  An empty
    signal, or a piece that is not 1-D, raises ValueError.
    """
    fs = cfg.sample_rate_hz
    full = 4 * cfg.k * cfg.o_s
    pieces = _pieces(x)
    head, total = [], 0                       # the pieces read before nper is known
    for piece in pieces:
        head.append(piece)
        total += piece.size
        if total >= full:
            break
    if total == 0:
        raise ValueError("cannot estimate the PSD of an empty signal")
    nper = min(full, total)
    window = np.hanning(nper + 1)[:-1] if nper > 1 else np.ones(1)
    batch = np.empty((max(1, _WELCH_BATCH_BYTES // (16 * nper)), nper), dtype=complex)
    power = np.zeros(nper)
    filled = n_segments = 0
    for segments in _segments(itertools.chain(head, pieces), nper, nper - nper // 2):
        n_segments += len(segments)
        while len(segments):
            take = min(len(batch) - filled, len(segments))
            np.multiply(segments[:take], window, out=batch[filled:filled + take])
            filled, segments = filled + take, segments[take:]
            if filled == len(batch):
                power += _power(batch)
                filled = 0
    if filled:
        power += _power(batch[:filled])
    density = power / (n_segments * fs * np.sum(window ** 2))
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


def _skirt_db(psd: PsdEstimate, cfg: ModemConfig) -> np.ndarray:
    """skirt[g] for g in [0, K/2): the maximum density beyond B/2 + g*delta_f,
    relative to the in-band peak, in dB.

    This is the level 2*g nulled edge subcarriers would give if nulling only
    moved the spectrum inward by g*delta_f, so skirt[0] is the unnulled level.
    """
    inband = psd.band_mask(cfg.bandwidth_hz)
    peak = psd.density[inband].max()
    past_edge = np.abs(psd.freqs_hz) - cfg.bandwidth_hz / 2.0
    beyond = [psd.density[past_edge > g * cfg.delta_f_hz].max(initial=0.0)
              for g in range(cfg.k // 2)]
    return 10.0 * np.log10(np.maximum(beyond, 1e-300) / peak)


def guard_count_for_threshold(spectrum, cfg: ModemConfig) -> int:
    """Smallest per-edge guard count whose PSD meets the ``cfg.delta_oob_db`` threshold.

    ``spectrum(n_guard)`` must return the :class:`PsdEstimate` of the signal
    with 2*n_guard edge subcarriers nulled on the frequency-time grid; each
    count is estimated at most once.  Count 0 is estimated first and returned
    if it passes.  Otherwise the bracket (fails, first_pass) = (0, K/2), with
    K/2 standing for "none passes", is narrowed by probes guided by the
    unnulled spectrum's skirt (:func:`_skirt_db`).  A probe is the smallest
    count inside the bracket where skirt + offset meets the threshold, or
    first_pass - 1 if there is none; the offset is interpolated linearly
    between the measured ``level - skirt`` at the bracket's ends (0 at count
    0; at an unmeasured K/2 the lower end's).  Whenever the two previous
    probes together did not halve the bracket, the probe is its midpoint, so
    every three probes more than halve it: at most 1 + 3*ceil(log2(K/2))
    estimates, 19 at K = 128 (3-5 at table-1 scale with 100 frames).

    The search assumes the out-of-band level falls with the guard count, as
    its expectation does; on a falling curve it returns the first passing
    count and raises :class:`GuardSearchError` when none passes.  On any
    curve it finds a crossing: a returned count passes and the count below
    it fails, or it is 0, and the error is raised only if count K/2 - 1 fails.
    """
    threshold, half = cfg.delta_oob_db, cfg.k // 2
    unnulled = spectrum(0)
    levels = {0: oob_level_db(unnulled, cfg.bandwidth_hz)}
    if levels[0] <= threshold:
        return 0
    skirt = _skirt_db(unnulled, cfg)
    fails, first_pass = 0, half
    widths = [half]
    while first_pass - fails > 1:
        if len(widths) >= 3 and 2 * widths[-1] > widths[-3]:
            probe = (fails + first_pass) // 2
        else:
            inside = np.arange(fails + 1, first_pass)
            low = levels[fails] - skirt[fails]
            high = levels[first_pass] - skirt[first_pass] if first_pass < half else low
            offset = low + (high - low) * (inside - fails) / (first_pass - fails)
            hits = inside[skirt[inside] + offset <= threshold]
            probe = int(hits[0]) if hits.size else first_pass - 1
        levels[probe] = oob_level_db(spectrum(probe), cfg.bandwidth_hz)
        if levels[probe] <= threshold:
            first_pass = probe
        else:
            fails = probe
        widths.append(first_pass - fails)
    if first_pass == half:
        raise GuardSearchError(
            f"not achievable: out-of-band level above {cfg.delta_oob_db} dB at every guard count"
        )
    return first_pass
