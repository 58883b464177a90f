"""Deterministic matrix and window builders shared by all transceiver chains.

Everything here is a pure function of its arguments.  The DFT matrices are
memoized (:func:`_cached`) and hand out shared read-only arrays; copy one
before mutating it.  A sweep reads the DFT matrices and, through DR-UFMC's
filter response (memoized per config), the window; W and the UFMC precoder
are references only, built on each call: the transceivers take FFTs, DR-UFMC
derives the precoder products it reads in closed form, and no sweep builds
either.  The contract is the explicit matrix semantics; the window is the one
builder that takes an FFT.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .config import ModemConfig

# Two threads may both build a missing entry; either result serves, so no lock is taken.
_CACHE: dict = {}


def _cached(key, builder):
    """``builder()``, an array or a tuple of arrays, built once per key and read-only."""
    hit = _CACHE.get(key)
    if hit is None:
        hit = builder()
        for arr in hit if isinstance(hit, tuple) else (hit,):
            arr.flags.writeable = False
        _CACHE[key] = hit
    return hit


def dft_matrix(n: int) -> np.ndarray:
    """Unitary n x n DFT matrix with entry (a, b) = exp(-j2*pi*a*b/n) / sqrt(n)."""
    if n < 1:
        raise ValueError(f"invalid size: DFT order must be >= 1, got {n}")

    def build():
        idx = np.arange(n)
        return np.exp(-2j * np.pi * np.outer(idx, idx) / n) / np.sqrt(n)

    return _cached(("dft", n), build)


def oversampled_dft(k: int, o_s: int) -> np.ndarray:
    """K x (K*O_s) oversampled DFT whose rows are the K centred subcarriers.

    Entry (l, m) = exp(-j2*pi*m*(l - K/2)/(K*O_s)) / sqrt(K*O_s) for
    l = 0..K-1 and m = 0..K*O_s-1.  Rows are orthonormal, so W @ W^H = I_K.
    The receivers apply W as a K*O_s-point FFT that keeps the K centred bins,
    and the modulators W^H as one inverse FFT per symbol; this dense matrix
    is their reference.  Requires even K because the subcarrier grid is
    centred at K/2.
    """
    if k < 2 or k % 2 != 0:
        raise ValueError(f"invalid size: K must be even and >= 2, got {k}")
    if o_s < 1:
        raise ValueError(f"invalid size: O_s must be >= 1, got {o_s}")
    m = np.arange(k * o_s)
    freq = np.arange(k) - k // 2
    return np.exp(-2j * np.pi * np.outer(freq, m) / (k * o_s)) / np.sqrt(k * o_s)


def _grid_shape(x: np.ndarray) -> tuple[int, int]:
    """(K, N) of a K x N grid or of a (..., K, N) stack of them."""
    if x.ndim < 2:
        raise ValueError(f"dimension mismatch: expected a K x N grid, got shape {x.shape}")
    return x.shape[-2:]


def isfft(x_dd: np.ndarray) -> np.ndarray:
    """Delay-Doppler grid to frequency-time grid: F_K @ X @ F_N^H.

    A (..., K, N) stack transforms each grid, exactly as one at a time.
    """
    x_dd = np.asarray(x_dd)
    k, n = _grid_shape(x_dd)
    return dft_matrix(k) @ x_dd @ dft_matrix(n).conj().T


def sfft(y_ft: np.ndarray) -> np.ndarray:
    """Frequency-time grid to delay-Doppler grid: F_K^H @ Y @ F_N (inverse of isfft).

    A (..., K, N) stack transforms each grid, exactly as one at a time.
    """
    y_ft = np.asarray(y_ft)
    k, n = _grid_shape(y_ft)
    return dft_matrix(k).conj().T @ y_ft @ dft_matrix(n)


def vec(x: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization; a (..., rows, cols) stack vectorizes each matrix."""
    x = np.asarray(x)
    if x.ndim <= 2:
        return x.flatten(order="F")
    return np.swapaxes(x, -1, -2).reshape(*x.shape[:-2], -1)


def invec(v: np.ndarray, rows: int) -> np.ndarray:
    """Inverse of :func:`vec` for a known row count."""
    v = np.asarray(v)
    if v.size % rows != 0:
        raise ValueError(f"dimension mismatch: length {v.size} not divisible by {rows} rows")
    return v.reshape(rows, -1, order="F")


def chebyshev_window(length: int, attenuation_db: float) -> np.ndarray:
    """Dolph-Chebyshev window with equiripple side-lobes ``attenuation_db`` below the peak.

    The spectrum samples T_(L-1)(beta cos(pi k / L)), k = 0..L-1, are
    cosh((L-1) arccosh(.)) taken on the complex branch, whose real part is
    the Chebyshev polynomial on all of the real line, the (-1)^(L-1) sign
    below -1 included.  The phase exp(-j*pi*k*(L-1)/L) centres the inverse
    FFT on (L-1)/2 for either parity of L.  The taps are then symmetrized and
    sum to one (unit DC gain), so filtering keeps the per-symbol transmit power.
    """
    if length < 2:
        raise ValueError(f"invalid size: window length must be >= 2, got {length}")
    if not (math.isfinite(attenuation_db) and attenuation_db > 0
            and attenuation_db / 20.0 < math.log10(sys.float_info.max)):
        raise ValueError(f"invalid attenuation: must be finite, > 0 dB and keep 10^(att/20) "
                         f"finite, got {attenuation_db}")
    order = length - 1
    beta = np.cosh(np.arccosh(10.0 ** (attenuation_db / 20.0)) / order)
    k = np.arange(length)
    p = np.cosh(order * np.arccosh(beta * np.cos(np.pi * k / length) + 0j)).real
    p = np.ldexp(p, -np.frexp(p[0])[1])       # exact: peak p[0] below 1, so no sum overflows
    w = np.fft.ifft(p * np.exp(-1j * np.pi * k * order / length)).real
    w = w / w.max()
    w = 0.5 * (w + w[::-1])          # enforce exact symmetry
    return w * (1.0 / w.sum())       # unit DC gain


def modulated_filter_taps(taps: np.ndarray, i: int, k: int, o_s: int, d: int) -> np.ndarray:
    """Prototype taps shifted to the centre of subband i.

    The normalized shift is F_i = (D-1)/2 + i*D - K/2 subcarrier spacings,
    applied as g_l * exp(j2*pi*F_i*l / (K*O_s)).
    """
    f_i = (d - 1) / 2.0 + i * d - k / 2.0
    ell = np.arange(taps.size)
    return taps * np.exp(2j * np.pi * f_i * ell / (k * o_s))


def prototype_filter(cfg: ModemConfig) -> np.ndarray:
    """Configured subband prototype taps (length-1 filters degenerate to a unit tap)."""
    if cfg.filter_len == 1:
        return np.ones(1)
    return chebyshev_window(cfg.filter_len, cfg.filter_att_db)


def ufmc_precoder(cfg: ModemConfig) -> np.ndarray:
    """Composite per-symbol filtered-multicarrier precoder.

    Sums the per-subband chains G_i @ W^H @ P_i into a single
    (K*O_s + L - 1) x K matrix applied to a frequency-time column.  Column k
    is the subband-k/D filter convolved with the oversampled IFFT of e_k, so
    it can be formed by direct convolution without materializing G_i.  It is
    the reference of the closed forms in ``drufmc._filter_response``, and no
    sweep builds it.
    """
    w_h = oversampled_dft(cfg.k, cfg.o_s).conj().T
    filt = prototype_filter(cfg)
    out = np.zeros((cfg.k * cfg.o_s + cfg.filter_len - 1, cfg.k), dtype=complex)
    for i in range(cfg.b):
        taps = modulated_filter_taps(filt, i, cfg.k, cfg.o_s, cfg.d)
        for col in range(i * cfg.d, (i + 1) * cfg.d):
            out[:, col] = np.convolve(w_h[:, col], taps)
    return out

