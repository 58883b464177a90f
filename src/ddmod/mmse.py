"""Structured linear MMSE for channels with per-symbol block structure.

For y = C x + n with unit-power symbols and noise variance sigma^2, write
G = (C^H C + sigma^2 I)^{-1}.  Two identities carry every route here:

* the per-bin MMSE output SINR is 1 / (sigma^2 G_jj) - 1, since the MMSE
  error covariance is sigma^2 G;
* the MMSE estimate is x_hat = G C^H y, equal to C^H (C C^H + sigma^2 I)^{-1} y.

With a Cholesky factor G^{-1} = L L^H, G = L^{-H} L^{-1}, so the error
diagonal of any unitary change of basis V G V^H is the column energy of
L^{-1} V^H, and the estimate is two products with L^{-1}.  So a
block-diagonal C (one K x K block per symbol) needs N batched K x K
factorizations (:func:`per_symbol_factor`), which :func:`per_symbol_mmse`
takes from its caller, so receivers of the same stack (OTFS and OFDM-full)
share them.  A block lower-bidiagonal C whose sub-diagonal blocks have
rank r (DR-UFMC's tails landing in the next symbol, r the numerical rank of
the precoder tail, at most L - 1) needs a block-tridiagonal Cholesky of
C^H C + sigma^2 I and a selected inverse: the diagonals of the N^2 blocks of
G from a backward recursion in r x K factors, O(N^2 r^2 K + N K^3) work.
The coupling is factored, never the inverse, so every block formed is
bounded by 1/sigma^2.  Stack products that need temporaries run over symbols
in chunks of about ``_STACK_CHUNK_BYTES``, and products with C^H or L^{-H}
act on vectors, so no whole-stack temporary or conjugate copy is formed.
No KN x KN matrix is formed: the dense ``metrics.sinr_map`` and
``metrics.mmse_detect`` remain the reference these routes are tested against.
"""

from __future__ import annotations

import numpy as np


#: Size of one chunk of a per-symbol stack product, in bytes of its K x K blocks.
_STACK_CHUNK_BYTES = 1 << 18


class IllConditionedError(RuntimeError):
    """The MMSE normal matrix is numerically singular (sigma^2 = 0 with rank loss)."""


def _herm(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2).conj()


def _symbol_chunks(stack: np.ndarray) -> list[slice]:
    """Runs of the leading (symbol) axis of a stack of complex K x K blocks,
    each about ``_STACK_CHUNK_BYTES`` (at least one symbol)."""
    step = max(1, _STACK_CHUNK_BYTES // (16 * stack.shape[-1] ** 2))
    return [slice(i, i + step) for i in range(0, len(stack), step)]


def _herm_matvec(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A_i^H v_i for a stack A and the rows v_i of ``v``, as (v_i^H A_i)^H."""
    return (v.conj()[:, np.newaxis] @ a)[:, 0].conj()


def _column_energy(l_inv: np.ndarray, fourier: bool = False) -> np.ndarray:
    """(N, K) column energies of the stack L_i^{-1}, or with ``fourier`` of
    L_i^{-1} F_K, an orthonormal FFT along each row; a chunk at a time."""
    out = np.empty((len(l_inv), l_inv.shape[-1]))
    for sl in _symbol_chunks(l_inv):
        z = np.fft.fft(l_inv[sl], axis=-1, norm="ortho") if fourier else l_inv[sl]
        out[sl] = np.sum(z.real ** 2 + z.imag ** 2, axis=1)
    return out


def _tril_inverse(l: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Inverse of a lower-triangular matrix or stack, blocked and batched,
    written to ``out`` (not ``l``) or to a new array.

    inv([[A, 0], [B, C]]) = [[A^{-1}, 0], [-C^{-1} B A^{-1}, C^{-1}]], halving
    down to blocks of at most 16 rows, each inverted into its block of
    ``out``; the upper triangle is exactly 0.
    """
    k = l.shape[-1]
    out = np.empty_like(l) if out is None else out
    if k <= 16:
        out[...] = np.tril(np.linalg.inv(l))
        return out
    h = k // 2
    a_inv = _tril_inverse(l[..., :h, :h], out[..., :h, :h])
    c_inv = _tril_inverse(l[..., h:, h:], out[..., h:, h:])
    out[..., :h, h:] = 0
    out[..., h:, :h] = -(c_inv @ l[..., h:, :h]) @ a_inv
    return out


def _inverse_factor(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """L^{-1} for the lower Cholesky factor L of one matrix or a stack, written
    to ``out`` (which may be ``a``) or to a new array.

    Input that is not numerically positive definite raises IllConditionedError.
    """
    try:
        l = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise IllConditionedError(f"MMSE normal matrix is singular: {exc}") from exc
    return _tril_inverse(l, out)


def _gram(c: np.ndarray, sigma2: float, out: np.ndarray | None = None) -> np.ndarray:
    """C_i^H C_i + sigma^2 I for the (N, K, K) stack ``c``, a chunk of symbols at a time,
    written to ``out`` (which may be ``c``) or to a new array."""
    a = np.empty_like(c) if out is None else out
    for sl in _symbol_chunks(c):
        np.matmul(_herm(c[sl]), c[sl], out=a[sl])
    a += sigma2 * np.eye(c.shape[-1])
    return a


def mmse_sinr(mse: np.ndarray, sigma2: float) -> np.ndarray:
    """Per-bin MMSE SINR 1 / (sigma^2 G_jj) - 1 from the diagonal G_jj."""
    return 1.0 / (sigma2 * mse) - 1.0


def per_symbol_factor(c: np.ndarray, sigma2: float) -> np.ndarray:
    """(N, K, K) stack of L_i^{-1}, with L_i L_i^H = C_i^H C_i + sigma^2 I, for the stack ``c``,
    factored a chunk of symbols at a time."""
    l_inv = np.empty_like(c)
    for sl in _symbol_chunks(c):                # each chunk's Gram is overwritten by its factor
        _inverse_factor(_gram(c[sl], sigma2, out=l_inv[sl]), out=l_inv[sl])
    return l_inv


def per_symbol_mmse(c: np.ndarray, y: np.ndarray, l_inv: np.ndarray,
                    fourier: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """MMSE for y[:, i] = C_i x[:, i] + noise, one K x K block per symbol.

    ``c`` is the (N, K, K) stack of C_i, ``y`` the K x N observation grid and
    ``l_inv`` the :func:`per_symbol_factor` of ``c`` at the noise variance,
    L_i^{-1} with L_i L_i^H = C_i^H C_i + sigma^2 I.  The error diagonal
    diag(G_i) is the column energy of L_i^{-1}; with ``fourier`` it is
    diag(F_K^H G_i F_K), the column energy of L_i^{-1} F_K, taken as an
    orthonormal FFT of L_i^{-1}'s rows.  The estimates are
    G_i C_i^H y_i = L_i^{-H} L_i^{-1} C_i^H y_i, taken as matrix-vector
    products.  Returns the (N, K) diagonals and the K x N estimate grid.
    """
    z = (l_inv @ _herm_matvec(c, y.T)[..., np.newaxis])[..., 0]
    return _column_energy(l_inv, fourier), _herm_matvec(l_inv, z).T


def bidiagonal_mmse(d: np.ndarray, x: np.ndarray, r: np.ndarray, u: np.ndarray, sigma2: float,
                    mix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """MMSE for u_m = C_m a_m + X_m R a_{m-1} + noise (block lower-bidiagonal T).

    ``d`` is the (N, K, K) stack of diagonal blocks C_m, and the sub-diagonal
    blocks are given factored: ``x`` is the (N, K, r) stack of X_m (``x[0]`` is
    unused) and ``r`` the (r, K) factor R shared by every symbol, for any rank
    r >= 0.  ``u`` is the (N, K) observation, one row per symbol.  ``d`` is
    overwritten: its blocks become the factors L_m^{-1} below, so the caller's
    stack serves as the factors' storage.

    T^H T + sigma^2 I is block tridiagonal with coupling A_{m,m+1} = R^H Q_m,
    Q_m = X_{m+1}^H C_{m+1}.  The forward Schur complements S_m = L_m L_m^H
    take the rank-r update S_{m+1} = A_{m+1,m+1} - Q_m^H (V_m^H V_m) Q_m with
    V_m = L_m^{-1} R^H.  With P_m = -S_m^{-1} R^H, the backward selected
    inverse of G = (T^H T + sigma^2 I)^{-1} reads

        G_mm = S_m^{-1} + P_m (Q_m G_{m+1,m+1} Q_m^H) P_m^H,
        G_mq = P_m Y_mq  (q > m),  Y_{m,m+1} = Q_m G_{m+1,m+1},
        Y_mq = (Q_m P_{m+1}) Y_{m+1,q},

    so each block of G enters only through its diagonal, an r x K factor Y
    and r x r products: O(N^2 r^2 K + N K^3) work, O(N K^2 + N^2 K) memory,
    no K x K coupling formed, and every block formed is a block of G,
    bounded by 1/sigma^2.  The error diagonal in the basis V = mix (x) I_K
    is diag(V G V^H) = sum_{m,q} mix[a, m] conj(mix[a, q]) diag(G_mq).  The
    estimate G T^H u takes two block substitutions with L, whose
    sub-diagonal blocks E_m = Q_m^H V_m^H stay factored.  Returns the (N, K)
    error diagonal in the V basis and the (N, K) estimate in the T basis.
    """
    n, k, _ = d.shape
    rank = r.shape[0]
    r_h = _herm(r)
    x_h = _herm(x[1:])
    q = x_h @ d[1:]                              # Q_m, block (m, m+1) of T^H T is R^H Q_m
    w = _herm_matvec(d, u)                       # T^H u
    w[:-1] += (x_h @ u[1:, :, np.newaxis])[..., 0] @ r.conj()
    xx = x_h @ x[1:]
    l_inv = _gram(d, sigma2, out=d)              # S_m, overwritten by L_m^{-1} once factored
    v = np.empty((n, k, rank), dtype=l_inv.dtype)    # V_m = L_m^{-1} R^H
    for m in range(n):
        if m < n - 1:
            l_inv[m] += r_h @ xx[m] @ r
        if m:
            l_inv[m] -= _herm(q[m - 1]) @ (_herm(v[m - 1]) @ v[m - 1]) @ q[m - 1]
        _inverse_factor(l_inv[m], out=l_inv[m])
        v[m] = l_inv[m] @ r_h

    g = np.empty((n, n, k), dtype=l_inv.dtype)   # g[m, q] = diag(G_mq)
    g[range(n), range(n)] = _column_energy(l_inv)    # diag(S_m^{-1})
    y = np.empty((rank, n * k), dtype=l_inv.dtype)   # block q > m: Y_mq
    h = np.zeros((rank, rank), dtype=l_inv.dtype)    # Q_m G_{m+1,m+1} Q_m^H
    for m in reversed(range(n)):
        p = -(_herm(l_inv[m]) @ v[m])            # P_m = -S_m^{-1} R^H
        g[m, m] += np.sum((p @ h) * p.conj(), axis=1)
        y_m = y[:, (m + 1) * k:].reshape(rank, n - m - 1, k)
        g[m, m + 1:] = np.einsum("jk,jqk->qk", p.T, y_m)
        g[m + 1:, m] = g[m, m + 1:].conj()
        if m:
            qp = q[m - 1] @ p
            y[:, (m + 1) * k:] = qp @ y[:, (m + 1) * k:]
            y_next = (q[m - 1] @ _herm(l_inv[m])) @ l_inv[m] + qp @ (h @ _herm(p))
            y[:, m * k:(m + 1) * k] = y_next         # Y_{m-1,m} = Q_{m-1} G_mm
            h = y_next @ _herm(q[m - 1])
    mse = np.einsum("am,mak->ak", mix, mix.conj() @ g).real

    z = np.empty_like(w)
    z[0] = l_inv[0] @ w[0]
    for m in range(1, n):
        z[m] = l_inv[m] @ (w[m] - _herm(q[m - 1]) @ (_herm(v[m - 1]) @ z[m - 1]))
    a = np.empty_like(z)
    a[-1] = _herm(l_inv[-1]) @ z[-1]
    for m in reversed(range(n - 1)):
        a[m] = _herm(l_inv[m]) @ (z[m] - v[m] @ (q[m] @ a[m + 1]))
    return mse, a
