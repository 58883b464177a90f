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
factorizations, and receivers of the same stack (OTFS and OFDM-full) can
share them.  A block lower-bidiagonal C whose sub-diagonal blocks have
rank r (DR-UFMC's tails landing in the next symbol, r the numerical rank of
the precoder tail, at most L - 1) needs a block-tridiagonal Cholesky of
C^H C + sigma^2 I and a selected inverse: the diagonals of the N^2 blocks of
G from a backward recursion in r x K factors, O(N^2 r^2 K + N K^3) work.  The coupling is factored, never the
inverse, so every block formed is bounded by 1/sigma^2.  No KN x KN matrix
is formed: the dense ``metrics.sinr_map`` and ``metrics.mmse_detect`` remain
the reference these routes are tested against.
"""

from __future__ import annotations

import numpy as np


class IllConditionedError(RuntimeError):
    """The MMSE normal matrix is numerically singular (sigma^2 = 0 with rank loss)."""


def _herm(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2).conj()


def _tril_inverse(l: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular matrix or stack, blocked and batched.

    inv([[A, 0], [B, C]]) = [[A^{-1}, 0], [-C^{-1} B A^{-1}, C^{-1}]], halving
    down to blocks of at most 16 rows; the upper triangle is exactly 0.
    """
    k = l.shape[-1]
    if k <= 16:
        return np.tril(np.linalg.inv(l))
    h = k // 2
    a_inv, c_inv = _tril_inverse(l[..., :h, :h]), _tril_inverse(l[..., h:, h:])
    out = np.zeros_like(l)
    out[..., :h, :h] = a_inv
    out[..., h:, h:] = c_inv
    out[..., h:, :h] = -(c_inv @ l[..., h:, :h]) @ a_inv
    return out


def _inverse_factor(a: np.ndarray) -> np.ndarray:
    """L^{-1} for the lower Cholesky factor L of one matrix or a stack.

    Input that is not numerically positive definite raises IllConditionedError.
    """
    try:
        l = np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise IllConditionedError(f"MMSE normal matrix is singular: {exc}") from exc
    return _tril_inverse(l)


def _gram(c: np.ndarray, sigma2: float) -> np.ndarray:
    """C^H C + sigma^2 I for one matrix or a stack."""
    a = _herm(c) @ c
    a += sigma2 * np.eye(c.shape[-1])
    return a


def mmse_sinr(mse: np.ndarray, sigma2: float) -> np.ndarray:
    """Per-bin MMSE SINR 1 / (sigma^2 G_jj) - 1 from the diagonal G_jj."""
    return 1.0 / (sigma2 * mse) - 1.0


def per_symbol_factor(c: np.ndarray, sigma2: float) -> np.ndarray:
    """(N, K, K) stack of L_i^{-1}, with L_i L_i^H = C_i^H C_i + sigma^2 I, for the stack ``c``."""
    return _inverse_factor(_gram(c, sigma2))


def per_symbol_mmse(c: np.ndarray, y: np.ndarray, sigma2: float,
                    basis: np.ndarray | None = None,
                    l_inv: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """MMSE for y[:, i] = C_i x[:, i] + noise, one K x K block per symbol.

    ``c`` is the (N, K, K) stack of C_i and ``y`` the K x N observation grid.
    One batched Cholesky L_i L_i^H = C_i^H C_i + sigma^2 I gives the error
    diagonal diag(U^H G_i U) as the column energy of L_i^{-1} U, for the
    unitary ``basis`` U (identity by default), and the estimates
    G_i C_i^H y_i = L_i^{-H} L_i^{-1} C_i^H y_i.  ``l_inv`` is the
    :func:`per_symbol_factor` of ``c`` and ``sigma2`` if the caller already
    has it; receivers that see the same stack share one.  Returns the (N, K)
    diagonals and the K x N estimate grid.
    """
    if l_inv is None:
        l_inv = per_symbol_factor(c, sigma2)
    z = l_inv if basis is None else l_inv @ basis
    mse = np.sum(z.real ** 2 + z.imag ** 2, axis=1)
    x = _herm(l_inv) @ (l_inv @ (_herm(c) @ y.T[..., np.newaxis]))
    return mse, x[..., 0].T


def bidiagonal_mmse(d: np.ndarray, x: np.ndarray, r: np.ndarray, u: np.ndarray, sigma2: float,
                    mix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """MMSE for u_m = C_m a_m + X_m R a_{m-1} + noise (block lower-bidiagonal T).

    ``d`` is the (N, K, K) stack of diagonal blocks C_m, and the sub-diagonal
    blocks are given factored: ``x`` is the (N, K, r) stack of X_m (``x[0]`` is
    unused) and ``r`` the (r, K) factor R shared by every symbol, for any rank
    r >= 0.  ``u`` is the (N, K) observation, one row per symbol.

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
    q = _herm(x[1:]) @ d[1:]                     # Q_m, block (m, m+1) of T^H T is R^H Q_m
    s = _gram(d, sigma2)
    s[:-1] += r_h @ (_herm(x[1:]) @ x[1:]) @ r
    l_inv = np.empty_like(s)
    v = np.empty((n, k, rank), dtype=s.dtype)    # V_m = L_m^{-1} R^H
    for m in range(n):
        if m:
            s[m] -= _herm(q[m - 1]) @ (_herm(v[m - 1]) @ v[m - 1]) @ q[m - 1]
        l_inv[m] = _inverse_factor(s[m])
        v[m] = l_inv[m] @ r_h
    p = -(_herm(l_inv) @ v)                      # P_m = -S_m^{-1} R^H

    g = np.empty((n, n, k), dtype=s.dtype)       # g[m, q] = diag(G_mq)
    g[range(n), range(n)] = np.sum(l_inv.real ** 2 + l_inv.imag ** 2, axis=1)  # diag(S_m^{-1})
    y = np.empty((rank, n * k), dtype=s.dtype)   # block q > m: Y_mq
    h = np.zeros((rank, rank), dtype=s.dtype)    # Q_m G_{m+1,m+1} Q_m^H
    for m in reversed(range(n)):
        g[m, m] += np.sum((p[m] @ h) * p[m].conj(), axis=1)
        y_m = y[:, (m + 1) * k:].reshape(rank, n - m - 1, k)
        g[m, m + 1:] = np.einsum("jk,jqk->qk", p[m].T, y_m)
        g[m + 1:, m] = g[m, m + 1:].conj()
        if m:
            qp = q[m - 1] @ p[m]
            y[:, (m + 1) * k:] = qp @ y[:, (m + 1) * k:]
            y_next = (q[m - 1] @ _herm(l_inv[m])) @ l_inv[m] + qp @ (h @ _herm(p[m]))
            y[:, m * k:(m + 1) * k] = y_next         # Y_{m-1,m} = Q_{m-1} G_mm
            h = y_next @ _herm(q[m - 1])
    mse = np.einsum("am,mak->ak", mix, mix.conj() @ g).real

    w = (_herm(d) @ u[..., np.newaxis])[..., 0]
    w[:-1] += (_herm(x[1:]) @ u[1:, :, np.newaxis])[..., 0] @ r.conj()
    z = np.empty_like(w)
    z[0] = l_inv[0] @ w[0]
    for m in range(1, n):
        z[m] = l_inv[m] @ (w[m] - _herm(q[m - 1]) @ (_herm(v[m - 1]) @ z[m - 1]))
    a = np.empty_like(z)
    a[-1] = _herm(l_inv[-1]) @ z[-1]
    for m in reversed(range(n - 1)):
        a[m] = _herm(l_inv[m]) @ (z[m] - v[m] @ (q[m] @ a[m + 1]))
    return mse, a
