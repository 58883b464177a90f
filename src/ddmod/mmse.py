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
factorizations, and a block lower-bidiagonal C (DR-UFMC's tails landing in
the next symbol) needs a block-tridiagonal Cholesky of C^H C + sigma^2 I.
No KN x KN matrix is formed: the dense ``metrics.sinr_map`` and
``metrics.mmse_detect`` remain the reference these routes are tested against.
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


def per_symbol_mmse(c: np.ndarray, y: np.ndarray, sigma2: float,
                    basis: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """MMSE for y[:, i] = C_i x[:, i] + noise, one K x K block per symbol.

    ``c`` is the (N, K, K) stack of C_i and ``y`` the K x N observation grid.
    One batched Cholesky L_i L_i^H = C_i^H C_i + sigma^2 I gives the error
    diagonal diag(U^H G_i U) as the column energy of L_i^{-1} U, for the
    unitary ``basis`` U (identity by default), and the estimates
    G_i C_i^H y_i = L_i^{-H} L_i^{-1} C_i^H y_i.  Returns the (N, K) diagonals and the K x N
    estimate grid.
    """
    l_inv = _inverse_factor(_gram(c, sigma2))
    z = l_inv if basis is None else l_inv @ basis
    mse = np.sum(z.real ** 2 + z.imag ** 2, axis=1)
    x = _herm(l_inv) @ (l_inv @ (_herm(c) @ y.T[..., np.newaxis]))
    return mse, x[..., 0].T


def bidiagonal_mmse(d: np.ndarray, s: np.ndarray, u: np.ndarray, sigma2: float,
                    mix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """MMSE for u_m = D_m a_m + S_m a_{m-1} + noise (block lower-bidiagonal T).

    ``d`` and ``s`` are (N, K, K) stacks (``s[0]`` is unused), ``u`` is the
    (N, K) observation, one row per symbol.  T^H T + sigma^2 I is block
    tridiagonal, so its block Cholesky factor L is block lower-bidiagonal with
    diagonal blocks L_m and sub-diagonal blocks E_m.  The error diagonal is
    wanted in the basis V = mix (x) I_K, i.e. diag(V G V^H) with G = Z^H Z and
    Z = L^{-1}: row p of Z obeys Z[p, :p] = -L_p^{-1} E_{p-1} Z[p-1, :p] and
    Z[p, p] = L_p^{-1}, and the transform over the block-column index of each
    row adds its |.|^2 to the diagonal.  Only one block row of Z exists at a
    time, so memory is O(N K^2) for O(N^2 K^3) work.  Returns the (N, K) error
    diagonal in the V basis and the (N, K) estimate G T^H u in the T basis.
    """
    n, k, _ = d.shape
    a_diag = _gram(d, sigma2)
    a_diag[:-1] += _herm(s[1:]) @ s[1:]
    a_up = _herm(s[1:]) @ d[1:]                  # block (m, m+1) of T^H T
    l_inv = np.empty_like(d)
    e = np.empty_like(d[1:])                     # e[m] = E_m, block (m+1, m) of L
    l_inv[0] = _inverse_factor(a_diag[0])
    for m in range(n - 1):
        e[m] = _herm(l_inv[m] @ a_up[m])
        l_inv[m + 1] = _inverse_factor(a_diag[m + 1] - e[m] @ _herm(e[m]))

    mix_h = mix.conj()
    mse = np.zeros((mix.shape[0], k))
    for p in range(n):
        z_row = l_inv[:1] if p == 0 else np.concatenate(
            (-(l_inv[p] @ e[p - 1]) @ z_row, l_inv[p:p + 1]))
        r = np.tensordot(mix_h[:, :p + 1], z_row, axes=1)
        mse += np.sum(r.real ** 2 + r.imag ** 2, axis=1)

    w = (_herm(d) @ u[..., np.newaxis])[..., 0]
    w[:-1] += (_herm(s[1:]) @ u[1:, :, np.newaxis])[..., 0]
    z = np.empty_like(w)
    for m in range(n):
        z[m] = l_inv[m] @ (w[m] if m == 0 else w[m] - e[m - 1] @ z[m - 1])
    x = np.empty_like(z)
    for m in reversed(range(n)):
        x[m] = _herm(l_inv[m]) @ (z[m] if m == n - 1 else z[m] - _herm(e[m]) @ x[m + 1])
    return mse, x
