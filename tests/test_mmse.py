"""The blocked triangular inverse and the block-bidiagonal MMSE, against dense references.

``mmse._tril_inverse`` replaces LAPACK ``trtri``; scipy's
``solve_triangular`` is its reference here and nowhere in the library.
``mmse.bidiagonal_mmse`` must give the error diagonal and the estimate of
the dense inverse of T^H T + sigma^2 I for any rank of its factored
sub-diagonal blocks, including 0 and more than K.  The structured routes and
the dense oracle share ``mmse._inverse_factor``, so a matrix that is not
positive definite must raise the same error on both.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from ddmod import mmse
from ddmod.transforms import dft_matrix
from ddmod.metrics import IllConditionedError, mmse_detect, sinr_map


def cholesky_factors(k, n, seed, sigma2, dtype):
    """Cholesky factors of C^H C + sigma^2 I: one (K, K) matrix if n is None, else (n, K, K)."""
    rng = np.random.default_rng(seed)
    shape = (k, k) if n is None else (n, k, k)
    c = rng.standard_normal(shape).astype(dtype)
    if np.issubdtype(dtype, np.complexfloating):
        c += 1j * rng.standard_normal(shape)
    a = mmse._gram(c[np.newaxis], sigma2)[0] if n is None else mmse._gram(c, sigma2)
    return np.linalg.cholesky(a)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(k=st.integers(1, 70), n=st.one_of(st.none(), st.integers(1, 4)),
       seed=st.integers(0, 2**16), sigma2=st.sampled_from([0.1, 1.0, 10.0]),
       dtype=st.sampled_from([np.float64, np.complex128]))
@example(k=1, n=None, seed=0, sigma2=1.0, dtype=np.complex128)
@example(k=16, n=3, seed=1, sigma2=0.1, dtype=np.complex128)
@example(k=17, n=None, seed=2, sigma2=0.1, dtype=np.float64)
@example(k=33, n=2, seed=3, sigma2=0.1, dtype=np.complex128)
@example(k=70, n=4, seed=4, sigma2=0.1, dtype=np.complex128)
def test_tril_inverse_matches_solve_triangular(k, n, seed, sigma2, dtype):
    l = cholesky_factors(k, n, seed, sigma2, dtype)
    got = mmse._tril_inverse(l)
    ref = np.array([solve_triangular(li, np.eye(k), lower=True) for li in l.reshape(-1, k, k)])
    ref = ref.reshape(l.shape)
    assert got.shape == l.shape and got.dtype == l.dtype
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
    assert np.all(np.triu(got, 1) == 0)


def test_inverse_factor_is_the_inverse_cholesky_factor():
    rng = np.random.default_rng(5)
    c = rng.standard_normal((3, 40, 40)) + 1j * rng.standard_normal((3, 40, 40))
    a = mmse._gram(c, 0.5)
    l_inv = mmse._inverse_factor(a)
    assert np.allclose(l_inv @ a @ mmse._herm(l_inv), np.eye(40), atol=1e-12)


def complex_normal(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 6), k=st.integers(1, 8), rank=st.sampled_from(["0", "1", "K-1", "K+2"]),
       seed=st.integers(0, 2**16), sigma2=st.sampled_from([1e-4, 1e-2, 1.0]))
@example(n=1, k=1, rank="K+2", seed=0, sigma2=1e-4)
@example(n=6, k=8, rank="0", seed=1, sigma2=1e-4)
@example(n=6, k=8, rank="K-1", seed=2, sigma2=1e-4)
def test_bidiagonal_mmse_matches_dense_inverse(n, k, rank, seed, sigma2):
    r_dim = {"0": 0, "1": 1, "K-1": k - 1, "K+2": k + 2}[rank]
    rng = np.random.default_rng(seed)
    d = complex_normal(rng, n, k, k)
    x = complex_normal(rng, n, k, r_dim)
    r = complex_normal(rng, r_dim, k) / np.sqrt(max(r_dim, 1))
    u = complex_normal(rng, n, k)
    mix = np.linalg.qr(complex_normal(rng, n, n))[0]
    t = np.zeros((n * k, n * k), dtype=complex)
    for m in range(n):
        t[m * k:(m + 1) * k, m * k:(m + 1) * k] = d[m]
        if m:
            t[m * k:(m + 1) * k, (m - 1) * k:m * k] = x[m] @ r
    g = np.linalg.inv(t.conj().T @ t + sigma2 * np.eye(n * k))
    v = np.kron(mix, np.eye(k))
    mse_ref = np.diag(v @ g @ v.conj().T).real.reshape(n, k)
    est_ref = (g @ t.conj().T @ u.ravel()).reshape(n, k)
    mse, est = mmse.bidiagonal_mmse(d, x, r, u, sigma2, mix)
    assert mse.shape == est.shape == (n, k)
    assert np.abs(mse - mse_ref).max() <= 1e-10 * np.abs(mse_ref).max()
    assert np.abs(est - est_ref).max() <= 1e-10 * np.abs(est_ref).max()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 5), k=st.integers(1, 40), seed=st.integers(0, 2**16),
       sigma2=st.sampled_from([1e-3, 0.1, 1.0]))
@example(n=16, k=128, seed=0, sigma2=0.01)
def test_fourier_error_diagonal_is_the_dense_basis_change(n, k, seed, sigma2):
    # per_symbol_mmse takes diag(F_K^H G_i F_K) from an FFT of the rows of L_i^{-1}
    rng = np.random.default_rng(seed)
    c = complex_normal(rng, n, k, k)
    l_inv = mmse.per_symbol_factor(c, sigma2)
    z = l_inv @ dft_matrix(k)
    ref = np.sum(np.abs(z) ** 2, axis=1)
    mse, _ = mmse.per_symbol_mmse(c, complex_normal(rng, k, n), l_inv, fourier=True)
    assert mse.shape == (n, k)
    assert np.abs(mse - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("k, n", [(8, 5), (128, 16)])
def test_chunked_stack_products_equal_one_chunk(monkeypatch, k, n):
    # one symbol per chunk against the whole stack in one chunk
    rng = np.random.default_rng(k)
    c, y = complex_normal(rng, n, k, k), complex_normal(rng, k, n)
    d, x, r = c.copy(), complex_normal(rng, n, k, 3), complex_normal(rng, 3, k)

    def run():
        l_inv = mmse.per_symbol_factor(c, 0.1)
        return (l_inv, *mmse.per_symbol_mmse(c, y, l_inv, fourier=True),
                *mmse.bidiagonal_mmse(d.copy(), x, r, y.T, 0.1, dft_matrix(n)))

    monkeypatch.setattr(mmse, "_STACK_CHUNK_BYTES", 1 << 40)
    whole = run()
    monkeypatch.setattr(mmse, "_STACK_CHUNK_BYTES", 1)
    for got, ref in zip(run(), whole):
        assert np.array_equal(got, ref)


K = 20


@pytest.mark.parametrize("route", [
    lambda: mmse._inverse_factor(-np.eye(K)),
    lambda: mmse._inverse_factor(np.stack((np.eye(K), np.diag(np.r_[np.ones(K - 1), -1.0])))),
    lambda: mmse.per_symbol_factor(np.zeros((2, K, K)), 0.0),
    lambda: mmse.bidiagonal_mmse(np.zeros((2, K, K)), np.zeros((2, K, 3)), np.zeros((3, K)),
                                 np.ones((2, K)), 0.0, np.eye(2)),
], ids=["single", "stack", "per-symbol", "bidiagonal"])
def test_structured_route_rejects_a_gram_that_is_not_positive_definite(route):
    with pytest.raises(IllConditionedError):
        route()


@pytest.mark.parametrize("route", [
    lambda c: mmse_detect(c, np.ones(K), 0.0),
    lambda c: sinr_map(c, 0.0),
], ids=["mmse_detect", "sinr_map"])
def test_dense_route_rejects_a_gram_that_is_not_positive_definite(route):
    c = np.eye(K, dtype=complex)
    c[:, 3] = 0                                  # rank K - 1: C C^H singular at sigma^2 = 0
    with pytest.raises(IllConditionedError):
        route(c)
