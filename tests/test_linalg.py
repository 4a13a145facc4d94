"""Dense linear-algebra helpers: factorizations, ranks, rotations."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from schurpole.linalg import (
    jacobi_orthogonalize,
    numerical_rank,
    orthonormal_null_basis,
    qr_decompose,
    sym_eig,
)

from conftest import rng_matrix

seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.integers(min_value=1, max_value=7)


def _char_poly_coeffs(a):
    """Characteristic polynomial of a small matrix by trace recursion.

    Faddeev-LeVerrier: independent of any eigenvalue routine, exact up to
    rounding for the n <= 4 matrices it is used on here.
    """
    n = a.shape[0]
    coeffs = [1.0]
    mk = np.eye(n)
    for k in range(1, n + 1):
        am = a @ mk
        c = -np.trace(am) / k
        coeffs.append(c)
        mk = am + c * np.eye(n)
    return np.array(coeffs)


# ---------------------------------------------------------------------------
# qr_decompose


@given(seeds, dims, dims)
def test_qr_reconstructs_and_is_orthogonal(seed, rows_extra, cols):
    rows = cols + rows_extra - 1
    if rows < cols:
        rows = cols
    a = rng_matrix(seed, rows, cols)
    q, r = qr_decompose(a)
    assert q.shape == (rows, rows)
    assert r.shape == (cols, cols)
    assert np.allclose(q.T @ q, np.eye(rows), atol=1e-12)
    stacked = np.vstack([r, np.zeros((rows - cols, cols))])
    assert np.allclose(q @ stacked, a, atol=1e-12 * max(1.0, np.linalg.norm(a)))
    assert np.allclose(r, np.triu(r))
    assert np.all(np.diag(r) >= 0)


def test_qr_rejects_wide_input():
    with pytest.raises(ValueError):
        qr_decompose(np.ones((2, 3)))


def test_qr_empty_columns():
    q, r = qr_decompose(np.zeros((3, 0)))
    assert q.shape == (3, 3)
    assert r.shape == (0, 0)
    assert np.allclose(q, np.eye(3))


# ---------------------------------------------------------------------------
# numerical_rank / orthonormal_null_basis


@given(seeds, st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=6))
def test_numerical_rank_of_products(seed, n, k):
    k = min(k, n)
    left = rng_matrix(seed, n, k)
    right = rng_matrix(seed + 1, k, n)
    a = left @ right if k else np.zeros((n, n))
    dec = numerical_rank(a)
    assert dec.rank == k
    assert dec.singular_values.shape == (n,)
    # the cutoff max(shape)*eps*sigma1 keeps 1e-6 and drops 1e-17 at any scale
    scale = 10.0 ** (seed % 25 - 12)
    assert numerical_rank(scale * np.diag([1.0, 1e-6, 1e-17])).rank == 2


@given(seeds, st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=6))
def test_null_basis_annihilates(seed, n, k):
    k = min(k, n)
    left = rng_matrix(seed, n, k)
    right = rng_matrix(seed + 1, k, n)
    a = left @ right if k else np.zeros((n, n))
    nb = orthonormal_null_basis(a)
    assert nb.shape == (n, n - k)
    if nb.shape[1]:
        assert np.linalg.norm(a @ nb) <= 1e-10 * max(1.0, np.linalg.norm(a))
        assert np.allclose(nb.T @ nb, np.eye(nb.shape[1]), atol=1e-12)


@given(
    seeds,
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=6),
    st.booleans(),
)
def test_null_basis_wide_matches_independent_svd(seed, rows, extra_cols, rank, is_complex):
    # Wide input takes the QR route; compare with scipy's SVD-based null
    # space, whose default cutoff max(shape) * eps * sigma_1 is the same.
    cols = rows + extra_cols
    rank = min(rank, rows)
    left = rng_matrix(seed, rows, rank)
    right = rng_matrix(seed + 1, rank, cols)
    if is_complex:
        left = left + 1j * rng_matrix(seed + 2, rows, rank)
        right = right + 1j * rng_matrix(seed + 3, rank, cols)
    a = left @ right if rank else np.zeros((rows, cols), dtype=left.dtype)
    nb = orthonormal_null_basis(a)
    assert nb.shape == (cols, cols - rank)
    assert np.allclose(nb.conj().T @ nb, np.eye(cols - rank), atol=1e-12)
    ref = scipy.linalg.null_space(a)
    assert ref.shape[1] == cols - rank
    assert np.linalg.norm(nb @ nb.conj().T - ref @ ref.conj().T) <= 1e-10
    # the default cutoff is relative: a singular value 1e-6 below sigma1
    # stays in the range at any scale, so only the zero columns are null
    scale = 10.0 ** (seed % 25 - 12)
    wide_null = orthonormal_null_basis(scale * np.hstack([np.diag([1.0, 1e-6]), np.zeros((2, 2))]))
    assert wide_null.shape == (4, 2)
    assert np.linalg.norm(wide_null[:2]) <= 1e-12


# ---------------------------------------------------------------------------
# sym_eig


@given(seeds, st.integers(min_value=1, max_value=4))
def test_sym_eig_matches_characteristic_polynomial(seed, n):
    g = rng_matrix(seed, n, n)
    a = g + g.T
    w, v = sym_eig(a)
    # Independent eigenvalue oracle: roots of the characteristic polynomial.
    ref = np.sort(np.roots(_char_poly_coeffs(a)).real)[::-1]
    assert np.allclose(w, ref, atol=1e-8 * max(1.0, np.abs(ref).max()))
    # Decomposition properties.
    assert np.all(np.diff(w) <= 1e-12 * max(1.0, np.abs(w).max()))
    assert np.allclose(a @ v, v @ np.diag(w), atol=1e-10 * max(1.0, np.abs(w).max()))
    assert np.allclose(v.T @ v, np.eye(n), atol=1e-12)
    for k in range(n):
        nz = np.nonzero(v[:, k])[0]
        assert v[nz[0], k] > 0


def test_sym_eig_rejects_asymmetric():
    with pytest.raises(ValueError):
        sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_sym_eig_known_values():
    w, v = sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(w, [3.0, 1.0])
    assert np.allclose(v[:, 0], np.array([1.0, 1.0]) / np.sqrt(2))


# ---------------------------------------------------------------------------
# jacobi_orthogonalize


@given(seeds, st.integers(min_value=2, max_value=8))
def test_jacobi_rotation_orthogonalizes(seed, n):
    x = rng_matrix(seed, n, 1).ravel()
    y = rng_matrix(seed + 7, n, 1).ravel()
    c, s = jacobi_orthogonalize(x, y)
    assert np.isclose(c * c + s * s, 1.0, atol=1e-14)
    u = c * x - s * y
    w = s * x + c * y
    scale = np.linalg.norm(x) * np.linalg.norm(y)
    assert abs(u @ w) <= 1e-10 * max(1.0, scale)
    # Angle stays in (-pi/4, pi/4]: the rotation nearest the identity.
    assert c >= np.cos(np.pi / 4.0) - 1e-14


def test_jacobi_orthogonal_input_is_identity():
    assert jacobi_orthogonalize([1.0, 0.0], [0.0, 2.0]) == (1.0, 0.0)


def test_jacobi_dependent_input_raises():
    with pytest.raises(ValueError):
        jacobi_orthogonalize([1.0, 2.0], [2.0, 4.0])
