"""Dense linear-algebra helpers: factorizations, ranks, QZ, norms."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

import schurpole.linalg as linalg_module
from schurpole import run_pipeline, validate_problem, verify_solution
from schurpole.linalg import (
    euclidean_norm,
    generalized_eig,
    numerical_rank,
    openblas_threads,
    orthonormal_null_basis,
    qr_decompose,
    serial_blas,
)

from conftest import make_instance, rng_matrix

seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.integers(min_value=1, max_value=7)


def _same_bits(x, y) -> bool:
    """x and y have one dtype, one shape, one memory layout and the same
    bytes (signed zeros and NaN payloads included).  The layout counts:
    BLAS rounds a product with a strided operand differently."""
    x, y = np.asarray(x), np.asarray(y)
    same_layout = x.shape == y.shape and x.strides == y.strides
    return x.dtype == y.dtype and same_layout and x.tobytes(order="A") == y.tobytes(order="A")


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


def _qr_by_column_loop(a):
    """qr_decompose's sign fix as a loop over the columns, the reference
    for its vectorized form."""
    q, r = np.linalg.qr(a, mode="complete")
    cols = a.shape[1]
    r = r[:cols, :cols].copy()
    for k in range(cols):
        d = r[k, k]
        if (d.real if np.iscomplexobj(r) else d) < 0:
            r[k, :] = -r[k, :]
            q[:, k] = -q[:, k]
    return q, r


@pytest.mark.parametrize("is_complex", [False, True])
@pytest.mark.parametrize("shape", [(1, 1), (5, 5), (9, 4), (30, 2), (30, 28), (100, 60)])
def test_qr_sign_fix_matches_the_loop(shape, is_complex):
    for seed in range(4):
        a = rng_matrix(seed, *shape)
        if is_complex:
            a = a + 1j * rng_matrix(seed + 100, *shape)
        q, r = qr_decompose(a)
        q_ref, r_ref = _qr_by_column_loop(a)
        assert _same_bits(q, q_ref) and _same_bits(r, r_ref)


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
    assert numerical_rank(a) == k
    # the cutoff max(shape)*eps*sigma1 keeps 1e-6 and drops 1e-17 at any scale
    scale = 10.0 ** (seed % 25 - 12)
    assert numerical_rank(scale * np.diag([1.0, 1e-6, 1e-17])) == 2


def _svd_rank(a):
    """The rank count numerical_rank promises, from the test's own SVD."""
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.count_nonzero(s > max(a.shape) * np.finfo(float).eps * s[0])) if s.size else 0


def _random_unitary(seed, n, is_complex):
    z = rng_matrix(seed, n, n)
    return np.linalg.qr(z + 1j * rng_matrix(seed + 1, n, n) if is_complex else z)[0]


def _with_singular_values(seed, rows, cols, sigma, is_complex):
    """U diag(sigma) V^H with random unitary U, V and len(sigma) = min(rows, cols)."""
    u = _random_unitary(seed, rows, is_complex)
    v = _random_unitary(seed + 2, cols, is_complex)
    k = min(rows, cols)
    return (u[:, :k] * sigma) @ v[:, :k].conj().T


@given(
    seeds,
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=0, max_value=7),
    st.floats(min_value=-20.0, max_value=0.0),
    st.booleans(),
)
def test_numerical_rank_equals_svd_count(seed, rows, cols, rank, log_sigma_min, is_complex):
    # Wide, tall and square, real and complex; the smallest nonzero
    # singular value runs from far below the cutoff through the
    # certificate's margin to well above it, so both routes are taken.
    k = min(rows, cols)
    rank = min(rank, k)
    sigma = np.zeros(k)
    sigma[:rank] = np.geomspace(1.0, 10.0**log_sigma_min, rank) if rank else []
    a = 10.0 ** (seed % 25 - 12) * _with_singular_values(seed, rows, cols, sigma, is_complex)
    assert numerical_rank(a) == _svd_rank(a)
    assert numerical_rank(a.conj().T) == _svd_rank(a.conj().T)


@pytest.mark.parametrize("is_complex", [False, True])
@pytest.mark.parametrize("shape", [(6, 9), (9, 6), (6, 6)])
def test_numerical_rank_certifies_without_svd_and_falls_back_near_the_cutoff(monkeypatch, shape, is_complex):
    svd_calls = []
    original_svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        svd_calls.append(args[0].shape)
        return original_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    cutoff = max(shape) * np.finfo(float).eps
    # sigma_min = 1e-8 clears the cutoff by far more than the 1e3 margin:
    # certified full rank, no SVD at all
    a = _with_singular_values(5, *shape, np.geomspace(1.0, 1e-8, 6), is_complex)
    assert np.iscomplexobj(a) == is_complex
    assert numerical_rank(a) == 6 and svd_calls == []
    # 100 x the cutoff is inside the margin: the input's own SVD decides
    a = _with_singular_values(5, *shape, np.geomspace(1.0, 100 * cutoff, 6), is_complex)
    assert numerical_rank(a) == 6 and svd_calls == [shape]
    # rank deficient: the certificate cannot hold, the SVD counts
    a = _with_singular_values(5, *shape, np.array([1.0, 0.5, 0.25, 0.1, 0.0, 0.0]), is_complex)
    assert numerical_rank(a) == 4 and svd_calls == [shape, shape]


@pytest.mark.parametrize("shape", [(3, 5), (5, 3), (4, 4), (0, 4), (4, 0), (0, 0)])
def test_numerical_rank_of_zero_and_empty_input(shape):
    assert numerical_rank(np.zeros(shape)) == 0
    assert numerical_rank(np.zeros(shape, dtype=complex)) == 0


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


def _assert_null_basis_matches_scipy(a, nb, dim, span_tol=1e-10):
    """``nb`` is orthonormal, has ``dim`` columns, annihilates ``a`` to
    rounding, and spans the null space that scipy's SVD-based
    ``null_space`` finds at the same default cutoff max(shape) * eps *
    sigma_1, to ``span_tol`` in the projector distance."""
    ref = scipy.linalg.null_space(a)
    assert nb.shape == ref.shape == (a.shape[1], dim)
    assert np.allclose(nb.conj().T @ nb, np.eye(dim), atol=1e-12)
    assert np.linalg.norm(a @ nb) <= 1e-13 * max(1.0, np.linalg.norm(a))
    assert np.linalg.norm(nb @ nb.conj().T - ref @ ref.conj().T) <= span_tol


@given(
    seeds,
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=6),
    st.booleans(),
    st.booleans(),
)
def test_null_basis_matches_scipy_null_space(seed, rows, extra_cols, rank, is_complex, tall):
    # Wide input takes the QR route with its full-rank certificate, tall
    # and square input the SVD route; products of random factors are full
    # rank or exactly rank deficient.
    cols = rows + extra_cols
    if tall:
        rows, cols = cols, rows
    rank = min(rank, rows, cols)
    left = rng_matrix(seed, rows, rank)
    right = rng_matrix(seed + 1, rank, cols)
    if is_complex:
        left = left + 1j * rng_matrix(seed + 2, rows, rank)
        right = right + 1j * rng_matrix(seed + 3, rank, cols)
    a = left @ right if rank else np.zeros((rows, cols), dtype=left.dtype)
    _assert_null_basis_matches_scipy(a, orthonormal_null_basis(a), cols - rank)
    # the default cutoff is relative: a singular value 1e-6 below sigma1
    # stays in the range at any scale, so only the zero columns are null
    scale = 10.0 ** (seed % 25 - 12)
    wide_null = orthonormal_null_basis(scale * np.hstack([np.diag([1.0, 1e-6]), np.zeros((2, 2))]))
    assert wide_null.shape == (4, 2)
    assert np.linalg.norm(wide_null[:2]) <= 1e-12


@pytest.mark.parametrize("is_complex", [False, True])
@pytest.mark.parametrize("sigma_min", [1e-8, 100 * 9 * np.finfo(float).eps])
def test_null_basis_certificate_and_svd_fallback(is_complex, sigma_min):
    # A 6 x 9 input with singular values 1, ..., sigma_min.  At 1e-8 the
    # triangular-inverse certificate proves full rank; at 100x the rank
    # cutoff 9 * eps * sigma_1 it cannot (its margin is 1e3), and R's SVD
    # must decide, still full rank.  Rounding of size eps * ||a|| turns
    # the null space by up to about that over sigma_min, so two correct
    # routes agree on the span only to 1e3 * eps / sigma_min.
    u = np.linalg.qr(rng_matrix(1, 6, 6) + 1j * is_complex * rng_matrix(2, 6, 6))[0]
    v = np.linalg.qr(rng_matrix(3, 9, 9) + 1j * is_complex * rng_matrix(4, 9, 9))[0]
    a = (u * np.geomspace(1.0, sigma_min, 6)) @ v[:6].conj()
    r = scipy.linalg.qr(a.conj().T, mode="r")[0][:6]
    assert linalg_module._certified_full_rank(r, a.shape) == (sigma_min == 1e-8)
    span_tol = 1e3 * np.finfo(float).eps / sigma_min
    _assert_null_basis_matches_scipy(a, orthonormal_null_basis(a), 3, span_tol)


def test_null_basis_on_alternating_wide_shapes_and_dtypes():
    # The solver's shapes, (n - m) x n at n = 100 and smaller, real and
    # complex in turn: one and many null columns, and an exactly rank
    # deficient input.  Each basis is orthonormal and spans scipy's null
    # space; the input is left as it was, and a repeated call on the same
    # input returns the same bits whatever ran in between.
    cases = []
    for k, (rows, cols, rank) in enumerate([(99, 100, 99), (40, 100, 40), (90, 100, 85), (1, 30, 1), (28, 30, 28)]):
        for is_complex in (False, True):
            left = rng_matrix(10 * k, rows, rank) + 1j * is_complex * rng_matrix(10 * k + 1, rows, rank)
            right = rng_matrix(10 * k + 2, rank, cols) + 1j * is_complex * rng_matrix(10 * k + 3, rank, cols)
            cases.append((left @ right, cols - rank))
    first = []
    for a, dim in cases:
        before = a.copy()
        nb = orthonormal_null_basis(a)
        assert np.array_equal(a, before)
        assert nb.dtype == a.dtype
        assert np.linalg.norm(nb.conj().T @ nb - np.eye(dim)) <= 1e-13
        ref = scipy.linalg.null_space(a)
        assert ref.shape[1] == dim
        assert np.linalg.norm(nb @ nb.conj().T - ref @ ref.conj().T) <= 1e-10
        first.append(nb)
    for (a, _), nb in zip(reversed(cases), reversed(first)):
        assert np.array_equal(orthonormal_null_basis(a), nb)


# ---------------------------------------------------------------------------
# generalized_eig and euclidean_norm


def _pencils():
    """(name, a, b) of real pencils: complex couples, infinite eigenvalues,
    a real spectrum, a 1e200 scale and an order-1 pencil."""
    rng = np.random.default_rng(7)
    for n in (1, 2, 6, 30):
        yield f"random-{n}", rng.standard_normal((n, n)), rng.standard_normal((n, n))
    a, b = rng.standard_normal((8, 8)), rng.standard_normal((8, 8))
    b[:, :3] = 0.0  # three infinite eigenvalues
    yield "infinite", a, b
    s = rng.standard_normal((7, 7))
    yield "real-spectrum", s + s.T, np.eye(7)
    yield "scaled-1e200", 1e200 * rng.standard_normal((6, 6)), 1e200 * rng.standard_normal((6, 6))
    c = np.diag([2.0, -1.0, 0.5, 3.0])
    c[0, 1], c[1, 0] = 4.0, -4.0  # a couple at 0.5 +- 4.03i
    yield "couple-and-zero", c, np.diag([1.0, 1.0, 0.0, 1.0])


@pytest.mark.parametrize("vectors", [False, True])
def test_generalized_eig_matches_scipy_eig_bit_for_bit(vectors):
    for name, a, b in _pencils():
        w, vl, vr = generalized_eig(a, b, vectors)
        ref = scipy.linalg.eig(a, b, right=vectors, homogeneous_eigvals=True)
        w_ref, vr_ref = ref if vectors else (ref, None)
        assert vl is None
        assert _same_bits(w, w_ref), name
        assert (vr is None and vr_ref is None) or _same_bits(vr, vr_ref), name


@pytest.mark.parametrize("vectors", [False, True])
def test_generalized_eig_left_vectors_match_scipy_eig_bit_for_bit(vectors):
    # scipy.linalg.eig(left=True, right=False) divides only the first
    # column of vl by its norm (its loop counts the rows of the 1 x n
    # placeholder for vr), so the pairs and that column are pinned to it,
    # and every column to the call with both sides
    for name, a, b in _pencils():
        w, vl, vr = generalized_eig(a, b, vectors, left=True)
        w_ref, vl_ref, vr_ref = scipy.linalg.eig(a, b, left=True, right=True, homogeneous_eigvals=True)
        w_left, vl_left = scipy.linalg.eig(a, b, left=True, right=False, homogeneous_eigvals=True)
        assert _same_bits(w, w_ref) and _same_bits(w, w_left), name
        assert _same_bits(vl, vl_ref), name
        assert _same_bits(vl[:, 0], vl_left[:, 0]), name
        assert (vr is None and not vectors) or _same_bits(vr, vr_ref), name
        # beta y^H a = alpha y^H b with unit y, in units of max|a_ij|, max|b_ij|
        assert np.allclose(np.linalg.norm(vl, axis=0), 1.0), name
        sa, sb = np.abs(a).max(), np.abs(b).max()
        resid = (w[1] / sb)[:, None] * (vl.conj().T @ (a / sa)) - (w[0] / sa)[:, None] * (vl.conj().T @ (b / sb))
        assert np.linalg.norm(resid) <= 1e-13 * a.shape[0] ** 2, name


@pytest.mark.parametrize("vectors", [False, True])
def test_generalized_eig_of_the_empty_pencil_and_non_finite_input(vectors):
    empty = np.zeros((0, 0))
    w, vl, vr = generalized_eig(empty, empty, vectors)
    ref = scipy.linalg.eig(empty, empty, right=vectors, homogeneous_eigvals=True)
    w_ref, vr_ref = ref if vectors else (ref, None)
    assert vl is None
    assert _same_bits(w, w_ref)
    assert (vr is None and vr_ref is None) or _same_bits(vr, vr_ref)
    w, vl, vr = generalized_eig(empty, empty, vectors, left=True)
    w_ref, vl_ref = scipy.linalg.eig(empty, empty, left=True, right=False, homogeneous_eigvals=True)
    assert _same_bits(w, w_ref) and _same_bits(vl, vl_ref)
    bad = np.eye(3)
    bad[1, 2] = np.inf
    for a, b in ((bad, np.eye(3)), (np.eye(3), bad)):
        with pytest.raises(ValueError, match="must not contain infs or NaNs"):
            scipy.linalg.eig(a, b)
        with pytest.raises(ValueError, match="must not contain infs or NaNs"):
            generalized_eig(a, b, vectors)
        with pytest.raises(ValueError, match="must not contain infs or NaNs"):
            generalized_eig(a, b, vectors, left=True)


def test_euclidean_norm_matches_numpy_bit_for_bit():
    # contiguous vectors and strided views of every length up to 64, real
    # and complex, and matrices in both orders: numpy ravels a strided view
    # to a contiguous copy, and BLAS rounds a strided dot product otherwise
    rng = np.random.default_rng(3)
    for n in range(65):
        buf = rng.standard_normal((n, 3))
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for x in (buf[:, 0].copy(), buf[:, 1], buf.T[2], z, z.real, z.imag, buf, buf.T, np.asfortranarray(buf)):
            assert euclidean_norm(x) == float(np.linalg.norm(x)), (n, x.strides)


# ---------------------------------------------------------------------------
# serial_blas


def _set_openblas_threads(count):
    for _, _, set_ in linalg_module._openblas_thread_controls():
        set_(count)


@pytest.fixture
def two_blas_threads():
    """Every bundled OpenBLAS at 2 threads for the test, restored after."""
    if not openblas_threads():
        pytest.skip("numpy and scipy bundle no OpenBLAS here")
    saved = openblas_threads()
    _set_openblas_threads(2)
    yield
    for (_, _, set_), count in zip(linalg_module._openblas_thread_controls(), saved.values()):
        set_(count)


def test_serial_blas_restores_counts_nested_too(two_blas_threads):
    before = openblas_threads()
    assert set(before.values()) == {2}
    with serial_blas():
        assert set(openblas_threads().values()) == {1}
        with serial_blas():
            assert set(openblas_threads().values()) == {1}
        assert set(openblas_threads().values()) == {1}
    assert openblas_threads() == before
    with pytest.raises(RuntimeError), serial_blas():
        raise RuntimeError
    assert openblas_threads() == before


def test_entry_points_restore_blas_threads_and_solve_bit_identically(two_blas_threads):
    # The generator and the solver run on one thread whatever the caller's
    # count, so their answers cannot move with how a threaded BLAS splits
    # its sums.  At n = 100 OpenBLAS splits products over threads: drawn on
    # 2 threads without serial_blas, this instance's E differs in its last
    # bits from its 1-thread draw, and solved on 2 threads without
    # serial_blas, an entry of its F moves by 0.2 from its 1-thread value.
    before = openblas_threads()
    prob = make_instance(100, 50, 10, 60)
    assert openblas_threads() == before
    sol = run_pipeline(prob)
    assert openblas_threads() == before
    assert validate_problem(prob).passed
    assert openblas_threads() == before
    assert verify_solution(prob, sol).passed
    assert openblas_threads() == before
    _set_openblas_threads(1)
    drawn = make_instance(100, 50, 10, 60)
    assert all(np.array_equal(getattr(prob, k), getattr(drawn, k)) for k in ("E", "A", "B"))
    assert drawn.poles == prob.poles
    serial = run_pipeline(drawn)
    assert np.array_equal(sol.F, serial.F) and np.array_equal(sol.G, serial.G)
