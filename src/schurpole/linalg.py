"""Dense real/complex linear-algebra kernels with fixed output conventions.

Thin deterministic wrappers around LAPACK (through numpy and scipy) and
BLAS.  Conventions that the underlying library leaves open are pinned here
so downstream computations are reproducible run to run:

* ``qr_decompose``: the triangular factor has a nonnegative diagonal.
* ``numerical_rank``: a full-rank certificate from one Householder QR and
  a triangular inverse runs first; where it does not hold, the input's
  singular values are counted.
* ``orthonormal_null_basis``: on square and tall input, the trailing right
  singular vectors in order; on wide input, the null directions of the
  square triangular factor of a QR of the conjugate transpose, followed by
  that QR's trailing orthogonal columns.  The orthogonal factor is applied
  in its Householder form, one reflector at a time (LAPACK
  ``?orm2r``/``?unm2r``), and never formed.
* ``generalized_eig``: the QZ eigenvalues (and right or left
  eigenvectors) of a real pencil, exactly as
  ``scipy.linalg.eig(a, b, homogeneous_eigvals=True)`` returns them,
  always as the triple (w, vl, vr).
* ``euclidean_norm``: ``np.linalg.norm`` of an array, bit for bit.

The small-matrix routines of the solver and of verification run hundreds
of times per solve, so the wrappers' own work would cost more than LAPACK
does.  scipy's LAPACK routines ``?geqrf``, ``?trtri``, ``?lantr``,
``?ormqr``/``?unmqr`` and ``?ggev`` are therefore called directly, each
through one handle per dtype looked up once (``_lapack``), with the
arguments and workspace sizes that scipy's own wrapper
(``scipy.linalg.eig``) would pass, so every answer is the wrapper's
answer bit for bit.  A workspace size decides which blocked path LAPACK
takes, and so how it rounds, but a workspace query reads only the order
of the matrix, never its entries: ``?ggev`` is asked once per order
(``_ggev_workspace``) and gets that size on every call.  ``?geqrf`` gets
its block size without a query (``_GEQRF_BLOCK``).  numpy's own linalg
(``svd``, ``eigh``, ``qr``, ``solve``) is left where it computes: numpy
bundles another OpenBLAS than scipy, which rounds differently.

``serial_blas`` runs a computation on one OpenBLAS thread, in numpy's and
scipy's OpenBLAS alike.  The package's entry points (``run_pipeline``,
``validate_problem``, ``verify_solution``) run inside it, so their results
do not depend on the caller's thread counts, and scipy's LAPACK calls do
not contend with numpy's BLAS threads for the cores.

All routines reject matrices containing NaN or infinity.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
from pathlib import Path

import numpy as np
import scipy
import scipy.linalg

__all__ = [
    "qr_decompose",
    "euclidean_norm",
    "generalized_eig",
    "orthonormal_null_basis",
    "numerical_rank",
    "openblas_threads",
    "serial_blas",
]

_EPS = float(np.finfo(np.float64).eps)

# Margin of the full-rank certificate in numerical_rank and
# orthonormal_null_basis.  A triangular inverse X computed by LAPACK's
# ?trtri satisfies X R = I + F with ||F||_F <= c_k eps ||X||_F ||R||_F,
# c_k of the order of k, the order of R (Higham, Accuracy and Stability of
# Numerical Algorithms, 2nd ed., Sect. 14.2).  Hence
# ||R^{-1}||_F <= ||X||_F / (1 - c_k eps ||X||_F ||R||_F).  When
# 1/||X||_F > margin * max(shape) * eps * ||R||_F, with k <= max(shape),
# the denominator exceeds 1 - c_k/(k margin), so sigma_min(R) >=
# 1/||R^{-1}||_F exceeds the rank cutoff max(shape) * eps * sigma_max(R)
# by about the margin: the SVD would find full rank too, with room for its
# own rounding.  1e3 keeps that room at three decades while leaving the
# SVD to every R within three decades of the cutoff.
_FULL_RANK_MARGIN = 1e3

# LAPACK's block size for ?geqrf (its ilaenv default).  A workspace of that
# many entries per column is the blocked algorithm's optimum, so ?geqrf
# runs as it would after a workspace query, without one.
_GEQRF_BLOCK = 32


@functools.cache
def _lapack(name: str, dtype: np.dtype):
    """scipy's LAPACK routine ``name`` for arrays of ``dtype``, the one
    ``scipy.linalg.get_lapack_funcs`` picks for them, looked up once."""
    return scipy.linalg.get_lapack_funcs(name, dtype=dtype)


@functools.cache
def _nrm2(dtype: np.dtype):
    """The BLAS ``?nrm2`` that ``scipy.linalg.norm`` calls on a vector of
    ``dtype``, looked up once."""
    return scipy.linalg.get_blas_funcs("nrm2", dtype=dtype, ilp64="preferred")


def _as_matrix(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {a.shape}")
    # float64 and complex128, the dtypes of every internal call, skip the
    # dtype test
    if a.dtype.char not in "dD" and not np.issubdtype(a.dtype, np.inexact):
        a = a.astype(np.float64)
    if a.size and not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return a


def euclidean_norm(x: np.ndarray) -> float:
    """``np.linalg.norm(x)`` of a float64 or complex128 array, bit for bit.

    numpy takes the 2-norm of the entries (the Frobenius norm of a matrix)
    as the square root of one BLAS dot product over ``x.ravel(order="K")``,
    a contiguous copy when ``x`` is a strided view, and of the sum of the
    dot products of its real and imaginary parts for complex ``x``.  The
    same calls are made here without numpy's argument handling.  The copy
    matters: BLAS rounds a strided dot product differently.
    """
    x = x.ravel(order="K")
    if x.dtype.kind == "c":
        re, im = x.real, x.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    return math.sqrt(x.dot(x))


def qr_decompose(m) -> tuple[np.ndarray, np.ndarray]:
    """Full QR factorization M = Q [R; 0] with R's diagonal >= 0.

    ``m`` must have at least as many rows as columns.  Returns the square
    orthogonal (unitary) factor Q of size rows x rows and the square upper
    triangular factor R of size cols x cols.
    """
    a = _as_matrix(m)
    rows, cols = a.shape
    if rows < cols:
        raise ValueError(f"qr_decompose needs rows >= cols, got {a.shape}")
    if cols == 0:
        return np.eye(rows, dtype=a.dtype), np.zeros((0, 0), dtype=a.dtype)
    q, r = np.linalg.qr(a, mode="complete")
    r = r[:cols, :cols].copy()
    flip = np.flatnonzero(r.diagonal().real < 0)
    r[flip] = -r[flip]
    q[:, flip] = -q[:, flip]
    return q, r


def _rank_from_singular_values(s: np.ndarray, shape) -> int:
    """Count of singular values above max(shape) * eps * sigma_max."""
    if s.size == 0:
        return 0
    return int(np.count_nonzero(s > max(shape) * _EPS * float(s[0])))


def _householder_qr(tall: np.ndarray, overwrite: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Raw Householder QR (LAPACK ``?geqrf``) of ``tall`` (rows >= cols):
    the reflectors below and R on and above the diagonal of the first
    array, the reflector scalars in the second.  ``overwrite`` lets LAPACK
    work in ``tall`` itself when it is Fortran-ordered."""
    geqrf = _lapack("geqrf", tall.dtype)
    qr, tau, _, info = geqrf(tall, lwork=max(_GEQRF_BLOCK * tall.shape[1], 1), overwrite_a=overwrite)
    if info != 0:
        raise ValueError(f"LAPACK ?geqrf failed (info={info})")
    return qr, tau


def _certified_full_rank(qr: np.ndarray, shape) -> bool:
    """True when the upper triangle R of the leading square of ``qr``
    (rows >= cols, such as ``_householder_qr``'s first output) provably has
    all its singular values above the rank cutoff of a matrix of ``shape``
    (the bound behind ``_FULL_RANK_MARGIN``); False leaves the decision to
    the SVD.  Entries below the diagonal are not read: ``?lantr`` takes
    ||R||_F from the upper trapezoid of ``qr`` itself, without a copy."""
    trtri, lantr = _lapack("trtri", qr.dtype), _lapack("lantr", qr.dtype)
    inv, info = trtri(qr[: qr.shape[1]])
    if info != 0:
        return False
    cutoff = max(shape) * _EPS * lantr("F", qr)
    return 1.0 / lantr("F", inv) > _FULL_RANK_MARGIN * cutoff


def numerical_rank(m) -> int:
    """Numerical rank of ``m`` at the cutoff max(rows, cols) * eps * sigma_max.

    One Householder QR (LAPACK ``?geqrf``) of the taller of M and M^T gives
    a square triangular R with M's singular values.  When R's triangular
    inverse certifies full rank (``_FULL_RANK_MARGIN``), the answer is
    min(rows, cols) and no SVD runs.  Otherwise the singular values of
    ``m`` itself, not of R, are counted, so a rank-deficient answer is
    always that SVD count.
    """
    a = _as_matrix(m)
    if a.size == 0:
        return 0
    rows, cols = a.shape
    qr, _ = _householder_qr(a if rows >= cols else a.T)
    if _certified_full_rank(qr, a.shape):
        return min(rows, cols)
    return _rank_from_singular_values(np.linalg.svd(a, compute_uv=False), a.shape)


def orthonormal_null_basis(m) -> np.ndarray:
    """Orthonormal basis of the (right) null space of ``m``.

    Column count equals cols(m) - numerical_rank(m), the rank counting
    singular values of ``m`` above max(rows, cols) * eps * sigma_max.
    Square and tall inputs take a full SVD and return the trailing right
    singular vectors, in order.  A wide input M (rows < cols) takes one
    Householder QR, M^H = Q [R; 0] with Q = [Q1 Q2], and R has M's
    singular values.  Q2 spans the generic cols - rows null directions;
    when M has less than full row rank, the extra ones, Q1 U_R[:, rank:]
    for R = U_R S V_R^H, come first.  Those columns are Q applied to
    [0; I], or to [U_R[:, rank:], 0; 0, I], through the stored reflectors:
    O(rows cols (cols - rank)) work; Q itself is never formed.  The
    reflectors are applied one at a time (LAPACK's unblocked ``?orm2r`` /
    ``?unm2r``, chosen by the minimal workspace), which for the few columns
    of [0; I] costs less than forming the blocked method's triangular
    factors.  Full row rank is certified from the triangular inverse of R
    when 1/||R^{-1}||_F > 1e3 * max(rows, cols) * eps * ||R||_F (see
    ``_FULL_RANK_MARGIN``); otherwise R's SVD decides.  The result is
    reproducible for identical inputs, but which orthonormal basis of the
    null space it is remains a convention.
    """
    a = _as_matrix(m)
    rows, cols = a.shape
    if cols == 0:
        return np.zeros((0, 0), dtype=a.dtype)
    if rows == 0 or not np.any(a):
        return np.eye(cols, dtype=a.dtype)
    if rows >= cols:
        _, s, vh = np.linalg.svd(a, full_matrices=True)
        return vh[_rank_from_singular_values(s, a.shape) :].conj().T.copy()
    # np.conjugate always returns a fresh (Fortran-ordered) array, which
    # ?geqrf may overwrite; ndarray.conj() would return a real input itself
    qr, tau = _householder_qr(np.conjugate(a.T), overwrite=True)
    rank = rows
    if not _certified_full_rank(qr, a.shape):
        u_r, s, _ = np.linalg.svd(np.triu(qr[:rows]))
        rank = _rank_from_singular_values(s, a.shape)
    c = np.zeros((cols, cols - rank), dtype=qr.dtype, order="F")
    np.fill_diagonal(c[rows:, rows - rank :], 1.0)
    if rank < rows:
        c[:rows, : rows - rank] = u_r[:, rank:]
    out, _, info = _lapack("ormqr", qr.dtype)("L", "N", qr, tau, c, c.shape[1], overwrite_c=1)
    if info != 0:
        raise ValueError(f"LAPACK ?ormqr failed (info={info})")
    return out


@functools.cache
def _openblas_thread_controls() -> tuple[tuple[str, object, object], ...]:
    """(library name, get, set) of the thread count of each OpenBLAS that
    numpy's and scipy's wheels bundle, found by their exported
    ``scipy_openblas_{get,set}_num_threads[64_]``; empty for other builds."""
    controls = []
    for pkg in (np, scipy):
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(libs.glob("*openblas*")):
            lib = ctypes.CDLL(str(path))
            for suffix in ("64_", ""):
                try:
                    get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
                    set_ = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
                except AttributeError:
                    continue
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                controls.append((f"{pkg.__name__}.libs/{path.name}", get, set_))
                break
    return tuple(controls)


def openblas_threads() -> dict[str, int]:
    """Current thread count of each OpenBLAS that numpy and scipy bundle,
    keyed by library file; empty when neither bundles one."""
    return {name: get() for name, get, _ in _openblas_thread_controls()}


@contextlib.contextmanager
def serial_blas():
    """Run the enclosed code with every bundled OpenBLAS on one thread.

    The previous counts are restored on exit, so nested use is safe, and
    the context manager also works as a decorator.  Without a bundled
    OpenBLAS it does nothing.  The counts are process-wide: code running
    in other threads meanwhile runs serial too.
    """
    controls = _openblas_thread_controls()
    saved = [get() for _, get, _ in controls]
    for _, _, set_ in controls:
        set_(1)
    try:
        yield
    finally:
        for (_, _, set_), count in zip(controls, saved):
            set_(count)


@functools.cache
def _ggev_workspace(n: int) -> int:
    """lwork of ``?ggev`` at order n, as ``scipy.linalg.eig`` queries it:
    with both eigenvector sides requested, whichever it then computes."""
    zero = np.zeros((n, n))
    *_, work, info = _lapack("ggev", zero.dtype)(zero, zero, lwork=-1)
    if info != 0:
        raise ValueError(f"LAPACK ?ggev workspace query failed (info={info})")
    return int(work[0].real)


def _unit_eigenvectors(v: np.ndarray, alphai: np.ndarray) -> np.ndarray:
    """``?ggev``'s eigenvector columns as ``scipy.linalg.eig`` returns them:
    the real pair of columns i, i+1 that ``?ggev`` stores for a couple
    (alphai[i] > 0) made complex, then each column divided by its BLAS
    ``?nrm2``."""
    if np.any(alphai != 0.0):
        real_v = v
        v = np.array(real_v, dtype=complex)
        for i in np.flatnonzero(alphai > 0.0):
            v.imag[:, i] = real_v[:, i + 1]
            np.conj(v[:, i], v[:, i + 1])
    nrm2 = _nrm2(v.dtype)
    for i in range(v.shape[1]):
        v[:, i] /= nrm2(v[:, i])
    return v


def generalized_eig(a: np.ndarray, b: np.ndarray, vectors: bool = False, *, left: bool = False):
    """QZ eigenvalues of the real pencil (a, b) as homogeneous pairs, with
    unit right eigenvectors, and unit left ones, on request.

    Returns ``(w, vl, vr)``: ``w`` is the 2 x n complex array of the pairs
    (alpha, beta), ``vr`` the n x n matrix of right eigenvectors (None
    unless ``vectors``), ``vl`` that of the left ones, y^H a =
    (alpha/beta) y^H b (None unless ``left``).  ``w`` and ``vr`` are bit for
    bit what ``scipy.linalg.eig(a, b, left=left, right=vectors,
    homogeneous_eigvals=True)`` returns, and so is ``vl`` when ``vectors``
    is set too.  That is one LAPACK ``?ggev`` call with the workspace of
    ``_ggev_workspace``; the eigenvector columns are made complex for a
    couple and divided by their BLAS ``?nrm2``, as scipy does
    (``_unit_eigenvectors``).  With ``left`` alone scipy divides only the
    first column of ``vl``: its loop over the columns counts the rows of
    the right-eigenvector array, a 1 x n placeholder when that is not
    computed.  Here every column is a unit vector.  ``a`` and ``b`` are
    square float64 arrays of equal shape; a non-finite entry raises
    scipy's ValueError.
    """
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    n = a.shape[0]
    if n == 0:
        w, vl, vr = np.zeros((2, 0), dtype=complex), np.zeros((0, 0)), np.zeros((0, 0))
    else:
        ggev = _lapack("ggev", a.dtype)
        alphar, alphai, beta, vl, vr, _, info = ggev(a, b, left, vectors, _ggev_workspace(n), False, False)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of internal generalized eig algorithm (ggev)")
        if info > 0:
            raise np.linalg.LinAlgError(f"generalized eig algorithm (ggev) did not converge (LAPACK info={info})")
        w = np.vstack((alphar + 1j * alphai, beta))
        if left:
            vl = _unit_eigenvectors(vl, alphai)
        if vectors:
            vr = _unit_eigenvectors(vr, alphai)
    return w, vl if left else None, vr if vectors else None

