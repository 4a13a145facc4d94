"""Dense real/complex linear-algebra kernels with fixed output conventions.

Thin deterministic wrappers around LAPACK (through numpy and scipy) plus a few
closed-form helpers.  Conventions that the underlying library leaves open
are pinned here so downstream computations are reproducible run to run:

* ``qr_decompose``: the triangular factor has a nonnegative diagonal.
* ``sym_eig``: eigenvalues descending, first nonzero component of every
  eigenvector positive.
* ``orthonormal_null_basis``: on square and tall input, the trailing right
  singular vectors in order; on wide input, the null directions of the
  square triangular factor of a complete QR of the conjugate transpose,
  followed by that QR's trailing columns.

All routines reject matrices containing NaN or infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

__all__ = [
    "RankDecision",
    "qr_decompose",
    "orthonormal_null_basis",
    "numerical_rank",
    "sym_eig",
    "jacobi_orthogonalize",
]

_EPS = float(np.finfo(np.float64).eps)


def _as_matrix(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {a.shape}")
    if not np.issubdtype(a.dtype, np.inexact):
        a = a.astype(np.float64)
    if a.size and not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


@dataclass(eq=False)
class RankDecision:
    """Outcome of a numerical rank determination.

    Attributes
    ----------
    rank : int
        Number of singular values above ``tolerance``.
    tolerance : float
        Absolute singular-value cutoff that was applied.
    singular_values : np.ndarray
        All singular values, descending.
    """

    rank: int
    tolerance: float
    singular_values: np.ndarray


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
    for k in range(cols):
        d = r[k, k]
        if (d.real if np.iscomplexobj(r) else d) < 0:
            r[k, :] = -r[k, :]
            q[:, k] = -q[:, k]
    return q, r


def _rank_from_singular_values(s: np.ndarray, shape) -> tuple[int, float]:
    if s.size == 0:
        return 0, 0.0
    tol = max(shape) * _EPS * float(s[0])
    return int(np.count_nonzero(s > tol)), tol


def numerical_rank(m) -> RankDecision:
    """Numerical rank of ``m`` at the cutoff max(rows, cols) * eps * sigma_max."""
    a = _as_matrix(m)
    if a.size == 0:
        return RankDecision(0, 0.0, np.zeros(0))
    s = np.linalg.svd(a, compute_uv=False)
    rank, used = _rank_from_singular_values(s, a.shape)
    return RankDecision(rank, used, s)


def orthonormal_null_basis(m) -> np.ndarray:
    """Orthonormal basis of the (right) null space of ``m``.

    Column count equals cols(m) - numerical_rank(m), the rank counting
    singular values of ``m`` above max(rows, cols) * eps * sigma_max.
    Square and tall inputs take a full SVD and return the trailing right
    singular vectors, in order.  A wide input M (rows < cols) takes one
    complete QR, M^H = Q [R; 0] with Q = [Q1 Q2], and the singular values
    of the square R, which are M's.  Q2 spans the generic cols - rows null
    directions; when M has less than full row rank, the extra ones,
    Q1 U_R[:, rank:] for R = U_R S V_R^H, come first.  The result is
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
        rank, _ = _rank_from_singular_values(s, a.shape)
        return vh[rank:].conj().T.copy()
    q, r = np.linalg.qr(a.conj().T, mode="complete")
    r = r[:rows]
    rank, _ = _rank_from_singular_values(np.linalg.svd(r, compute_uv=False), a.shape)
    if rank == rows:
        return q[:, rows:].copy()
    u_r = np.linalg.svd(r)[0]
    return np.hstack([q[:, :rows] @ u_r[:, rank:], q[:, rows:]])


def sym_eig(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a real symmetric matrix.

    Eigenvalues are returned in descending order.  Each eigenvector is
    scaled so its first nonzero component is positive.  Inputs may deviate
    from exact symmetry by at most 1e-12 relative to their norm; larger
    asymmetry is an error.
    """
    a = _as_matrix(h)
    if np.iscomplexobj(a):
        raise ValueError("sym_eig expects a real symmetric matrix")
    rows, cols = a.shape
    if rows != cols:
        raise ValueError(f"sym_eig expects a square matrix, got {a.shape}")
    scale = float(np.linalg.norm(a))
    if scale > 0 and float(np.linalg.norm(a - a.T)) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    # LAPACK's divide-and-conquer driver: numpy's eigh wakes the OpenBLAS
    # worker threads and can stall for milliseconds on small matrices.
    w, v = scipy.linalg.eigh(0.5 * (a + a.T), driver="evd")
    w = w[::-1].copy()
    v = v[:, ::-1].copy()
    for k in range(cols):
        col = v[:, k]
        nz = np.nonzero(col)[0]
        if nz.size and col[nz[0]] < 0:
            v[:, k] = -col
    return w, v


def jacobi_orthogonalize(x, y) -> tuple[float, float]:
    """Plane rotation (c, s) making ``c*x - s*y`` and ``s*x + c*y`` orthogonal.

    The rotation angle is reduced to (-pi/4, pi/4], i.e. the rotation
    closest to the identity is chosen.  If x and y are already orthogonal,
    (1, 0) is returned.  Linearly dependent inputs are an error because no
    rotation can produce two independent orthogonal vectors from them.
    """
    xv = np.asarray(x, dtype=np.float64).ravel()
    yv = np.asarray(y, dtype=np.float64).ravel()
    if xv.shape != yv.shape:
        raise ValueError("jacobi_orthogonalize needs vectors of equal length")
    if not (np.all(np.isfinite(xv)) and np.all(np.isfinite(yv))):
        raise ValueError("jacobi_orthogonalize got non-finite input")
    nx2 = float(xv @ xv)
    ny2 = float(yv @ yv)
    g = float(xv @ yv)
    # cross-norm dependence test: sin^2 of the angle between x and y
    if nx2 == 0.0 or ny2 == 0.0 or (nx2 * ny2 - g * g) <= (1e-12) ** 2 * nx2 * ny2:
        raise ValueError("jacobi_orthogonalize: inputs are linearly dependent")
    if g == 0.0:
        return 1.0, 0.0
    theta = 0.5 * math.atan2(-2.0 * g, nx2 - ny2)
    if theta > math.pi / 4.0:
        theta -= math.pi / 2.0
    elif theta <= -math.pi / 4.0:
        theta += math.pi / 2.0
    return math.cos(theta), math.sin(theta)
