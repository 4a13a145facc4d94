"""Construction of proportional-plus-derivative feedback via Schur pairs.

With B = Q [R; 0] (Q = [Q1 Q2] orthogonal, R invertible), any closed-loop
pair (A + B*F, E + B*G) that is jointly triangularized as

    (A + B*F) P = X S,      (E + B*G) P = X T

by an orthonormal P, invertible X and quasi-triangular (S, T) is reachable
exactly when  Q2^T (A P - X S) = 0  and  Q2^T (E P - X T) = 0, in which case

    F = R^{-1} Q1^T (X S P^T - A),    G = R^{-1} Q1^T (X T P^T - E).

Columns of P and of Xi = Q2^T X are grown one pole (or one conjugate pair)
at a time.  Each step solves a structured null-space problem in the
orthogonal complement of the columns accepted so far: the new column p
and the coefficient columns (v_s, v_t) it adds to (S, T) satisfy
Q2^T K p + Xi (c_s v_s + c_t v_t) = 0 for the pencil K shifted to the
pole.  The state keeps both sides of that constraint deflated: an
orthonormal basis P_perp of the complement of range(P) on the right, and
on the left a Q2 rotated so that Xi is upper triangular (Xi = [R_Xi; 0]
while j <= n-m), with Q2^T E P_perp and Q2^T A P_perp in the same
bases.  Then only the n-m-j rows of Q2^T K P_perp that Xi does not reach
constrain p: a step factorizes that (n-m-j) x (n-j) block alone, and the
coupling of each of its null directions is the minimum-norm solution
X_s = -Xi^+ (reached rows) N / c, a triangular solve with R_Xi.  Once
j > n-m every row is reached, and Xi^+ and null(Xi) come from a QR
factor of Xi^T that the state extends by one row per new column.  One
SVD of the small j x d block X_s = U Sigma W^H then gives the step's
mapped directions (N w, X_s w) with P-shares 1 / (1 + sigma^2), largest
for the smallest sigma; the j solutions with p = 0 that the
coefficients add, and null(Xi)'s, are written down in closed form.
The free coefficients are chosen to keep the off-diagonal mass of (S, T)
small, so the closed-loop pencil stays close to a normal pair and the
assigned spectrum is insensitive to perturbations.  A step with fewer
prior columns j than mapped directions d is tied: its optimum, P-share 1
with no coupling at all, is reached on the whole null space of X_s, and
every direction there is optimal.  A tied step takes its direction in
closed form from that null space's Householder basis and writes exact
zeros above its diagonal block, as the infinite block does.  A real step
tied (j < d) takes the basis's first column.  A pair tied (j + 2 <= d)
takes the combination p of its first two columns with p^T p = 0
(``_isotropic_coefficients``): Re p and Im p are orthogonal with equal
norms, so delta = 1 and the pair's 2x2 block is normal.  An untied real
step takes the direction of the smallest sigma, an untied pair
(``_complex_pair_core``) its leading mapped direction alone or, by the
same closed form, the isotropic combination of its two leading ones.  A
real pole is the 1x1 case and a conjugate pair the 2x2 case of one step:
both shift the pencil in ``_shifted``, take their basis from
``_step_basis`` and write their columns in ``_write_step``.  Once all n
columns exist, X is completed from the null space of Xi, read off the
kept factor of Xi^T, and (F, G) are read off.  ``AssignState`` owns the
plant and the factors: A, E and B's factors Q1, Q2, R, taken once when
the infinite block opens the state, and buffers of the factors' final
size.  Every later stage reads the plant from the state: a step is
``step(state, pole)``, fills its one or two columns of P, Xi, S and T
and updates the kept factors in place, and ``run_pipeline`` returns the
filled buffers.  A step's basis is scratch: each step leaves only a
``StepRecord`` of scalars (null dimension, P-share, branch).

The infinite poles come first: they open the factors as one block with
S = I and T = 0.  The finite real poles follow in ascending order, then the
complex pairs in input order.  The steps write each pole exactly into a
diagonal block of (S, T), and S and T are the only record of that layout:

* infinite pole:            1x1 pair (1, 0);
* real pole lambda:         1x1 pair (lambda, 1)/hypot(lambda, 1);
* complex conjugate pair:   2x2 pair (I2, D) when |lambda| >= 1, else
  (D, I2), with D = [[sigma, delta*tau], [-tau/delta, sigma]].

Nothing below the subdiagonal is nonzero, and a 2x2 block starts at k
exactly when S[k+1, k] or T[k+1, k] is nonzero: that entry is D's
-tau/delta, and tau != 0 for a complex pair.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DegenerateStepError
from .linalg import (
    _blas,
    _lapack,
    euclidean_norm,
    numerical_rank,
    orthonormal_null_basis,
    qr_decompose,
    serial_blas,
)
from .poles import PoleKind, PolePair

_EPS = float(np.finfo(np.float64).eps)

__all__ = [
    "StepRecord",
    "AssignState",
    "Solution",
    "assign_infinite_block",
    "assign_real_pole",
    "assign_complex_pair",
    "complete_X",
    "extract_feedback",
    "run_pipeline",
    "d_delta_block",
]


@dataclass(frozen=True)
class StepRecord:
    """What one assignment step decided, as scalars.

    ``kind`` is "infinite-block", "real" or "complex"; ``j_before`` counts
    the columns of P before the step.  ``null_dim`` is the dimension of
    the null space the step chose from, d directions (the mapped ones and,
    once j > n - m, null(Xi)'s) plus j free ones (m + j generically; on
    the infinite block, the dimension of null(Q2^T E)).  ``p_share`` is the
    P-component share of the chosen direction, 1 / (1 + ||X_s w||^2) for
    its coefficients w on a real step, nu1^2, the largest squared singular
    value of the candidates' P-part Z1, on a complex step.
    ``tied`` says that the step had more mapped directions d than prior
    columns plus its width, so that it took its direction(s) of P-share 1
    and no coupling in closed form (see the module docstring).  An untied
    complex step also records the ``branch`` of its choice ("rank1",
    "hamiltonian": a tied pair's isotropic closed form on its two leading
    mapped directions, or "jacobi"), Z1's second singular value ``nu2``,
    and the objectives ``rho1``, ``rho2`` of the single- and two-direction
    choices (None on the rank-1 branch); a tied one, which makes no
    choice, records None for all four.  The off-diagonal mass a step adds
    is its column of the returned S and T.
    """

    kind: str
    j_before: int
    null_dim: int
    p_share: float | None = None
    branch: str | None = None
    nu2: float | None = None
    rho1: float | None = None
    rho2: float | None = None
    tied: bool = False


@dataclass(eq=False)
class AssignState:
    """The plant and the factors after ``j`` assigned columns, written in
    place.

    The state owns the plant, A, E and the factors of B = [Q1 Q2] [R; 0],
    and buffers of the factors' final size: n x n for P, S and T,
    (n-m) x n for Xi, and (n + 2(n-m)) x n for the complement stack.  A
    step writes its new columns into them
    and raises ``j``; the properties are views of what is filled.  The last
    n - j columns of the stack hold an orthonormal basis P_perp of the
    complement of range(P) over Q2^T E P_perp and Q2^T A P_perp, kept up
    to date in place by one Householder reflection per new column from the
    right.  Q2 rotates as Xi grows: one Householder reflection per new
    column, acting on rows j .. n-m-1 of the Q2 basis, zeroes Xi's new
    column below row j and rotates Q2's columns and the stack's Q2^T E
    P_perp and Q2^T A P_perp rows with it, so Xi is upper triangular,
    [R_Xi; 0] while j <= n-m.  Q2 stays an orthonormal basis of
    range(B)^perp and X = Q1 Y + Q2 Xi is unchanged.  Once j > n-m, Xi^T =
    [Z_1 Z_2] [T; 0] is kept as well, extended by one row per new column:
    ``xit_range`` holds Z_1 (j x (n-m)), ``xit_null`` Z_2, whose
    j - (n-m) columns span null(Xi), and ``xit_r`` the triangle T.  Their
    rows past j are zero.  S and T are zero outside their filled blocks.
    A step that raises leaves the state unusable.
    """

    a: np.ndarray
    e: np.ndarray
    q1: np.ndarray
    q2: np.ndarray
    r: np.ndarray
    j: int = 0
    p_buf: np.ndarray = field(init=False, repr=False)
    xi_buf: np.ndarray = field(init=False, repr=False)
    s_buf: np.ndarray = field(init=False, repr=False)
    t_buf: np.ndarray = field(init=False, repr=False)
    perp_buf: np.ndarray = field(init=False, repr=False)
    xit_range: np.ndarray = field(init=False, repr=False)
    xit_null: np.ndarray = field(init=False, repr=False)
    xit_r: np.ndarray = field(init=False, repr=False)
    steps: list[StepRecord] = field(default_factory=list)

    def __post_init__(self):
        n, m = self.q1.shape
        self.p_buf = np.empty((n, n))
        self.xi_buf = np.empty((n - m, n))
        self.s_buf = np.zeros((n, n))
        self.t_buf = np.zeros((n, n))
        # zeros: the left reflections of Xi's factor sweep whole rows of
        # the stack, the columns of P's past complements included
        self.perp_buf = np.zeros((3 * n - 2 * m, n))
        # Fortran order: LAPACK updates the factor of Xi^T in place.  With
        # m = n, Xi has no rows: Xi^+ = 0 and null(Xi) is everything.
        self.xit_range = np.zeros((n, n - m), order="F")
        self.xit_null = np.eye(n, order="F") if m == n else np.zeros((n, m), order="F")
        self.xit_r = np.zeros((n - m, n - m), order="F")

    @property
    def n(self) -> int:
        return self.q1.shape[0]

    @property
    def m(self) -> int:
        return self.q1.shape[1]

    @property
    def P(self) -> np.ndarray:
        return self.p_buf[:, : self.j]

    @property
    def Xi(self) -> np.ndarray:
        return self.xi_buf[:, : self.j]

    @property
    def S(self) -> np.ndarray:
        return self.s_buf[: self.j, : self.j]

    @property
    def T(self) -> np.ndarray:
        return self.t_buf[: self.j, : self.j]

    @property
    def P_perp(self) -> np.ndarray:
        return self.perp_buf[: self.n, self.j :]

    @property
    def EP_perp(self) -> np.ndarray:
        """Q2^T E P_perp."""
        return self.perp_buf[self.n : 2 * self.n - self.m, self.j :]

    @property
    def AP_perp(self) -> np.ndarray:
        """Q2^T A P_perp."""
        return self.perp_buf[2 * self.n - self.m :, self.j :]


@dataclass(eq=False)
class Solution:
    """Feedback matrices together with the factors that produced them."""

    F: np.ndarray
    G: np.ndarray
    P: np.ndarray
    S: np.ndarray
    T: np.ndarray
    X: np.ndarray
    steps: tuple[StepRecord, ...]


def d_delta_block(sigma: float, tau: float, delta: float) -> np.ndarray:
    """2x2 block [[sigma, delta*tau], [-tau/delta, sigma]]."""
    return np.array([[sigma, delta * tau], [-tau / delta, sigma]])


def _orthonormal_against(p_prev: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Clean residual non-orthogonality of a new (near-orthonormal) column.

    Null vectors enforce orthogonality to the accepted columns only up to
    the step's conditioning, and the leftover contaminates the feedback
    extraction in proportion to the coupling norms; two Gram-Schmidt
    passes push it down to rounding level.
    """
    v = vec
    for _ in range(2):
        if p_prev.shape[1]:
            v = v - p_prev @ (p_prev.T @ v)
    nrm = euclidean_norm(v)
    if nrm <= 1e-6:
        raise DegenerateStepError("new column collapsed onto the existing ones")
    return v / nrm


def _complement_after(stack: np.ndarray, i: int, n: int, p: np.ndarray) -> None:
    """Update the complement stack in place once the unit column p, taken
    from the range of P_perp = stack[:n, i:], has joined P as column i;
    afterwards ``stack[:, i+1:]`` is the stack of the new complement.

    The Householder reflection H that maps p's coordinates y = P_perp^T p
    onto the first axis makes P_perp H = [+-p, rest]; ``rest`` spans what
    is left, and the same columns of the stack times H carry Q2^T E rest
    and Q2^T A rest.  That costs O(n (n - j)), against a complete QR of P
    and two products with P_perp per step.  The rank-1 term of the
    reflection is subtracted in place by BLAS ``?ger`` over the stack's
    whole rows, which are contiguous, with zero weight on P's columns,
    which no step reads again.
    """
    if i == n - 1:
        return  # p was the last column; no complement is left
    perp = stack[:, i:]
    v = perp[:n].T @ p
    v[0] += math.copysign(euclidean_norm(v), v[0])
    weights = np.zeros(n)
    weights[i + 1 :] = (2.0 / float(v @ v)) * v[1:]
    _blas("ger", stack.dtype)(-1.0, weights, perp @ v, a=stack.T, overwrite_a=1)


def _solve_triangular(r: np.ndarray, b: np.ndarray, trans: int = 0) -> np.ndarray:
    """R^{-1} b, or R^{-T} b with ``trans`` = 1, for a real upper triangular
    R, by LAPACK ``?trtrs`` through its direct handle.  A complex b is
    solved as the real matrix of its interleaved real and imaginary
    columns, which R acts on column by column."""
    if r.shape[0] == 0:
        return np.zeros(b.shape, dtype=b.dtype)
    cplx = np.iscomplexobj(b)
    rhs = np.ascontiguousarray(b).view(np.float64) if cplx else b
    x, info = _lapack("trtrs", r.dtype)(r, rhs, trans=trans)
    if info != 0:
        raise DegenerateStepError(f"triangular factor is singular (LAPACK ?trtrs info={info})")
    return np.ascontiguousarray(x).view(np.complex128) if cplx else x


def _refuse_rank_deficient_xi(state: AssignState, diag, cols: int, step: str | None = None) -> None:
    """Raise when an entry of ``diag``, new diagonal entries of a kept
    triangle of Xi's first ``cols`` columns, is at numerical_rank's cutoff
    max(shape) * eps * ||Xi||_F (the Frobenius norm bounds sigma_max, so
    the cutoff is at least numerical_rank's).  Xi has then lost rank: a
    step's null space would grow by the lost dimensions, and the kept
    factors do not represent them.  ``step`` names the kind of step that
    raises, where the caller does not."""
    xi = state.xi_buf[:, :cols]
    lost = int(np.count_nonzero(np.abs(diag) <= max(xi.shape) * _EPS * euclidean_norm(xi)))
    if lost:
        k = state.n - state.m
        needed = max(cols - k, 0)
        raise DegenerateStepError(
            f"Xi lost full {'row' if cols > k else 'column'} rank: null(Xi) of its {cols} "
            f"columns has dimension {needed + lost} > {needed}",
            step=step,
            null_dim=needed + lost,
            needed=needed,
        )


def _open_xit(state: AssignState, cols: int, step: str | None = None) -> None:
    """Open the kept factor Xi^T = [Z_1 Z_2] [T; 0] from one complete QR of
    the transpose of Xi's first ``cols`` > n - m columns."""
    k = state.n - state.m
    q, r = np.linalg.qr(state.xi_buf[:, :cols].T, mode="complete")
    state.xit_range[:cols] = q[:, :k]
    state.xit_null[:cols, : cols - k] = q[:, k:]
    state.xit_r[:] = r[:k]
    _refuse_rank_deficient_xi(state, np.diagonal(r), cols, step)


def _open_xi_factors(state: AssignState) -> None:
    """Triangularize the infinite block's Xi, all its j columns at once:
    one QR Xi = U [R; 0] rotates Q2 into Q2 U and the stack's Q2^T E P_perp
    and Q2^T A P_perp rows into U^T times them, and Xi becomes R.  When
    j > n - m, a QR of Xi^T opens that factor too."""
    n, k, j = state.n, state.n - state.m, state.j
    if j == 0 or k == 0:
        return
    u, r = np.linalg.qr(state.Xi, mode="complete")
    state.q2[:] = state.q2 @ u
    rows = state.perp_buf[n : n + 2 * k].reshape(2, k, n)[:, :, j:]
    rows[:] = u.T @ rows
    state.xi_buf[:, :j] = r
    if j <= k:
        _refuse_rank_deficient_xi(state, np.diagonal(r), j, "infinite-block")
    else:
        _open_xit(state, j, "infinite-block")


def _reflect_xi(state: AssignState, i: int) -> None:
    """Zero Xi's new column i < n - m below row i: one Householder
    reflection on rows i .. n-m-1 of the Q2 basis, which rotates Q2's
    columns, the stack's Q2^T E P_perp and Q2^T A P_perp rows and the
    step's later new columns of Xi with it.  Q2's columns and the stack's
    whole rows (P's past complements' columns too, which no step reads
    again) are contiguous, so BLAS ``?ger`` updates them in place."""
    n, k, j = state.n, state.n - state.m, state.j
    x = state.xi_buf[i:k, i]
    diag = x[0]
    if x.size > 1:
        v = x.copy()
        norm = euclidean_norm(v)
        v[0] += math.copysign(norm, v[0])
        vv = float(v @ v)
        diag = -math.copysign(norm, x[0])
        if vv:
            hv = (2.0 / vv) * v
            later = state.xi_buf[i:k, i + 1 : j]
            later -= np.multiply.outer(v, hv @ later)
            ger = _blas("ger", hv.dtype)
            q2 = state.q2[:, i:k]
            ger(-1.0, q2 @ v, hv, a=q2, overwrite_a=1)
            for start in (n + i, n + k + i):
                rows = state.perp_buf[start : start + k - i]
                ger(-1.0, v @ rows, hv, a=rows.T, overwrite_a=1)
        x[0] = diag
        x[1:] = 0.0
    _refuse_rank_deficient_xi(state, [diag], i + 1)


def _extend_xit(state: AssignState, i: int) -> None:
    """Add Xi's new column i >= n - m to the kept factor
    Xi^T = [Z_1 Z_2] [T; 0] as its new row: LAPACK ``?tpqrt``
    retriangularizes [T; x^T] by one reflector per column of T, and
    ``?tpmqrt`` applies them to Z_1 and the new unit column e_i, both in
    place.  Z_2's columns, null(Xi)'s, only gain a zero row; what e_i
    becomes is the new null direction."""
    k = state.n - state.m
    if k == 0:
        return  # Xi has no rows; Z_2 stays the identity
    if i == k:
        _open_xit(state, i + 1)
        return
    f64 = state.xi_buf.dtype
    r, v, tau, info = _lapack("tpqrt", f64)(0, 1, state.xit_r, state.xi_buf[:, i : i + 1].T, overwrite_a=1)
    if info != 0:
        raise ValueError(f"LAPACK ?tpqrt failed (info={info})")
    e_i = np.zeros((state.n, 1), order="F")
    e_i[i] = 1.0
    _, z, info = _lapack("tpmqrt", f64)(0, v, tau, state.xit_range, e_i, side="R", overwrite_a=1, overwrite_b=1)
    if info != 0:
        raise ValueError(f"LAPACK ?tpmqrt failed (info={info})")
    state.xit_null[:, i - k] = z[:, 0]


def assign_infinite_block(problem) -> AssignState:
    """Open the state of ``problem`` with its n - r infinite poles.

    B must have full column rank and at most n columns; its QR factors,
    with A and E, go into the state.  P's first columns come from the null
    space of Q2^T E, giving the exact leading structure S = I, T = 0 with
    no off-diagonal contribution at all, which is the optimum for these
    steps.  When that null space is larger than n - r, its first n - r
    basis columns are taken: an arbitrary pick, fixed by
    :func:`orthonormal_null_basis`'s convention.
    """
    a, e, b = problem.A, problem.E, problem.B
    n, m = b.shape
    if m > n:
        raise ValueError(f"B must be n x m with 1 <= m <= n, got {b.shape}")
    if numerical_rank(b) != m:
        raise ValueError("B must have full column rank")
    q, r = qr_decompose(b)
    q1, q2 = q[:, :m], q[:, m:]
    count = n - problem.r
    q2t_e = q2.T @ e
    q2t_a = q2.T @ a
    # When range(E) lies in range(B), Q2^T E is zero but computes as
    # rounding, ||Q2^T E||_F <= c n eps ||E||_F with c <= 0.2 (measured,
    # n = 4..300), which its own sigma_max would count as full rank.  The
    # random families of the tests and benchmark keep it above 0.09 ||E||_F.
    if euclidean_norm(q2t_e) <= n * np.finfo(np.float64).eps * euclidean_norm(e):
        q2t_e = np.zeros_like(q2t_e)
    z = orthonormal_null_basis(q2t_e)
    if z.shape[1] < count:
        raise DegenerateStepError(
            f"null space of Q2^T E has dimension {z.shape[1]} < {count}; "
            "too many infinite poles requested for this system",
            step="infinite-block",
            null_dim=z.shape[1],
            needed=count,
        )
    # Q2 is kept Fortran-ordered, so that the columns its kept factor
    # rotates are contiguous
    state = AssignState(a, e, q1, np.asfortranarray(q2), r, count)
    state.P[:] = z[:, :count]
    p_perp = np.linalg.qr(state.P, mode="complete")[0][:, count:]
    state.P_perp[:] = p_perp
    state.EP_perp[:] = q2t_e @ p_perp
    state.AP_perp[:] = q2t_a @ p_perp
    state.Xi[:] = q2t_a @ state.P
    np.fill_diagonal(state.S, 1.0)
    _open_xi_factors(state)
    state.steps.append(StepRecord("infinite-block", 0, z.shape[1]))
    return state


class _StepBasis(NamedTuple):
    """A step's solutions in the kept bases (see :func:`_step_basis`)."""

    null: np.ndarray | None  # N, (n-j) x d_N; None when every row is reached (N = I)
    xs: np.ndarray  # X_s, or once j > n-m its factor -T^{-T} kp / c: X_s = Z_1 xs
    xi_range: np.ndarray | None  # Z_1 once j > n-m, else None (X_s = xs)
    xi_null: np.ndarray  # orthonormal basis of null(Xi), j x max(j - (n-m), 0)
    c: float  # sqrt(|c_s|^2 + |c_t|^2)

    @property
    def dim(self) -> int:
        """d, the dimension of the solutions beyond the j free directions."""
        return self.xs.shape[1] + self.xi_null.shape[1]

    def lift(self, w: np.ndarray) -> np.ndarray:
        """N w: the P_perp coordinates y of mapped directions' coefficients w."""
        return w if self.null is None else self.null @ w

    def coupling(self, w: np.ndarray) -> np.ndarray:
        """X_s w: the u-rows of mapped directions' coefficients w."""
        xw = self.xs @ w
        return xw if self.xi_range is None else self.xi_range @ xw


def _step_basis(state: AssignState, kp, c_s, c_t, what) -> _StepBasis:
    """The part of a step's solutions that depends on the data, in the
    state's kept bases.

    A step's solutions are the (p, v_s, v_t) with
    Q2^T K p + Xi (c_s v_s + c_t v_t) = 0 and p orthogonal to the accepted
    columns P, for the step's shifted pencil K = -(c_s A + c_t E).  Writing
    p = P_perp y, for P_perp the state's orthonormal basis of the
    complement of range(P) (the complement bookkeeping of Kautsky, Nichols
    & Van Dooren, Int. J. Control 41, 1985), the constraint reads
    kp y + Xi (c_s v_s + c_t v_t) = 0 with ``kp`` = Q2^T K P_perp.  Rotating
    (v_s, v_t) by the unitary (1/c) [[c_s, c_t], [-conj(c_t), conj(c_s)]],
    c = sqrt(|c_s|^2 + |c_t|^2), splits the solutions into an orthogonal
    sum:

    * (y, conj(c_s) u / c, conj(c_t) u / c) for kp y + c Xi u = 0;
    * (0, c_t w / c, -c_s w / c) for every w in C^j, the j directions of
      :func:`_free_directions`, which need no factorization.

    In the kept basis Xi = [R_Xi; 0] while j <= n - m, so the first part
    splits again.  The n-m-j rows of kp that Xi does not reach force y
    into null(kp[j:]), spanned by the orthonormal N: this (n-m-j) x (n-j)
    block is the step's only factorization, and the row count it needs,
    at least m null directions, is checked here.  The coupling with least
    norm, orthogonal to null(Xi), is then u = X_s w for y = N w, with
    X_s = -Xi^+ kp[:j] N / c, one triangular solve with R_Xi.  Once
    j > n - m every row is reached, N = I and Xi^+ = Z_1 T^{-T} from the
    kept factor Xi^T = [Z_1 Z_2] [T; 0], so X_s = Z_1 (-T^{-T} kp / c),
    and Z_1's orthonormal columns leave the small factor's SVD and null
    space to X_s; Z_2 spans null(Xi): the j - (n-m) solutions (0, u)
    with u in null(Xi), of P-share 0, are orthogonal to the (N w, X_s w).

    Returns N (None for the identity), X_s or its small factor with Z_1,
    null(Xi)'s basis and c.  The d = ``dim`` directions with the j free
    ones span the null space of the stacked
    [Q2^T K, c_s Xi, c_t Xi; P^T, 0, 0], and d is m generically.  A unit
    y = N w has P-share 1 / (1 + ||X_s w||^2): 1, with no coupling at all,
    exactly on null(X_s), which has dimension at least d - j.
    """
    j, m = state.j, state.m
    k = kp.shape[0]
    c = math.hypot(abs(c_s), abs(c_t))
    if j < k:
        null = orthonormal_null_basis(kp[j:])
        reached = kp[:j] @ null
    else:
        null, reached = None, kp
    d = (kp.shape[1] if null is None else null.shape[1]) + max(j - k, 0)
    if d < m:
        raise DegenerateStepError(
            f"{what}: constraint matrix null space has dimension {d + j} < {m + j}; the instance is not assignable here",
            null_dim=d + j,
            needed=m + j,
        )
    if j <= k:
        xs = _solve_triangular(state.xi_buf[:j, :j], reached)
        xi_range, xi_null = None, np.empty((j, 0))
    else:
        xs = _solve_triangular(state.xit_r, reached, trans=1)
        xi_range, xi_null = state.xit_range[:j], state.xit_null[:j, : j - k]
    xs *= -1.0 / c
    return _StepBasis(null, xs, xi_range, xi_null, c)


def _mapped_directions(basis: _StepBasis):
    """(N W, nu, X_s W) of a step's mapped directions (N w, X_s w), in
    descending P-share.

    The SVD X_s = U Sigma W^H makes [N W; X_s W] (I + Sigma^2)^{-1/2}
    orthonormal, with Sigma padded by zeros to d_N columns: its P-part
    has singular values nu = 1 / sqrt(1 + sigma^2), left vectors N W and
    right vectors I, so no further factorization is needed.  The columns
    come in ascending sigma.  Once j > n - m, X_s = Z_1 xs with
    orthonormal Z_1, and the SVD is the smaller one of xs.
    """
    xs = basis.xs
    rows, d = xs.shape
    sigma = np.zeros(d)
    if xs.size:
        _, sig, wh = np.linalg.svd(xs, full_matrices=rows < d)
        w = wh[::-1].conj().T
        sigma[d - sig.size :] = sig[::-1]
    else:
        w = np.eye(d, dtype=xs.dtype)
    return basis.lift(w), 1.0 / np.sqrt(1.0 + sigma * sigma), basis.coupling(w)


def _free_directions(c_s, c_t, j) -> np.ndarray:
    """The j stacked (v_s; v_t) columns (c_t e_i; -c_s e_i) / c of a step's
    solutions that have p = 0 (see :func:`_step_basis`)."""
    c = math.hypot(abs(c_s), abs(c_t))
    free = np.zeros((2 * j, j), dtype=np.result_type(c_s, c_t, float))
    np.fill_diagonal(free[:j], c_t / c)
    np.fill_diagonal(free[j:], -c_s / c)
    return free


def _shifted(state: AssignState, gamma, s_dominant: bool):
    """(Q2^T K P_perp, c_s, c_t) for the pole's entry gamma, |gamma| <= 1:
    K = E - gamma A when S's diagonal block is the dominant one, else
    K = A - gamma E."""
    if s_dominant:
        return state.EP_perp - gamma * state.AP_perp, gamma, -1.0
    return state.AP_perp - gamma * state.EP_perp, -1.0, gamma


def _write_step(state: AssignState, cols, vcols, s_block, t_block, s_dominant, record) -> AssignState:
    """Write a step's unit columns ``cols`` of P (each cleaned against
    those before it), their stacked (v_s; v_t) columns ``vcols`` and the
    diagonal blocks into S and T, and Xi's columns from the dominant
    relation Q2^T A P = Xi S (or Q2^T E P = Xi T), whose block diagonal is
    eps1 for a real pole and 1 for a pair; then drop the new columns from
    the complement, count them, and take Xi's new columns into its kept
    factor."""
    j, width = state.j, len(cols)
    new = slice(j, j + width)
    p_buf, s_buf, t_buf = state.p_buf, state.s_buf, state.t_buf
    for i, (p, v) in enumerate(zip(cols, vcols)):
        p_buf[:, j + i] = _orthonormal_against(p_buf[:, : j + i], p)
        s_buf[:j, j + i] = v[:j]
        t_buf[:j, j + i] = v[j:]
    s_buf[new, new] = s_block
    t_buf[new, new] = t_block
    k, coupling, diag = (state.a, s_buf, s_block[0][0]) if s_dominant else (state.e, t_buf, t_block[0][0])
    k_p = k @ p_buf[:, new]
    state.xi_buf[:, new] = (state.q2.T @ k_p - state.Xi @ coupling[:j, new]) / diag
    for i in range(j, j + width):
        _complement_after(state.perp_buf, i, state.n, p_buf[:, i])
    state.j += width
    for i in range(j, j + width):
        (_reflect_xi if i < state.n - state.m else _extend_xit)(state, i)
    state.steps.append(record)
    return state


def assign_real_pole(state: AssignState, pole: PolePair) -> AssignState:
    """Append one column carrying a finite real pole.

    Among all unit feasible directions, the new column maximizes the share
    of the null vector living in the P-component, which minimizes the norm
    of the off-diagonal entries added to S and T.  The pole lambda enters
    as the unit pair (eps1, eps2) = (lambda, 1)/hypot(lambda, 1), which does
    not overflow for a huge ratio.
    """
    if pole.kind is not PoleKind.FINITE_REAL:
        raise ValueError("assign_real_pole needs a finite real pole")
    lam = pole.alpha.real
    h = math.hypot(lam, 1.0)
    eps1 = lam / h
    eps2 = 1.0 / h
    s_dom = abs(eps1) >= abs(eps2)
    kp, c_s, c_t = _shifted(state, eps2 / eps1 if s_dom else eps1 / eps2, s_dom)
    basis = _step_basis(state, kp, c_s, c_t, "real-pole step")

    # The free directions and null(Xi)'s have no P-component, so the
    # P-share's maximum is reached on the mapped directions alone: at the
    # smallest singular value of X_s, or, with fewer prior columns than
    # mapped ones, at 1 with no coupling on null(X_s), where the step takes
    # the first column of the Householder basis.
    tied = state.j < basis.dim
    if tied:
        w = orthonormal_null_basis(basis.xs)[:, 0]
        y, coupling = basis.lift(w), basis.coupling(w)
    else:
        left, _, xw = _mapped_directions(basis)
        y, coupling = left[:, 0], xw[:, 0]
    share = 1.0 / (1.0 + float(coupling @ coupling))
    if share <= 1e-12:
        raise DegenerateStepError("real-pole step: no feasible direction reaches P (Z1 degenerate)")
    pt = state.P_perp @ y
    scale = euclidean_norm(pt)
    vcol = np.zeros(2 * state.j) if tied else np.concatenate([c_s * coupling, c_t * coupling]) / (basis.c * scale)
    rec = StepRecord("real", state.j, basis.dim + state.j, p_share=share, tied=tied)
    return _write_step(state, [pt / scale], [vcol], [[eps1]], [[eps2]], s_dom, rec)


def _psi_rotation(psi1: np.ndarray):
    """(c, s, vs1, vs2) for the top left singular vector psi1 of Z1: the
    plane rotation (c, s), closest to the identity, that makes the real and
    imaginary parts of (c + i s) psi1 orthogonal, and the norms of those
    parts; None when the parts are dependent, so that no rotation
    separates them."""
    # contiguous copies: BLAS rounds a strided dot product differently
    x, y = psi1.real.ravel(), psi1.imag.ravel()
    nx2, ny2, g = float(x @ x), float(y @ y), float(x @ y)
    # cross-norm dependence test: sin^2 of the angle between x and y
    if nx2 == 0.0 or ny2 == 0.0 or (nx2 * ny2 - g * g) <= (1e-12) ** 2 * nx2 * ny2:
        return None
    c, s = 1.0, 0.0
    if g != 0.0:
        theta = 0.5 * math.atan2(-2.0 * g, nx2 - ny2)
        if theta > math.pi / 4.0:
            theta -= math.pi / 2.0
        elif theta <= -math.pi / 4.0:
            theta += math.pi / 2.0
        c, s = math.cos(theta), math.sin(theta)
    vs1 = euclidean_norm(c * psi1.real - s * psi1.imag)
    vs2 = euclidean_norm(s * psi1.real + c * psi1.imag)
    if min(vs1, vs2) <= 1e-13:
        return None
    return c, s, vs1, vs2


class _PairChoice(NamedTuple):
    """A complex step's chosen column and the scalars behind the choice
    (None for the scalars of a choice that a tied pair does not make)."""

    p: np.ndarray  # complex p-coordinates, unnormalized
    v: np.ndarray  # the matching stacked (v_s; v_t) column
    nu1: float
    nu2: float | None = None
    branch: str | None = None
    rho1: float | None = None
    rho2: float | None = None


def _isotropic_coefficients(w: np.ndarray) -> np.ndarray:
    """Coefficients g of the combination p = W g of the two columns of
    ``w`` with p^T p = 0 (plain transpose).

    With [[a, b], [b, c]] = W^T W, g = (1, t) for the smaller-modulus root
    t of c t^2 + 2 b t + a = 0, taken as a / q with q = -(b + s) and the
    square root s of b^2 - a c signed so that q does not cancel; g = (0, 1)
    when a != 0 = b = c, and (1, 0) when a = q = 0.  Since p^T p =
    ||Re p||^2 - ||Im p||^2 + 2i Re p . Im p, the real and imaginary parts
    of p are then orthogonal with equal norms.  t is the root nearer 0, so
    the combination moves with W continuously wherever the two roots'
    moduli differ.
    """
    (a, b), (_, c) = w.T @ w
    s = cmath.sqrt(b * b - a * c)
    if (b.conjugate() * s).real < 0.0:
        s = -s
    q = -(b + s)
    if q != 0:
        return np.array([1.0, a / q])
    return np.array([0.0, 1.0] if a != 0 else [1.0, 0.0], dtype=complex)


def _complex_pair_core(left, nus, zv, c_s, c_t, tau_pen) -> _PairChoice:
    """Pick the complex column of one untied pair from its null-basis
    columns.

    The candidate columns are orthonormal: d columns with P-part
    ``left[:, i] * nus[i]`` (zero past ``left``'s columns) and stacked
    (v_s; v_t) part ``zv`` (2j rows), followed by the j free directions of
    :func:`_free_directions` for the step coefficients ``c_s``, ``c_t``,
    whose P-part is zero.  ``left`` has orthonormal columns and ``nus`` is
    descending, so Z1 = [left diag(nus), 0] comes with its SVD: left
    vectors ``left``, singular values ``nus`` and right vectors I, and
    nothing is factorized here.  Returns the unnormalized complex column p,
    whose real and imaginary parts become the two new P columns, its
    stacked v-column and the scalars behind the choice.  ``left`` comes in
    the step's P_perp coordinates, and p goes back in them: it enters only
    through inner products of real and imaginary parts, which the real
    isometry P_perp keeps.

    The "rank1" branch (nu2 <= 1e-8 nu1) takes one direction and a convex
    quadratic's coefficients.  Otherwise the lower objective wins: the
    leading direction alone (rho1, "jacobi") or p = left[:, :2] g with
    p^T p = 0 (rho2, "hamiltonian").  p^T p = 0 holds on the lines
    g ~ (1, t) of the two roots t of a 2x2 quadratic, and on each
    rho2 = 2 (c1 |g_1|^2 + c2 |g_2|^2) / |g|^2 is constant, with
    c_l = (1 - nu_l^2) / nu_l^2: as c1 <= c2, the root nearer 0, the one
    ``_isotropic_coefficients`` takes, scores lower.
    """
    d = nus.size
    if d == 0 or nus[0] <= 1e-13:
        raise DegenerateStepError("complex step: direction matrix Z1 vanishes")
    nu1 = float(nus[0])
    nu2 = float(nus[1]) if nus.size > 1 else 0.0
    vfree = 0.0
    rho1 = rho2 = None
    rotation = _psi_rotation(left[:, 0])

    if nu2 <= 1e-8 * nu1:
        # single usable direction: orthogonalize its real/imaginary parts
        # by a plane rotation, then choose the residual coefficients from
        # an unconstrained convex quadratic.
        if rotation is None:
            raise DegenerateStepError("complex step: real and imaginary parts of the direction are dependent")
        c, s, vs1, vs2 = rotation
        w = zv[:, 0]
        big_w = np.hstack([zv[:, 1:], _free_directions(c_s, c_t, zv.shape[0] // 2)])
        k = big_w.shape[1]
        if k > 0:
            if zv.shape[0] == 0:
                raise DegenerateStepError(
                    "complex step: rank-1 direction with free coefficients "
                    "but no prior columns to absorb them"
                )
            k1 = np.hstack([big_w.real, -big_w.imag])
            k2 = np.hstack([big_w.imag, big_w.real])
            a1 = c * k1 - s * k2
            a2 = s * k1 + c * k2
            hmat = a1.T @ a1 / vs1**2 + a2.T @ a2 / vs2**2
            rw, iw = w.real, w.imag
            hvec = (2.0 / nu1) * (
                (c * c / vs1**2 + s * s / vs2**2) * (k1.T @ rw)
                + (s * s / vs1**2 + c * c / vs2**2) * (k2.T @ iw)
                + (c * s) * (1.0 / vs2**2 - 1.0 / vs1**2) * (k2.T @ rw + k1.T @ iw)
            )
            hw = np.linalg.eigvalsh(0.5 * (hmat + hmat.T))
            if hw[0] <= 0 or hw[-1] / hw[0] > 1e14:
                raise DegenerateStepError("complex step: coefficient system is numerically singular")
            y = -0.5 * np.linalg.solve(hmat, hvec)
            g = y[:k] + 1j * y[k:]
        else:
            g = np.zeros(0, dtype=complex)
        coef = (c + 1j * s) * np.concatenate([[1.0 / nu1], g])
        bvec = coef[:d]
        # the free directions' part, (c_t g; -c_s g) / c, in closed form
        c_st = math.hypot(abs(c_s), abs(c_t))
        vfree = np.concatenate([(c_t / c_st) * coef[d:], (-c_s / c_st) * coef[d:]])
        branch = "rank1"
    else:
        w1 = zv[:, 0] / nu1
        c1 = (1.0 - nu1**2) / nu1**2
        c2 = (1.0 - nu2**2) / nu2**2
        rho1 = np.inf
        if rotation is not None:
            c, s, vs1, vs2 = rotation
            delta = vs1 / vs2
            rho1 = float(
                euclidean_norm(c * w1.real - s * w1.imag) ** 2 / vs1**2
                + euclidean_norm(s * w1.real + c * w1.imag) ** 2 / vs2**2
                + tau_pen**2 * (delta - 1.0 / delta) ** 2
            )
        g = _isotropic_coefficients(left[:, :2])
        g /= euclidean_norm(g)
        rho2 = float(2.0 * (c1 * abs(g[0]) ** 2 + c2 * abs(g[1]) ** 2))
        bvec = np.zeros(d, dtype=complex)
        if rho2 <= rho1:
            bvec[:2] = g / nus[:2]
            branch = "hamiltonian"
        else:
            bvec[0] = (c + 1j * s) / nu1
            branch = "jacobi"

    p = left @ (nus[: left.shape[1]] * bvec[: left.shape[1]])
    return _PairChoice(p, zv @ bvec + vfree, nu1, nu2, branch, rho1, rho2)


def assign_complex_pair(state: AssignState, pole: PolePair) -> AssignState:
    """Append the two columns carrying a complex conjugate pole pair.

    The dominant one of (lambda, 1) is scaled to 1: when |lambda| >= 1 the
    pair is alpha-dominant, S gets I2 and T gets D with
    sigma + i*tau = conj(lambda)/|lambda|^2 (formed in two stages so every
    intermediate stays at most 1); otherwise S gets D with
    sigma + i*tau = lambda and T gets I2.
    """
    if pole.kind is not PoleKind.FINITE_COMPLEX:
        raise ValueError("assign_complex_pair needs a complex pole pair")
    lam = pole.alpha
    mag = abs(lam)
    alpha_dom = mag >= 1.0
    gamma = (lam.conjugate() / mag) * (1.0 / mag) if alpha_dom else lam
    kp, c_s, c_t = _shifted(state, gamma, alpha_dom)
    basis = _step_basis(state, kp, c_s, c_t, "complex-pair step")
    # With two prior columns fewer than mapped ones, every combination of
    # N times the first two columns of null(X_s)'s Householder basis has
    # P-share 1 and no coupling; the isotropic one makes delta = 1.
    tied = state.j + 2 <= basis.dim
    if tied:
        w = basis.lift(orthonormal_null_basis(basis.xs)[:, :2])
        g = _isotropic_coefficients(w)
        p = w @ g
        choice = _PairChoice(p, np.zeros(2 * state.j), euclidean_norm(p) / euclidean_norm(g))
    else:
        # the mapped directions, orthonormalized, then null(Xi)'s, of
        # P-share 0; their u-rows become the (v_s; v_t) rows
        left, nu, xw = _mapped_directions(basis)
        u = np.hstack([xw * nu, basis.xi_null])
        nus = np.concatenate([nu, np.zeros(basis.xi_null.shape[1])])
        zv = np.vstack([np.conj(c_s) * u, np.conj(c_t) * u]) / basis.c
        choice = _complex_pair_core(left, nus, zv, c_s, c_t, gamma.imag)
    pc = state.P_perp @ choice.p
    vs1 = euclidean_norm(pc.real)
    vs2 = euclidean_norm(pc.imag)
    if min(vs1, vs2) <= 1e-13:
        raise DegenerateStepError("complex step: produced dependent column pair")
    d = d_delta_block(gamma.real, gamma.imag, vs1 / vs2)
    s_block, t_block = (np.eye(2), d) if alpha_dom else (d, np.eye(2))
    rec = StepRecord(
        "complex",
        state.j,
        basis.dim + state.j,
        p_share=choice.nu1**2,
        branch=choice.branch,
        nu2=choice.nu2,
        rho1=choice.rho1,
        rho2=choice.rho2,
        tied=tied,
    )
    cols = [pc.real / vs1, pc.imag / vs2]
    vcols = [choice.v.real / vs1, choice.v.imag / vs2]
    return _write_step(state, cols, vcols, s_block, t_block, alpha_dom, rec)


def complete_X(state: AssignState) -> np.ndarray:
    """Extend the state's Xi = Q2^T X to the full invertible factor
    X = Q1 Y + Q2 Xi.

    Y's rows are an orthonormal basis of the null space of Xi, so the
    Q1-component is orthogonal to range(Xi^T), which keeps X as well
    conditioned as the data permits.  Once all n columns exist, that basis
    is Z_2 of the kept factor Xi^T = [Z_1 Z_2] [T; 0], whose triangle has
    certified that Xi keeps full row rank.
    """
    y = state.xit_null
    return state.q1 @ y.T + state.q2 @ state.Xi


def extract_feedback(state: AssignState, x) -> tuple[np.ndarray, np.ndarray]:
    """Solve R F = Q1^T (X S P^T - A) and R G = Q1^T (X T P^T - E) with
    R's triangle."""
    f = _solve_triangular(state.r, state.q1.T @ (x @ state.S @ state.P.T - state.a))
    g = _solve_triangular(state.r, state.q1.T @ (x @ state.T @ state.P.T - state.e))
    return f, g


@serial_blas()
def run_pipeline(problem) -> Solution:
    """Assign the requested spectrum of ``problem`` and return (F, G) with
    all factors.

    The infinite block comes first, then the finite real poles in ascending
    order, then the complex pairs in input order.  A step that fails raises
    DegenerateStepError with its ``step`` kind and ``pole_index`` (1-based,
    in that order) set.  The solve runs on one BLAS thread
    (:func:`~schurpole.linalg.serial_blas`), so its answer does not depend
    on the caller's thread counts.
    """
    state = assign_infinite_block(problem)
    finite = problem.finite_poles
    reals = sorted((p for p in finite if p.kind is PoleKind.FINITE_REAL), key=lambda p: p.value.real)
    queue = reals + [p for p in finite if p.kind is PoleKind.FINITE_COMPLEX]
    for idx, pole in enumerate(queue, start=1):
        is_pair = pole.kind is PoleKind.FINITE_COMPLEX
        try:
            state = (assign_complex_pair if is_pair else assign_real_pole)(state, pole)
        except DegenerateStepError as exc:
            raise DegenerateStepError(
                f"{exc} (while assigning pole {idx} of {len(queue)})",
                step="complex" if is_pair else "real",
                pole_index=idx,
                null_dim=exc.null_dim,
                needed=exc.needed,
            ) from None
    if state.j != state.n:
        raise DegenerateStepError(f"assignment finished with {state.j} columns, expected {state.n}")
    x = complete_X(state)
    f, g = extract_feedback(state, x)
    return Solution(F=f, G=g, P=state.P, S=state.S, T=state.T, X=x, steps=tuple(state.steps))
