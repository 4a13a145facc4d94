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
pole.  Only an (n-m) x n matrix is factorized per step, formed in
O(n (n-j)) from Q2^T E P_perp and Q2^T A P_perp, which the state keeps;
the j solutions with p = 0 that the coefficients add are written down in
closed form.
The free coefficients are chosen to keep the off-diagonal mass of (S, T)
small, so the closed-loop pencil stays close to a normal pair and the
assigned spectrum is insensitive to perturbations.  A real pole is the
1x1 case and a conjugate pair the 2x2 case of one step: both shift the
pencil in ``_shifted`` and write their columns in ``_write_step``.  Once
all n columns exist, X is completed from the null space of Xi, taken by
the steps' own kernel, and (F, G) are read off.  ``AssignState`` owns the
plant and the factors: A, E and B's factors Q1, Q2, R, taken once when
the infinite block opens the state, and buffers of the factors' final
size.  Every later stage reads the plant from the state: a step is
``step(state, pole)``, fills its one or two columns of P, Xi, S and T and
updates the complement stack in place, and ``run_pipeline`` returns the
filled buffers.  A step's null-space basis is scratch: it is used once,
and each step leaves only a ``StepRecord`` of scalars (null dimension,
P-share, branch).

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

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DegenerateStepError
from .linalg import (
    euclidean_norm,
    numerical_rank,
    orthonormal_null_basis,
    qr_decompose,
    serial_blas,
    sym_eig,
)
from .poles import PoleKind, PolePair

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
    the null space the step chose from, d mapped directions plus j free
    ones (m + j generically; on the infinite block, the dimension of
    null(Q2^T E)).  ``p_share`` is the P-component share of the chosen
    direction: the top eigenvalue of Z1^T Z1 on a real step, nu1^2 on a
    complex step.  A complex step also
    records its ``branch`` ("rank1", "hamiltonian" or "jacobi"), Z1's second
    singular value ``nu2``, and the objectives ``rho1``, ``rho2`` of the
    single- and two-direction choices (None on the rank-1 branch).  The
    off-diagonal mass a step adds is its column of the returned S and T.
    """

    kind: str
    j_before: int
    null_dim: int
    p_share: float | None = None
    branch: str | None = None
    nu2: float | None = None
    rho1: float | None = None
    rho2: float | None = None


@dataclass(eq=False)
class AssignState:
    """The plant and the factors after ``j`` assigned columns, written in
    place.

    The state owns the plant, A, E and the factors of B = [Q1 Q2] [R; 0],
    and buffers of the factors' final size: n x n for P, S and T,
    (n-m) x n for Xi, and (n + 2(n-m)) x n for the complement stack and for
    the scratch of its update.  A step writes its new columns into them
    and raises ``j``; the properties are views of what is filled.  The last
    n - j columns of the stack hold an orthonormal basis P_perp of the
    complement of range(P) over Q2^T E P_perp and Q2^T A P_perp, kept up
    to date in place by one Householder reflection per new column.  S and
    T are zero outside their filled blocks.  A step that raises leaves the
    state unusable.
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
    scratch: np.ndarray = field(init=False, repr=False)
    steps: list[StepRecord] = field(default_factory=list)

    def __post_init__(self):
        n, m = self.q1.shape
        self.p_buf = np.empty((n, n))
        self.xi_buf = np.empty((n - m, n))
        self.s_buf = np.zeros((n, n))
        self.t_buf = np.zeros((n, n))
        self.perp_buf = np.empty((3 * n - 2 * m, n))
        self.scratch = np.empty(self.perp_buf.size)

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


def _complement_after(perp: np.ndarray, n: int, p: np.ndarray, scratch: np.ndarray) -> None:
    """Update the complement stack ``perp`` in place once the unit column
    p, taken from the range of P_perp = perp[:n], has joined P; afterwards
    ``perp[:, 1:]`` is the stack of the new complement.

    The Householder reflection H that maps p's coordinates y = P_perp^T p
    onto the first axis makes P_perp H = [+-p, rest]; ``rest`` spans what
    is left, and the same columns of perp H carry Q2^T E rest and
    Q2^T A rest.  That costs O(n (n - j)), against a complete QR of P and
    two products with P_perp per step.  The rank-1 term of the reflection
    is formed in the flat buffer ``scratch`` (at least perp's size) and
    subtracted in place, so nothing is allocated but vectors.
    """
    if perp.shape[1] == 1:
        return  # p was the last column; no complement is left
    v = perp[:n].T @ p
    v[0] += math.copysign(euclidean_norm(v), v[0])
    rest = perp[:, 1:]
    term = scratch[: rest.size].reshape(rest.shape)
    np.multiply.outer(perp @ v, (2.0 / float(v @ v)) * v[1:], out=term)
    np.subtract(rest, term, out=rest)


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
    state = AssignState(a, e, q1, q2, r, count)
    state.P[:] = z[:, :count]
    p_perp = np.linalg.qr(state.P, mode="complete")[0][:, count:]
    state.P_perp[:] = p_perp
    state.EP_perp[:] = q2t_e @ p_perp
    state.AP_perp[:] = q2t_a @ p_perp
    state.Xi[:] = q2t_a @ state.P
    np.fill_diagonal(state.S, 1.0)
    state.steps.append(StepRecord("infinite-block", 0, z.shape[1]))
    return state


def _step_null_basis(state: AssignState, kp, c_s, c_t, what):
    """Orthonormal basis of the part of a step's solutions that depends on
    the data.

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

    * (y, conj(c_s) u / c, conj(c_t) u / c) for (y, u) in the null space of
      the (n-m) x n matrix [kp, c Xi], which has d >= m dimensions;
    * (0, c_t w / c, -c_s w / c) for every w in C^j, the j directions of
      :func:`_free_directions`, which need no factorization.

    Returns (Y, V): Y holds the y-rows and V the stacked (v_s; v_t) rows of
    the first part's d orthonormal columns.  P_perp is an isometry, so
    (P_perp Y; V) is orthonormal, and with the free directions it spans the
    null space of the stacked [Q2^T K, c_s Xi, c_t Xi; P^T, 0, 0].
    """
    # The null space has dimension m + j generically; it is larger when
    # [kp, c Xi] is rank deficient, which only adds freedom.  A smaller
    # dimension means the instance violates the full-row-rank condition
    # required for assignment.
    rows, k = kp.shape
    j, m = state.j, state.m
    c = math.hypot(abs(c_s), abs(c_t))
    mat = np.empty((rows, k + j), dtype=kp.dtype)
    mat[:, :k] = kp
    np.multiply(state.Xi, c, out=mat[:, k:])
    z = orthonormal_null_basis(mat)
    if z.shape[1] < m:
        raise DegenerateStepError(
            f"{what}: constraint matrix null space has dimension "
            f"{z.shape[1] + j} < {m + j}; the instance is not assignable here",
            null_dim=z.shape[1] + j,
            needed=m + j,
        )
    u = z[k:]
    v = np.empty((2 * j, z.shape[1]), dtype=z.dtype)
    np.multiply(u, np.conj(c_s) / c, out=v[:j])
    np.multiply(u, np.conj(c_t) / c, out=v[j:])
    return z[:k], v


def _free_directions(c_s, c_t, j) -> np.ndarray:
    """The j stacked (v_s; v_t) columns (c_t e_i; -c_s e_i) / c of a step's
    solutions that have p = 0 (see :func:`_step_null_basis`)."""
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
    the complement and count them."""
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
        _complement_after(state.perp_buf[:, i:], state.n, p_buf[:, i], state.scratch)
    state.j += width
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
    y, v = _step_null_basis(state, kp, c_s, c_t, "real-pole step")

    # The free directions have no P-component, so the P-share's maximum is
    # reached on the d mapped columns alone.
    w_eig, v_eig = sym_eig(y.T @ y)
    share = float(w_eig[0])
    if share <= 1e-12:
        raise DegenerateStepError("real-pole step: no feasible direction reaches P (Z1 degenerate)")
    uvec = v_eig[:, 0]
    pt = state.P_perp @ (y @ uvec)
    scale = euclidean_norm(pt)
    rec = StepRecord("real", state.j, y.shape[1] + state.j, p_share=share)
    return _write_step(state, [pt / scale], [(v @ uvec) / scale], [[eps1]], [[eps2]], s_dom, rec)


def _symplectic(x: np.ndarray) -> np.ndarray:
    """J x for the symplectic unit J = [[0, I2], [-I2, 0]]."""
    return np.concatenate([x[2:], -x[:2]])


def _equalizing_coefficients(hm: np.ndarray, c1: float, c2: float) -> np.ndarray:
    """Unit coefficient vector (gamma1, gamma2, zeta1, zeta2) with both
    structural quadratic forms zero, minimizing 2*sum_l c_l*(gamma_l^2+zeta_l^2).

    ``hm``'s quadratic form is the norm imbalance of the two produced real
    columns and the form of J*hm their inner product (J the symplectic
    unit).  J maps each +phi eigenvector of ``hm`` to a -phi one, so with
    eigenpairs (phi1, v1), (phi2, v2) every feasible point lies on one of
    the two circles spanned by the orthonormal pairs
    {R1 v1 +/- R2 Jv2, R1 Jv1 -/+ R2 v2}, R1^2 = phi2/(phi1+phi2),
    R2^2 = phi1/(phi1+phi2).  The objective restricted to a circle is a
    2x2 quadratic form, minimized exactly by its bottom eigenvector.
    """
    obj = np.array([2.0 * c1, 2.0 * c2, 2.0 * c1, 2.0 * c2])  # the objective's diagonal
    w, vecs = np.linalg.eigh(0.5 * (hm + hm.T))
    phi1 = max(float(w[3]), 0.0)
    phi2 = max(float(w[2]), 0.0)
    if phi1 <= 1e-12 * max(1.0, euclidean_norm(hm)):
        # both forms vanish identically: any unit vector is feasible
        u = np.zeros(4)
        u[0 if c1 <= c2 else 1] = 1.0
        return u
    if phi2 <= 1e-12 * phi1:
        # a paired zero eigenvalue: its eigenspace is entirely feasible
        basis = vecs[:, 1:3]
        g = (basis.T * obj) @ basis
        _, gv = np.linalg.eigh(0.5 * (g + g.T))
        u = basis @ gv[:, 0]
        return u / euclidean_norm(u)
    v1 = vecs[:, 3]
    v2 = vecs[:, 2]
    r1 = np.sqrt(phi2 / (phi1 + phi2))
    r2 = np.sqrt(phi1 / (phi1 + phi2))
    # row i of (wa, wb) is circle i's orthonormal pair, sign +/-; their 2x2
    # forms go through one stacked eigh
    sgn = np.array([[1.0], [-1.0]])
    wa = r1 * v1 + sgn * (r2 * _symplectic(v2))
    wb = r1 * _symplectic(v1) - sgn * (r2 * v2)
    woa, wob = wa * obj, wb * obj
    forms = np.array([[[woa[i] @ wa[i], woa[i] @ wb[i]], [woa[i] @ wb[i], wob[i] @ wb[i]]] for i in range(2)])
    gw, gv = np.linalg.eigh(forms)
    best = 0 if gw[0, 0] <= gw[1, 0] else 1
    best_u = gv[best, 0, 0] * wa[best] + gv[best, 1, 0] * wb[best]
    return best_u / euclidean_norm(best_u)


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
    """A complex step's chosen column and the scalars behind the choice."""

    p: np.ndarray  # complex p-coordinates, unnormalized
    v: np.ndarray  # the matching stacked (v_s; v_t) column
    nu1: float
    nu2: float
    branch: str
    rho1: float | None
    rho2: float | None


def _complex_pair_core(z1, zv, c_s, c_t, tau_pen) -> _PairChoice:
    """Pick the complex combination of null-basis columns for one pair.

    The candidate columns are orthonormal: d columns with P-part ``z1`` and
    stacked (v_s; v_t) part ``zv`` (2j rows), followed by the j free
    directions of :func:`_free_directions` for the step coefficients
    ``c_s``, ``c_t``, whose P-part is zero.  So Z1 = [z1, 0] has the SVD of
    z1 with V = blockdiag(V_d, I), and only z1 is factorized.  Returns the
    unnormalized complex column p (real and imaginary parts become the two
    new P columns), the matching stacked v-column, Z1's two leading
    singular values, the branch taken and the objectives rho1, rho2 of the
    single- and two-direction choices (None on the rank-1 branch).  ``z1``
    may be given in any real orthonormal coordinates of the p-space, and p
    comes back in the same coordinates: z1 enters only through inner
    products of real and imaginary parts, which a real isometry keeps.
    """
    # Every coefficient direction of z1 is used, so V_d must be square; U is
    # read only in its first two columns and stays thin whenever it can.
    u, nus, vh = np.linalg.svd(z1, full_matrices=z1.shape[1] > z1.shape[0])
    v = vh.conj().T
    if nus.size == 0 or nus[0] <= 1e-13:
        raise DegenerateStepError("complex step: direction matrix Z1 vanishes")
    nu1 = float(nus[0])
    nu2 = float(nus[1]) if nus.size > 1 else 0.0
    vfree = 0.0
    rho1 = rho2 = None
    rotation = _psi_rotation(u[:, 0])

    if nu2 <= 1e-8 * nu1:
        # single usable direction: orthogonalize its real/imaginary parts
        # by a plane rotation, then choose the residual coefficients from
        # an unconstrained convex quadratic.
        if rotation is None:
            raise DegenerateStepError("complex step: real and imaginary parts of the direction are dependent")
        c, s, vs1, vs2 = rotation
        zvv = zv @ v
        w = zvv[:, 0]
        big_w = np.hstack([zvv[:, 1:], _free_directions(c_s, c_t, zv.shape[0] // 2)])
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
        d = v.shape[1]
        bvec = v @ coef[:d]
        # the free directions' part, (c_t g; -c_s g) / c, in closed form
        c_st = math.hypot(abs(c_s), abs(c_t))
        vfree = np.concatenate([(c_t / c_st) * coef[d:], (-c_s / c_st) * coef[d:]])
        branch = "rank1"
    else:
        zv2 = zv @ v[:, :2]
        w1 = zv2[:, 0] / nu1
        c1 = (1.0 - nu1**2) / nu1**2
        c2 = (1.0 - nu2**2) / nu2**2
        rho1 = np.inf
        if rotation is not None:
            c, s, vs1, vs2 = rotation
            delta = vs1 / vs2
            rho1 = (
                euclidean_norm(c * w1.real - s * w1.imag) ** 2 / vs1**2
                + euclidean_norm(s * w1.real + c * w1.imag) ** 2 / vs2**2
                + tau_pen**2 * (delta - 1.0 / delta) ** 2
            )
        kr = np.ascontiguousarray(u[:, :2].real)
        ki = np.ascontiguousarray(u[:, :2].imag)
        cmat = kr.T @ kr - ki.T @ ki
        dmat = kr.T @ ki + ki.T @ kr
        hm = np.empty((4, 4))
        hm[:2, :2] = cmat
        hm[:2, 2:] = hm[2:, :2] = -dmat
        hm[2:, 2:] = -cmat
        coeff = _equalizing_coefficients(hm, c1, c2)
        rho1 = float(rho1)
        rho2 = float(2.0 * (c1 * (coeff[0] ** 2 + coeff[2] ** 2) + c2 * (coeff[1] ** 2 + coeff[3] ** 2)))
        if rho2 <= rho1:
            gz = coeff[:2] + 1j * coeff[2:]
            bvec = v[:, :2] @ (gz / nus[:2])
            branch = "hamiltonian"
        else:
            bvec = (c + 1j * s) * v[:, 0] / nu1
            branch = "jacobi"

    return _PairChoice(z1 @ bvec, zv @ bvec + vfree, nu1, nu2, branch, rho1, rho2)


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
    y, v = _step_null_basis(state, kp, c_s, c_t, "complex-pair step")

    choice = _complex_pair_core(y, v, c_s, c_t, gamma.imag)
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
        y.shape[1] + state.j,
        p_share=choice.nu1**2,
        branch=choice.branch,
        nu2=choice.nu2,
        rho1=choice.rho1,
        rho2=choice.rho2,
    )
    cols = [pc.real / vs1, pc.imag / vs2]
    vcols = [choice.v.real / vs1, choice.v.imag / vs2]
    return _write_step(state, cols, vcols, s_block, t_block, alpha_dom, rec)


def complete_X(state: AssignState) -> np.ndarray:
    """Extend the state's Xi = Q2^T X to the full invertible factor
    X = Q1 Y + Q2 Xi.

    Y's rows are an orthonormal basis of the null space of Xi, so the
    Q1-component is orthogonal to range(Xi^T), which keeps X as well
    conditioned as the data permits.  Xi needs full row rank: its null
    space must have exactly m dimensions.
    """
    xi = state.Xi
    y = orthonormal_null_basis(xi)
    if y.shape[1] != state.m:
        raise DegenerateStepError("Xi lost full row rank; assignment state inconsistent")
    return state.q1 @ y.T + state.q2 @ xi


def extract_feedback(state: AssignState, x) -> tuple[np.ndarray, np.ndarray]:
    """Solve R F = Q1^T (X S P^T - A) and R G = Q1^T (X T P^T - E).

    R is triangular, but a general LU solve is used: OpenBLAS's
    triangular solve wakes its worker threads and can stall for
    milliseconds on these small systems.
    """
    f = np.linalg.solve(state.r, state.q1.T @ (x @ state.S @ state.P.T - state.a))
    g = np.linalg.solve(state.r, state.q1.T @ (x @ state.T @ state.P.T - state.e))
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
