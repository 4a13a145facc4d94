"""Verification metrics for closed-loop matrix pencils.

Everything here judges a candidate feedback pair only through the
closed-loop matrices, independently of how the feedback was constructed:

* an eigenvalue oracle: one QZ call (Moler & Stewart, SIAM J. Numer.
  Anal. 10, 1973) on the norm-scaled pencil, whose homogeneous pairs
  (alpha, beta) give the finite poles and count the infinite ones
  (``qz_spectrum``, which check (e) of ``validate_problem`` reads too,
  with left eigenvectors);
* a regularity / nilpotency-index check, which carries that spectrum and
  its eigenvectors so a verification runs QZ once;
* the matched relative pole error on a log10 scale;
* the departure of the solver's quasi-triangular pair (S, T) from
  normality, read off S and T alone;
* Frobenius condition numbers and feedback norms; kappaX is that of the
  unit QZ eigenvectors of the finite poles beside an orthonormal null(E_c)
  basis at the index check's cutoff, unavailable when two finite poles
  agree to 1e-8 or that basis has the wrong size.

The solver never calls QZ and nothing here reuses its factors, so the
oracle is an independent cross-check of the Schur-based construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import SingularPencilError
from .linalg import euclidean_norm, generalized_eig, serial_blas
from .poles import PoleKind, PolePair, count_infinite, expand_to_values

__all__ = [
    "frobenius_norm",
    "QZSpectrum",
    "qz_spectrum",
    "generalized_eig_oracle",
    "IndexReport",
    "index_and_regularity_check",
    "precs_metric",
    "departure_measure",
    "frobenius_condition",
    "eigenvector_condition",
    "Report",
    "verify_solution",
    "verify_feedback",
]

_EPS = float(np.finfo(np.float64).eps)

#: log10 error floor (machine precision exhausted)
_PRECS_FLOOR = -17.0

#: |beta| <= _INF_CUTOFF * |alpha| counts an eigenvalue as infinite
_INF_CUTOFF = 1e-8

#: |alpha| and |beta| both <= _SINGULAR_CUTOFF * n * eps mark a singular pencil
_SINGULAR_CUTOFF = 100.0

# Bound on the solver's three factor residuals in verify_solution: the
# relative backward errors of (A+BF)P = XS and (E+BG)P = XT, and
# ||P^T P - I||_F.  A backward-stable construction leaves them near n*eps
# (at most 4e-13 on the benchmark's random families up to n = 100); 1e-8
# leaves room for growth with n and conditioning, yet fails a factor that
# is wrong in its eighth digit.
_FACTOR_TOL = 1e-8


def frobenius_norm(mat: np.ndarray) -> float:
    """||mat||_F; where the plain sum of squares overflows, the norm of
    mat / max|mat_ij| times that maximum."""
    with np.errstate(over="ignore"):
        norm = euclidean_norm(mat)
    if math.isinf(norm):
        big = float(np.max(np.abs(mat)))
        norm = big * euclidean_norm(mat / big)
    return norm


class QZSpectrum(NamedTuple):
    """One QZ call on a norm-scaled pencil, read with the oracle's cutoffs
    (:func:`qz_spectrum`)."""

    #: the homogeneous pairs of (A_c/||A_c||_F, E_c/||E_c||_F), in ``?ggev``'s order
    alpha: np.ndarray
    beta: np.ndarray
    #: ||A_c||_F and ||E_c||_F (1.0 for a zero matrix); lambda = alpha/beta * norm_a/norm_e
    norm_a: float
    norm_e: float
    #: ``?ggev`` indices of the finite pairs
    finite: np.ndarray
    #: the finite poles, sorted by (real, imag), a couple once with positive imaginary part
    poles: tuple[PolePair, ...]
    #: the ``?ggev`` index of each of ``poles``
    columns: tuple[int, ...]
    #: unit left and right eigenvectors, one column per pair (None unless asked for)
    vl: np.ndarray | None
    vr: np.ndarray | None


def qz_spectrum(a_c, e_c, *, vectors: bool = False, left: bool = False) -> QZSpectrum:
    """The QZ pairs of the pencil (A_c, E_c), split into finite and
    infinite ones, with unit right (``vectors``) or left (``left``)
    eigenvectors on request.

    One QZ call (LAPACK ``?ggev``, through
    :func:`~schurpole.linalg.generalized_eig`, which returns what
    ``scipy.linalg.eig`` would, bit for bit) on the scaled pencil
    (A_c/||A_c||_F, E_c/||E_c||_F) returns homogeneous pairs (alpha, beta)
    with lambda = alpha/beta * ||A_c||_F/||E_c||_F.  A norm whose plain sum
    of squares overflows is taken with a scaled sum, so the scaled pencil
    keeps unit norm there too.

    Both cutoffs rest on QZ's backward stability: the computed pairs are
    the exact generalized Schur diagonal of a pencil within about n*eps of
    the scaled one (2e-14 at n = 100).

    * Infinite: ``|beta| <= 1e-8 * |alpha|``.  An index-1 infinite
      eigenvalue is semisimple, so its |beta|/|alpha| moves by at most its
      condition number times n*eps, while a finite eigenvalue of the scaled
      pencil sits at |beta|/|alpha| = 1/|lambda|.  The cutoff thus counts as
      infinite every index-1 infinite eigenvalue of condition below about
      1e6 and as finite every pole below 1e8 * ||A_c||_F/||E_c||_F in
      modulus.  A Jordan chain of length k at infinity moves by about
      (n*eps)**(1/k) and may fall on either side, which is why
      :func:`index_and_regularity_check` judges the index by ranks, not by
      this count alone.
    * Singular: ``|alpha|`` and ``|beta|`` both below 100 * n * eps.
      Zeroing that diagonal pair makes the determinant of the Schur form
      vanish for every lambda, so the scaled pencil is within about its
      size of a singular pencil: singular at working precision.

    Raises SingularPencilError in that case.
    """
    a_c = np.asarray(a_c, dtype=np.float64)
    e_c = np.asarray(e_c, dtype=np.float64)
    if a_c.ndim != 2 or a_c.shape[0] != a_c.shape[1] or a_c.shape != e_c.shape:
        raise ValueError("oracle needs two square matrices of equal shape")
    n = a_c.shape[0]
    norm_a = frobenius_norm(a_c) or 1.0
    norm_e = frobenius_norm(e_c) or 1.0
    (alpha, beta), vl, vr = generalized_eig(a_c / norm_a, e_c / norm_e, vectors, left=left)
    negligible = _SINGULAR_CUTOFF * n * _EPS
    if np.any((np.abs(alpha) <= negligible) & (np.abs(beta) <= negligible)):
        raise SingularPencilError(
            "a QZ pair (alpha, beta) vanishes; the pencil is singular "
            "(or indistinguishable from singular at working precision)"
        )
    finite = np.flatnonzero(np.abs(beta) > _INF_CUTOFF * np.abs(alpha))
    lams = alpha[finite] / beta[finite] * (norm_a / norm_e)
    # real ggev returns conjugate couples exactly mirrored: keep the upper one
    upper = sorted(np.flatnonzero(lams.imag >= 0.0), key=lambda k: (lams[k].real, lams[k].imag))
    poles = tuple(PolePair.from_value(lams[k]) for k in upper)
    return QZSpectrum(alpha, beta, norm_a, norm_e, finite, poles, tuple(int(finite[k]) for k in upper), vl, vr)


def generalized_eig_oracle(a_c, e_c, *, vectors: bool = False):
    """Full spectrum of the pencil (A_c, E_c) as canonical pole pairs.

    The pairs of one QZ call on the norm-scaled pencil, read with the
    infinite and singular cutoffs of :func:`qz_spectrum`.  Infinite poles
    come first, then the finite ones sorted by (real, imag); a complex
    conjugate couple is returned once, with positive imaginary part.

    ``vectors=True`` returns ``(poles, eigvecs)``: one unit right
    eigenvector column per value of ``expand_to_values(poles)``, in order,
    the columns ``?ggev`` returns divided by their ``?nrm2``.  QZ's
    infinite eigenvectors, an arbitrary basis, are not returned.

    Raises SingularPencilError when the pencil is singular at working
    precision.
    """
    spec = qz_spectrum(a_c, e_c, vectors=vectors)
    n = spec.alpha.size
    poles = [PolePair.infinite()] * (n - spec.finite.size) + list(spec.poles)
    if not vectors:
        return poles
    cols = []
    for pole, k in zip(spec.poles, spec.columns):
        v = spec.vr[:, k]
        cols.extend([v, v.conj()] if pole.kind is PoleKind.FINITE_COMPLEX else [v])
    return poles, np.column_stack(cols) if cols else np.zeros((n, 0), dtype=complex)


@dataclass(frozen=True)
class IndexReport:
    """Outcome of the regularity / index test on a closed-loop pencil."""

    regular: bool
    index_le_1: bool
    rank_e: int
    #: the spectrum from :func:`generalized_eig_oracle` (empty when singular)
    poles: tuple[PolePair, ...] = ()
    #: unit right eigenvectors, one per value of ``expand_to_values(poles)``
    eigvecs: np.ndarray | None = field(default=None, compare=False, repr=False)
    #: orthonormal basis of null(E_c) at the rank cutoff, n x (n - rank_e)
    null_e: np.ndarray | None = field(default=None, compare=False, repr=False)


# Relative rank cutoff of the index check.  It must separate construction
# roundoff (E_c produced by a feedback computation carries noise-level
# singular values near 1e-14 of its norm) from genuinely small directions
# of an ill-conditioned but invertible leading part (observed down to a few
# 1e-9 on hard full-rank assignments).
_INDEX_RANK_RTOL = 1e-11


def _rank_at(svals: np.ndarray) -> int:
    """Number of singular values above ``_INDEX_RANK_RTOL * sigma_max`` (0 for a zero matrix)."""
    return int(np.count_nonzero(svals > _INDEX_RANK_RTOL * svals[0])) if svals.size else 0


def _unit_frobenius(mat: np.ndarray) -> np.ndarray:
    """``mat`` scaled to unit Frobenius norm (a zero matrix is returned as is)."""
    norm = euclidean_norm(mat)
    return mat / norm if norm > 0 else mat


def index_and_regularity_check(a_c, e_c) -> IndexReport:
    """Check that (A_c, E_c) is regular with nilpotency index at most one.

    Index <= 1 holds exactly when the number of finite poles equals
    rank(E_c) and [E_c, A_c * N] has full rank for N a basis of the null
    space of E_c (no generalized eigenvector chains at infinity).  Ranks
    are taken at the relative cutoff ``_INDEX_RANK_RTOL`` = 1e-11, which
    separates construction roundoff from genuinely small directions.  E_c and
    A_c * N are each scaled to unit Frobenius norm before the stacked rank
    test, so the verdict does not change when A_c alone is rescaled (a
    time scaling, which multiplies every pole too).

    One SVD of E_c gives rank(E_c) and an orthonormal N.  The report
    carries N and the spectrum and unit finite eigenvectors of the one QZ
    call, from which :func:`eigenvector_condition` builds kappaX (None when
    two finite poles agree to 1e-8 or N lacks n - finite count columns).
    """
    a_c = np.asarray(a_c, dtype=np.float64)
    e_c = np.asarray(e_c, dtype=np.float64)
    n = a_c.shape[0]
    _, s_e, vh_e = np.linalg.svd(e_c)
    rank_e = _rank_at(s_e)
    null_e = vh_e[rank_e:].T
    try:
        poles, eigvecs = generalized_eig_oracle(a_c, e_c, vectors=True)
    except SingularPencilError:
        return IndexReport(False, False, rank_e)
    finite_count = eigvecs.shape[1]
    if null_e.shape[1]:
        stacked = np.hstack([_unit_frobenius(e_c), _unit_frobenius(a_c @ null_e)])
        no_chains = _rank_at(np.linalg.svd(stacked, compute_uv=False)) == n
    else:
        no_chains = True
    index_ok = (finite_count == rank_e) and no_chains
    return IndexReport(True, index_ok, rank_e, tuple(poles), eigvecs, null_e)


def precs_metric(requested, computed) -> float:
    """Worst matched relative pole error on a log10 scale.

    Finite pole values are matched one-to-one (Hungarian assignment on
    relative errors; absolute error for requested poles at zero).  Returns
    +inf when the counts differ, and is floored at -17 (machine-precision
    agreement, including the empty case).
    """
    req = np.array([complex(v) for v in requested], dtype=complex)
    comp = np.array([complex(v) for v in computed], dtype=complex)
    if req.size != comp.size:
        return math.inf
    if not req.size:
        return _PRECS_FLOOR
    # |z| as hypot(Re z, Im z), rounded as Python's abs() of a complex
    den = np.hypot(req.real, req.imag)[:, None]
    with np.errstate(invalid="ignore", over="ignore"):
        diff = req[:, None] - comp[None, :]
        err = np.hypot(diff.real, diff.imag)
        cost = np.where(den > 0, err / np.where(den > 0, den, 1.0), err)
    cost = np.nan_to_num(cost, nan=np.inf, posinf=np.inf)
    rows, cols = linear_sum_assignment(cost)
    worst = float(cost[rows, cols].max())
    if worst <= 10.0**_PRECS_FLOOR:
        return _PRECS_FLOOR
    if math.isinf(worst):
        return math.inf
    return max(math.log10(worst), _PRECS_FLOOR)


def departure_measure(s, t) -> float:
    """Squared departure of a quasi-triangular pair (S, T) from normality.

    Sums, over S and T, ||triu(M, 1) + diag(subdiag(M), 1)||_F^2: the mass
    strictly above the diagonal, with each 2x2 block's subdiagonal entry
    added onto its superdiagonal one.  Outside the blocks this is the
    off-diagonal mass.  Inside a block D = [[sigma, delta*tau],
    [-tau/delta, sigma]] it is (D01 + D10)^2 = tau^2 * (delta - 1/delta)^2,
    the non-normality of the scaled rotation, and zero on an identity
    block.  Entries below the subdiagonal, zero in a quasi-triangular
    pair, are not read.
    """
    total = 0.0
    for mat in (s, t):
        mat = np.asarray(mat, dtype=np.float64)
        folded = np.triu(mat, 1) + np.diag(np.diagonal(mat, -1), 1)
        total += euclidean_norm(folded) ** 2
    return total


def _kappa_f(svals: np.ndarray) -> float:
    """kappa_F = ||s||_2 * ||1/s||_2 of a matrix with singular values ``svals``."""
    return float(np.sqrt(np.sum(svals**2)) * np.sqrt(np.sum(svals**-2.0)))


def frobenius_condition(x) -> float:
    """kappa_F(X) = ||X||_F * ||X^{-1}||_F (inf when singular, nan when X
    has a non-finite entry)."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        return math.nan
    svals = np.linalg.svd(x, compute_uv=False)
    if svals.size == 0 or svals[-1] <= 0.0:
        return math.inf
    return _kappa_f(svals)


def eigenvector_condition(values, eigvecs, null_e) -> float | None:
    """kappa_F of the eigenvector matrix X = [V, N] (Kautsky, Nichols &
    Van Dooren, 1985), or None.

    V: the unit QZ right eigenvectors of the finite eigenvalues ``values``,
    conjugates included; N: an orthonormal null(E_c) basis at the index
    check's rank cutoff, spanning the infinite eigenvectors of an index-1
    pencil.  kappa_F does not depend on which orthonormal N or on V's
    phases.  None (``kappaX`` reads ``unavailable``) when two values agree
    to 1e-8 relative, when N lacks n - len(values) columns, or when X is
    singular to 1e-14 relative.
    """
    vals = np.asarray(values, dtype=complex)
    if vals.size + null_e.shape[1] != null_e.shape[0]:
        return None
    mag = np.abs(vals)
    close = np.abs(vals[:, None] - vals[None, :]) <= 1e-8 * np.maximum(1.0, np.maximum.outer(mag, mag))
    if np.any(np.triu(close, k=1)):
        return None
    svals = np.linalg.svd(np.hstack([eigvecs, null_e]), compute_uv=False)
    if svals[-1] <= 1e-14 * svals[0]:
        return None
    return _kappa_f(svals)


@dataclass(eq=False)
class Report:
    """Verification summary for one candidate feedback pair.

    ``failure`` names the first criterion the pair fails, with its value,
    in the order: not regular, index > 1, infinite count, precs, factor
    residual; None when it passes.
    """

    precs: float
    delta_f2: float | None
    norm_f: float
    norm_g: float
    kappa_x_gf: float | None
    kappa_eigvec: float | None
    residual_a: float | None
    residual_e: float | None
    orth_p: float | None
    infinite_count: int | None
    index_ok: bool
    regular: bool
    failure: str | None

    @property
    def passed(self) -> bool:
        return self.failure is None

    def to_mapping(self) -> dict:
        """External key names used by the text and JSON reports."""
        return {
            "precs": self.precs,
            "deltaF2": self.delta_f2,
            "normF": self.norm_f,
            "normG": self.norm_g,
            "kappaXGF": self.kappa_x_gf,
            "kappaX": self.kappa_eigvec,
            "residualA": self.residual_a,
            "residualE": self.residual_e,
            "infinite_count": self.infinite_count,
            "index_ok": self.index_ok,
        }


# An overflowing closed loop is a verdict (not regular), not a numpy warning.
@np.errstate(over="ignore", invalid="ignore")
def verify_feedback(problem, f, g) -> Report:
    """Verify a feedback pair through its closed loop alone.

    The verdict: a regular closed loop of index at most one whose finite
    and infinite pole counts match the problem, with precs <= -6 (-17
    when there are no finite poles); ``failure`` names the first of these
    that fails.  The fields that need the solver's factors read
    None.  A closed loop with a non-finite entry or Frobenius norm fails
    as not regular: the oracle scales by that norm, so it has no spectrum
    to judge.  An E_c no larger than the rounding of forming E + BG is
    judged as the zero matrix (see the cutoff below).
    """
    f = np.asarray(f, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if f.shape != (problem.m, problem.n) or g.shape != (problem.m, problem.n):
        raise ValueError(
            f"feedback must be m x n = {(problem.m, problem.n)}, "
            f"got F {f.shape} and G {g.shape}"
        )
    n, r = problem.n, problem.r
    a_c = problem.A + problem.B @ f
    e_c = problem.E + problem.B @ g
    norm_e_c = euclidean_norm(e_c)
    in_range = math.isfinite(euclidean_norm(a_c)) and math.isfinite(norm_e_c)
    # Forming E + BG rounds each entry by about (m + 1) eps (|E| + |B||G|)
    # (Higham, Accuracy and Stability of Numerical Algorithms, Sect. 3.5),
    # so an E_c below n eps (||E||_F + ||B||_F ||G||_F) cannot be told from
    # zero.  That happens when range(E) lies in range(B) and r = 0: G
    # cancels E exactly, and the oracle, which scales E_c to unit norm,
    # would read the rounding as finite poles.  On such inputs ||E_c||_F
    # measured at most 0.19 of the cutoff (E = BW, m = 1..3, n = 4..300, 3
    # draws each); on the suites of scripts/solver_digest.py it stays
    # above 2e11 times the cutoff.
    data_scale = euclidean_norm(problem.E) + euclidean_norm(problem.B) * euclidean_norm(g)
    if in_range and norm_e_c <= n * _EPS * data_scale:
        e_c = np.zeros_like(e_c)
    idx = index_and_regularity_check(a_c, e_c) if in_range else None
    regular = idx is not None and idx.regular
    if regular:
        computed = expand_to_values(idx.poles)
        precs = precs_metric(expand_to_values(problem.poles), computed)
        inf_count = count_infinite(idx.poles)
        kappa_eig = eigenvector_condition(computed, idx.eigvecs, idx.null_e)
    else:
        precs, inf_count, kappa_eig = math.inf, None, None
    index_ok = regular and idx.index_le_1
    if not regular:
        failure = "closed loop not regular"
    elif not index_ok:
        failure = "index > 1"
    elif inf_count != n - r:
        failure = f"infinite count {inf_count}, expected {n - r}"
    elif not precs <= -6.0:
        failure = f"precs {precs:.3g} > -6"
    else:
        failure = None
    return Report(
        precs=precs,
        delta_f2=None,
        norm_f=euclidean_norm(f),
        norm_g=euclidean_norm(g),
        kappa_x_gf=None,
        kappa_eigvec=kappa_eig,
        residual_a=None,
        residual_e=None,
        orth_p=None,
        infinite_count=inf_count,
        index_ok=index_ok,
        regular=regular,
        failure=failure,
    )


@serial_blas()
@np.errstate(over="ignore", invalid="ignore")
def verify_solution(problem, sol) -> Report:
    """Verify a pipeline solution: :func:`verify_feedback` on (F, G), plus
    the residuals of the factors (A+BF)P = XS, (E+BG)P = XT and P^T P = I,
    each of which must be at most ``_FACTOR_TOL`` (a NaN fails); the first
    that is not names ``failure`` when the closed loop itself passes.  Runs
    on one BLAS thread (:func:`~schurpole.linalg.serial_blas`)."""
    rep = verify_feedback(problem, sol.F, sol.G)
    scale = max(euclidean_norm(problem.A) + euclidean_norm(problem.E) + euclidean_norm(sol.X), 1.0)
    a_c = problem.A + problem.B @ sol.F
    e_c = problem.E + problem.B @ sol.G
    residual_a = euclidean_norm(a_c @ sol.P - sol.X @ sol.S) / scale
    residual_e = euclidean_norm(e_c @ sol.P - sol.X @ sol.T) / scale
    orth_p = euclidean_norm(sol.P.T @ sol.P - np.eye(problem.n))
    residuals = {"residual_a": residual_a, "residual_e": residual_e, "orth_p": orth_p}
    over = (f"{name} {res:.3g} > {_FACTOR_TOL:g}" for name, res in residuals.items() if not res <= _FACTOR_TOL)
    return replace(
        rep,
        residual_a=residual_a,
        residual_e=residual_e,
        orth_p=orth_p,
        delta_f2=departure_measure(sol.S, sol.T),
        kappa_x_gf=frobenius_condition(sol.X),
        failure=rep.failure or next(over, None),
    )
