"""Problem container, text file format, and feasibility validation.

Problem files are plain text.  ``#`` starts a comment, blank lines are
skipped, and all values are whitespace separated::

    n m r
    n rows of E   (n entries each)
    n rows of A   (n entries each)
    n rows of B   (m entries each)
    r finite pole lines: alpha_re alpha_im beta_re beta_im

The n - r infinite poles are implicit.  Complex poles must appear in
adjacent conjugate lines.  A pole line with beta = 0 or whose ratio
alpha/beta is not finite is rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import ParseError, SingularPencilError
from .linalg import numerical_rank, orthonormal_null_basis, serial_blas
from .metrics import QZSpectrum, frobenius_norm, generalized_eig_oracle
from .poles import PoleKind, PolePair, count_infinite, expand_to_values

__all__ = [
    "Problem",
    "CheckResult",
    "ValidationReport",
    "parse_problem",
    "serialize_problem",
    "parse_solution",
    "serialize_solution",
    "validate_problem",
]

# The fixed pseudo-random finite-lambda probe of the controllability check
# on a singular or near-singular pencil, drawn once from a fixed stream so
# validation is reproducible.  There [lambda*E - A, B] loses rank either
# at finitely many lambda, which no fixed probe can find, or at every
# lambda, which one generic value shows.
_FIXED_PROBES = (complex(*np.random.default_rng(0x5F0C8E).standard_normal(2)),)

# Check (e) at the open-loop eigenvalues (the PBH test; Hautus, Proc. KNAW
# A 72, 1969): at a simple eigenvalue lambda with unit left eigenvector w,
# [lambda*E - A, B] loses rank exactly when w^H B = 0.
# * Isolated eigenvalues, with no other within chordal distance 1e-6, fail
#   exactly when ||w^H Q|| <= sqrt(eps), Q an orthonormal basis of range(B)
#   at check (a)'s numerical rank; no rank is probed.  Like
#   controllability, the rule sees range(B) alone, not an input's units
#   (B -> B*T) or A and E's scale, whereas a probe's cutoff scales with A
#   and E, and a probe at the computed lambda read full rank at a blind w
#   (an n = 30 couple, ||w^H B|| = 3.4e-12, whose closed loop was not
#   regular).  The computed w is off by about eps/gap, so a w whose true
#   w^H Q is zero reads below sqrt(eps) unless its gap is below about
#   sqrt(eps), within the cluster chord.  Since ||w^H B|| <= ||w^H Q||*||B||_2,
#   ||w^H B|| > sqrt(eps)*||B||_F passes an eigenvalue without forming Q.
# * Clusters: a semisimple multiple eigenvalue has a left eigenspace, not
#   a single vector, and one w that sees B says nothing about the others;
#   so every eigenvalue with a neighbour within 1e-6, its conjugate
#   included, is probed with a rank.  A defective eigenvalue splits into
#   computed ones about eps**(1/k) apart, at each of which the rank can
#   read full, while their mean is much nearer the true value; so a
#   cluster is probed at its member, then at the mean of the members
#   within 1e-6 of it.
# * Near-singular pencils: in a singular pencil every lambda is an
#   eigenvalue, the left null space of lambda*E - A may have any dimension,
#   and QZ's eigenvalues are arbitrary.  A pair with |alpha|^2 + |beta|^2 <=
#   eps on the unit-norm scaled pencil puts it within about sqrt(eps) of a
#   singular one, which the oracle's singular cutoff (100*n*eps) need not
#   flag.  There w is not read: every eigenvalue is probed, and the fixed
#   value after them.
_SQRT_EPS = math.sqrt(float(np.finfo(np.float64).eps))
_CLUSTER_CHORD = 1e-6


@dataclass(eq=False)
class Problem:
    """A pole-assignment instance (E, A, B, requested poles, r)."""

    E: np.ndarray
    A: np.ndarray
    B: np.ndarray
    poles: tuple[PolePair, ...]
    r: int

    def __post_init__(self):
        self.E = np.asarray(self.E, dtype=np.float64)
        self.A = np.asarray(self.A, dtype=np.float64)
        self.B = np.asarray(self.B, dtype=np.float64)
        n = self.E.shape[0]
        if self.E.shape != (n, n) or self.A.shape != (n, n):
            raise ValueError("E and A must be square with equal shape")
        if self.B.ndim != 2 or self.B.shape[0] != n or self.B.shape[1] < 1:
            raise ValueError("B must be n x m with m >= 1")
        for name, mat in (("E", self.E), ("A", self.A), ("B", self.B)):
            if not np.all(np.isfinite(mat)):
                raise ValueError(f"{name} contains non-finite entries")
        if not 0 <= self.r <= n:
            raise ValueError(f"r={self.r} outside [0, {n}]")
        self.poles = tuple(self.poles)
        n_inf = count_infinite(self.poles)
        if n_inf != n - self.r:
            raise ValueError(f"expected {n - self.r} infinite poles, got {n_inf}")
        total = n_inf + len(expand_to_values(self.poles))
        if total != n:
            raise ValueError(f"poles count {total} (with conjugates) != n={n}")

    @property
    def n(self) -> int:
        return self.E.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def finite_poles(self) -> tuple[PolePair, ...]:
        """The poles that are not infinite, in order."""
        return tuple(p for p in self.poles if not p.is_infinite)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass
class ValidationReport:
    q: int
    r: int
    checks: tuple[CheckResult, ...]
    warnings: tuple[str, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]


def _content_lines(text: str) -> list[tuple[int, list[str]]]:
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            out.append((i, body.split()))
    return out


def _floats(tokens: list[str], count: int, lineno: int, what: str) -> list[float]:
    if len(tokens) != count:
        raise ParseError(f"expected {count} values for {what}, got {len(tokens)}", lineno)
    vals = []
    for t in tokens:
        try:
            vals.append(float(t))
        except ValueError:
            raise ParseError(f"invalid number {t!r} in {what}", lineno) from None
    return vals


def parse_problem(text) -> Problem:
    """Parse a problem file; raises ParseError with a line number on failure."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty problem file")
    pos = 0

    def take(what: str) -> tuple[int, list[str]]:
        nonlocal pos
        if pos >= len(lines):
            last = lines[-1][0] if lines else 1
            raise ParseError(f"unexpected end of file, missing {what}", last)
        item = lines[pos]
        pos += 1
        return item

    lineno, toks = take("header 'n m r'")
    if len(toks) != 3:
        raise ParseError("header must be 'n m r'", lineno)
    try:
        n, m, r = (int(t) for t in toks)
    except ValueError:
        raise ParseError("header entries must be integers", lineno) from None
    if n < 1 or m < 1 or not 0 <= r <= n:
        raise ParseError(f"invalid dimensions n={n} m={m} r={r}", lineno)

    def matrix(rows: int, cols: int, what: str) -> np.ndarray:
        data = []
        for k in range(rows):
            ln, toks = take(f"{what} row {k + 1}")
            data.append(_floats(toks, cols, ln, f"{what} row {k + 1}"))
        return np.array(data, dtype=np.float64)

    e = matrix(n, n, "E")
    a = matrix(n, n, "A")
    b = matrix(n, m, "B")

    raw_poles: list[tuple[int, complex, complex]] = []
    for k in range(r):
        ln, toks = take(f"pole line {k + 1}")
        are, aim, bre, bim = _floats(toks, 4, ln, f"pole line {k + 1}")
        raw_poles.append((ln, complex(are, aim), complex(bre, bim)))
    if pos < len(lines):
        raise ParseError("trailing data after last pole line", lines[pos][0])

    reps: list[PolePair] = []
    i = 0
    while i < len(raw_poles):
        ln, alpha, beta = raw_poles[i]
        if beta == 0:
            raise ParseError("finite pole line has beta = 0", ln)
        try:
            pair = PolePair.make(alpha, beta)
        except ValueError as exc:
            raise ParseError(str(exc), ln) from None
        if pair.kind is PoleKind.FINITE_COMPLEX:
            if i + 1 >= len(raw_poles):
                raise ParseError("unpaired complex pole (conjugate line missing)", ln)
            ln2, a2, b2 = raw_poles[i + 1]
            # next line must carry the conjugate pole: conj(a)*b2 == a2*conj(b)
            lhs = alpha.conjugate() * b2
            rhs = a2 * beta.conjugate()
            if abs(lhs - rhs) > 1e-12 * (abs(lhs) + abs(rhs)):
                raise ParseError("complex pole is not followed by its conjugate", ln2)
            i += 2
        else:
            i += 1
        reps.append(pair)

    poles = (PolePair.infinite(),) * (n - r) + tuple(reps)
    try:
        return Problem(e, a, b, poles, r)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def _fmt(x: float) -> str:
    return "%.17g" % x


def serialize_problem(p: Problem) -> str:
    """Render a Problem in the text format accepted by parse_problem."""
    out = [f"{p.n} {p.m} {p.r}"]
    for mat in (p.E, p.A, p.B):
        for row in mat:
            out.append(" ".join(_fmt(v) for v in row))
    for pole in p.poles:
        if pole.is_infinite:
            continue
        lam = pole.value
        out.append(f"{_fmt(lam.real)} {_fmt(lam.imag)} 1 0")
        if pole.kind is PoleKind.FINITE_COMPLEX:
            out.append(f"{_fmt(lam.real)} {_fmt(-lam.imag)} 1 0")
    return "\n".join(out) + "\n"


def parse_solution(text) -> tuple[np.ndarray, np.ndarray]:
    """Parse a solution file: header ``n m``, then m rows of F and m rows
    of G with n entries each.  Same comment and whitespace rules as
    problem files.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    lines = _content_lines(text)
    if not lines:
        raise ParseError("empty solution file")
    lineno, toks = lines[0]
    if len(toks) != 2:
        raise ParseError("solution header must be 'n m'", lineno)
    try:
        n, m = (int(t) for t in toks)
    except ValueError:
        raise ParseError("solution header entries must be integers", lineno) from None
    if n < 1 or m < 1:
        raise ParseError(f"invalid solution dimensions n={n} m={m}", lineno)
    need = 1 + 2 * m
    if len(lines) < need:
        raise ParseError(
            f"solution file has {len(lines) - 1} matrix rows, expected {2 * m}",
            lines[-1][0],
        )
    if len(lines) > need:
        raise ParseError("trailing data after last G row", lines[need][0])
    rows = []
    for k in range(2 * m):
        ln, toks = lines[1 + k]
        name = "F" if k < m else "G"
        rows.append(_floats(toks, n, ln, f"{name} row {k % m + 1}"))
    f = np.array(rows[:m], dtype=np.float64)
    g = np.array(rows[m:], dtype=np.float64)
    for name, mat in (("F", f), ("G", g)):
        if not np.all(np.isfinite(mat)):
            raise ParseError(f"{name} contains non-finite entries")
    return f, g


def serialize_solution(f, g) -> str:
    """Render a feedback pair in the format accepted by parse_solution."""
    f = np.atleast_2d(np.asarray(f, dtype=np.float64))
    g = np.atleast_2d(np.asarray(g, dtype=np.float64))
    if f.shape != g.shape:
        raise ValueError(f"F and G must share a shape, got {f.shape} and {g.shape}")
    m, n = f.shape
    out = [f"{n} {m}"]
    for mat in (f, g):
        for row in mat:
            out.append(" ".join(_fmt(v) for v in row))
    return "\n".join(out) + "\n"


def _rank_failure(p: Problem, probes) -> str | None:
    """The detail of the first probe (a, b), lambda = a/b, where
    [lambda*E - A, B] loses rank, or None.  Each probe is homogeneously
    scaled, [a*E - b*A, B] with |a|^2 + |b|^2 = 1, so that huge eigenvalues
    do not drown B under the rank cutoff; a real one is built in real
    arithmetic."""
    for a, b in probes:
        scale = np.hypot(abs(a), abs(b))
        ca, cb = a / scale, b / scale
        if not (complex(ca).imag or complex(cb).imag):
            ca, cb = ca.real, cb.real
        rank = numerical_rank(np.hstack([p.E * ca - cb * p.A, p.B]))
        if rank != p.n:
            lam = f"{a / b:g}" if b else "inf"
            return f"rank([lambda*E - A, B])={rank} at lambda={lam}"
    return None


def _check_e_failure(p: Problem, spectrum: QZSpectrum | None, k_d: int, b_rank: int) -> str | None:
    """The detail of check (e) at its first failing eigenvalue, or None
    where every one passes.  ``spectrum`` is None on a singular pencil,
    which is probed at the fixed value alone.

    The eigenvalues checked are every one that check (d) does not count as
    infinite.  First the finite ones, as ``spectrum.poles`` orders them; a
    conjugate couple is checked once, at its member with positive imaginary
    part, since conj(M) has the rank of M.  The oracle counts a pole above
    about 1e8*||A||/||E|| in modulus as infinite, although (d) covers only
    k_d = n - rank(E) null directions; the excess ones follow, by
    increasing mu = 1/lambda after the first k_d, each couple once, at
    (1, mu).  An eigenvalue in a cluster is probed at itself and then at
    the cluster's mean (comment above ``_SQRT_EPS``), at its real part for
    an eigenvalue within the cluster chord of its own conjugate.
    """
    if spectrum is None:
        return _rank_failure(p, [(lam, 1.0) for lam in _FIXED_PROBES])
    alpha, beta = spectrum.alpha, spectrum.beta
    checked = [(pole.value, 1.0, k) for pole, k in zip(spectrum.poles, spectrum.columns)]
    if alpha.size - spectrum.finite.size > k_d:
        infinite = np.delete(np.arange(alpha.size), spectrum.finite)
        mus = beta[infinite] / alpha[infinite] * (spectrum.norm_e / spectrum.norm_a)
        # by |mu|, ties in the order of the pole list: (real, imag) of the
        # member with positive imaginary part, which comes first
        order = sorted(range(infinite.size), key=lambda i: (abs(mus[i]), mus[i].real, abs(mus[i].imag), mus[i].imag < 0))
        excess = [(complex(mus[i]), infinite[i]) for i in order[k_d:]]
        checked += [(1.0, mu, k) for i, (mu, k) in enumerate(excess) if mu.conjugate() not in [v for v, _ in excess[:i]]]
    size = np.hypot(np.abs(alpha), np.abs(beta))
    if np.any(size <= _SQRT_EPS):
        return _rank_failure(p, [(a, b) for a, b, _ in checked] + [(lam, 1.0) for lam in _FIXED_PROBES])
    cols = np.array([k for *_, k in checked], dtype=int)
    w = spectrum.vl[:, cols]
    # chordal distance of each checked pair to every pair, itself excluded
    ua, ub = alpha / size, beta / size
    chord = np.abs(np.outer(ua[cols], ub) - np.outer(ub[cols], ua))
    chord[np.arange(cols.size), cols] = np.inf
    isolated = chord.min(axis=1) > _CLUSTER_CHORD
    # Q: the leading b_rank columns of a column-pivoted QR of B, which rounds
    # each column relative to its own norm, so that units do not move Q
    sight = np.linalg.norm(w.conj().T @ (p.B / (frobenius_norm(p.B) or 1.0)), axis=1)
    unsure = isolated & (sight <= _SQRT_EPS)
    if unsure.any():
        q = scipy.linalg.qr(p.B, mode="economic", pivoting=True)[0][:, :b_rank]
        sight[unsure] = np.linalg.norm(w[:, unsure].conj().T @ q, axis=1)
    for i, ((a, b, _), alone, s) in enumerate(zip(checked, isolated, sight)):
        if alone and s <= _SQRT_EPS:
            lam = f"{a / b:g}" if b else "inf"
            return f"left eigenvector blind to range(B): ||w^H Q||={s:.2g} <= sqrt(eps) at isolated lambda={lam}"
        if not alone:
            # the cluster's mean: the sum of the pairs within the chord of
            # this one, itself included, on the unscaled pencil.  A member
            # within the chord of its own conjugate (a real one, or one of
            # a pair split off the real axis) has a neighbourhood closed
            # under conjugation, so the exact sum is real: the rounded
            # imaginary part of QZ's inexact conjugates is dropped.
            near = (chord[i] <= _CLUSTER_CHORD) | (np.arange(alpha.size) == cols[i])
            mean = (alpha[near].sum() * spectrum.norm_a, beta[near].sum() * spectrum.norm_e)
            ua_i, ub_i = ua[cols[i]], ub[cols[i]]
            if abs(ua_i * np.conj(ub_i) - ub_i * np.conj(ua_i)) <= _CLUSTER_CHORD:
                mean = (complex(mean[0].real), complex(mean[1].real))
            if detail := _rank_failure(p, [(a, b), mean]):
                return detail
    return None


@serial_blas()
def validate_problem(p: Problem) -> ValidationReport:
    """Feasibility checks for an assignment instance.

    Verifies, with numerical ranks at :func:`numerical_rank`'s cutoff:
    (a) B has full column rank; (b/c) the finite pole count r lies in
    [q - m, q] where q = rank([E B]); (d) [E, A*Ninf, B] has full row rank
    for a null basis Ninf of E; (e) [lambda*E - A, B] has full row rank at
    every open-loop eigenvalue that (d) does not count as infinite.  One QZ
    call with left eigenvectors
    (:func:`~schurpole.metrics.generalized_eig_oracle`) gives every
    eigenvalue.  An isolated one fails exactly when its left eigenvector is
    blind to range(B) (the PBH test; comment above ``_SQRT_EPS``), and any
    other one is probed with a rank; the first failing eigenvalue in the
    order ``_check_e_failure`` gives names the failure.  On a regular pencil
    the rank can drop only at an eigenvalue; on a singular one a fixed
    pseudo-random complex value is probed instead, with a warning, and on
    one within about sqrt(eps) of singular that QZ does not flag, every
    eigenvalue and then that value.  Each rank is certified full from one
    QR where it can be, and counted by an SVD otherwise
    (:func:`numerical_rank`).  Every repeated requested pole is recorded as
    a warning naming its multiplicity k and the accuracy of a defective
    eigenvalue, about eps**(1/k).  Runs on one BLAS thread
    (:func:`~schurpole.linalg.serial_blas`).
    """
    n, m, r = p.n, p.m, p.r
    checks: list[CheckResult] = []
    warnings: list[str] = []

    b_rank = numerical_rank(p.B)
    checks.append(
        CheckResult("b-full-column-rank", b_rank == m, f"rank(B)={b_rank}, m={m}")
    )

    q = numerical_rank(np.hstack([p.E, p.B]))
    checks.append(
        CheckResult(
            "finite-pole-count-bound",
            q - m <= r <= q,
            f"finite pole count r={r} must lie in [{max(q - m, 0)}, {q}] "
            f"for rank([E B])={q}, m={m}",
        )
    )

    n_inf = orthonormal_null_basis(p.E)
    stacked = np.hstack([p.E, p.A @ n_inf, p.B])
    d_rank = numerical_rank(stacked)
    checks.append(
        CheckResult(
            "infinite-pole-controllability",
            d_rank == n,
            f"rank([E, A*Ninf, B])={d_rank}, need {n}",
        )
    )

    try:
        spectrum = generalized_eig_oracle(p.A, p.E, left=True)
    except SingularPencilError:
        warnings.append("open-loop pencil is singular; eigenvalue probes skipped")
        spectrum = None
    failure = _check_e_failure(p, spectrum, n_inf.shape[1], b_rank)
    checks.append(CheckResult("finite-pole-controllability", failure is None, failure or "full row rank at all probes"))

    vals = np.array([pole.value for pole in p.finite_poles])
    # close[i, j]: requested pole j coincides with pole i (a couple counts once)
    close = np.abs(vals - vals[:, None]) <= 1e-10 * np.maximum(1.0, np.abs(vals))[:, None]
    mults = close.sum(axis=1)
    repeated = (mults > 1) & ~np.tril(close, -1).any(axis=1)  # first of each group
    for v, k in zip(vals[repeated], mults[repeated]):
        excess = f" > m={m}" if k > m else ""
        warnings.append(
            f"requested pole {complex(v):g} has multiplicity {k}{excess}; it may be "
            f"assigned as a defective eigenvalue, accurate to about "
            f"eps**(1/{k}) = {np.finfo(float).eps ** (1.0 / k):.1e}"
        )

    return ValidationReport(q=q, r=r, checks=tuple(checks), warnings=tuple(warnings))
