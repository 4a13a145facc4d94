"""Independent check of a closed loop by the QZ algorithm.

The benchmark judges every answer of the program here, with its own
computation: the generalized Schur (QZ) decomposition of the closed-loop
pencil ``(A + B F, E + B G)`` from ``scipy.linalg.eig`` (LAPACK ``*ggev``)
and an SVD from ``scipy.linalg.svd``.  The solver under test
never calls QZ, and nothing here reuses its factors or its oracle.

A closed loop passes when

* the number of finite eigenvalues equals ``r``;
* ``rank(E + B G)`` equals ``r``.  For a regular pencil with ``r`` finite
  eigenvalues this is exactly the index <= 1 property: a Jordan chain at
  infinity adds rank to ``E + B G`` without adding a finite eigenvalue;
* every requested pole is matched, one to one, by a finite eigenvalue to
  at least ``MIN_DIGITS`` relative digits.

Infinite eigenvalues.  The pencil is first scaled to ``(A_c/||A_c||_F,
E_c/||E_c||_F)`` and every homogeneous pair ``(alpha, beta)`` is scaled to
unit length, so ``|beta|`` is the chordal distance of the eigenvalue from
infinity.  QZ is backward stable: the computed pairs are exact for a pencil
within about ``n * eps`` (2e-14 at n = 100) of the scaled one.  An infinite
eigenvalue of an index-1 pencil is semisimple, so it moves by at most its
condition number times that error; a finite eigenvalue ``lam`` of the scaled
pencil sits at ``|beta| ~ 1/|lam|``.  The cutoff ``|beta| <= INF_CUTOFF *
|alpha|`` with ``INF_CUTOFF = 1e-8`` thus counts as infinite every index-1
infinite eigenvalue of condition below about 1e6, and as finite every pole of
modulus below 1e8 in the scaled pencil.  On the benchmark's workloads the
largest requested pole of the scaled pencil (``max_scaled_pole``) was below
1e4, the largest ``|beta|`` counted infinite below 1e-11 and the smallest
counted finite above 1e-4 (``margins``).  Eigenvalues in
a Jordan chain at infinity move by about ``(n * eps)**(1/k)`` (1e-7 for
``k = 2``) and may fall on either side of the cutoff, which is why the index
is judged by the rank of ``E + B G``, never by the count alone.

Rank of ``E + B G``.  Singular values at or below ``RANK_RTOL`` times the
largest count as zero.  Feedback computed in floating point leaves the
``n - r`` structurally zero singular values below 1e-13 of the norm on the
benchmark's workloads, while the smallest genuine ones stayed above 1e-7 on
accepted answers (the program's own index check documents genuine values
down to a few 1e-9 on hard full-rank assignments, and a badly conditioned
n = 6 answer reached 1.6e-10); 1e-11 splits the two ranges.

The eigenvector condition is the Frobenius condition number of the
closed-loop eigenvector matrix with unit columns: the QZ right eigenvectors
of the finite eigenvalues, and an orthonormal basis of ``null(E + B G)`` for
the infinite ones.  QZ's own basis for a repeated infinite eigenvalue is
arbitrary, so it is not used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eig, svd
from scipy.optimize import linear_sum_assignment

INF_CUTOFF = 1e-8
RANK_RTOL = 1e-11
MIN_DIGITS = 6.0
#: relative error reported as 17 digits (machine precision exhausted)
_DIGITS_CAP = 17.0


@dataclass
class CheckResult:
    """Verdict on one closed loop, with the figures behind it."""

    ok: bool
    finite_count: int
    rank_ec: int
    digits: float
    eig_cond: float
    max_scaled_pole: float
    reasons: list[str] = field(default_factory=list)
    #: margins of the two cutoffs: largest |beta| counted infinite and smallest
    #: counted finite (unit pairs); largest dropped and smallest kept singular
    #: value of E + B G relative to the largest
    margins: dict = field(default_factory=dict)


def requested_values(poles) -> list[complex]:
    """Finite requested pole values, conjugates spelt out.

    ``poles`` holds objects with ``alpha`` and ``beta`` (the program's
    ``PolePair``); a pair with ``beta == 0`` is infinite and skipped, and a
    non-real value stands for itself and its conjugate.
    """
    out: list[complex] = []
    for p in poles:
        if p.beta == 0:
            continue
        lam = complex(p.alpha) / complex(p.beta)
        out.append(lam)
        if lam.imag != 0.0:
            out.append(lam.conjugate())
    return out


def _match_digits(requested: np.ndarray, computed: np.ndarray) -> float:
    """Digits of the worst one-to-one relative match (absolute at zero)."""
    if requested.size == 0:
        return _DIGITS_CAP
    den = np.abs(requested)[:, None]
    err = np.abs(requested[:, None] - computed[None, :])
    cost = np.where(den > 0, err / np.where(den > 0, den, 1.0), err)
    rows, cols = linear_sum_assignment(cost)
    worst = float(cost[rows, cols].max())
    if worst <= 10.0**-_DIGITS_CAP:
        return _DIGITS_CAP
    return -math.log10(worst)


def _frobenius_condition(x: np.ndarray) -> float:
    s = svd(x, compute_uv=False)
    if s.size == 0 or s[-1] <= 0.0:
        return math.inf
    return float(math.sqrt(np.sum(s**2)) * math.sqrt(np.sum(s**-2.0)))


def check_closed_loop(e, a, b, f, g, requested, r: int) -> CheckResult:
    """Check the closed loop of ``(E, A, B)`` under feedback ``(F, G)``.

    ``requested`` lists the ``r`` finite requested pole values, conjugates
    included.
    """
    a_c = np.asarray(a, dtype=float) + np.asarray(b, dtype=float) @ np.asarray(f, dtype=float)
    e_c = np.asarray(e, dtype=float) + np.asarray(b, dtype=float) @ np.asarray(g, dtype=float)
    req = np.asarray(requested, dtype=complex)
    reasons: list[str] = []
    if req.size != r:
        raise ValueError(f"{req.size} requested finite poles for r={r}")
    if not (np.all(np.isfinite(a_c)) and np.all(np.isfinite(e_c))):
        return CheckResult(False, 0, 0, 0.0, math.inf, math.inf, ["non-finite closed loop"])
    norm_a = float(np.linalg.norm(a_c))
    norm_e = float(np.linalg.norm(e_c))
    if norm_a == 0.0 or norm_e == 0.0:
        return CheckResult(False, 0, 0, 0.0, math.inf, math.inf, ["zero closed-loop matrix"])
    scale = norm_a / norm_e
    max_scaled = float(np.max(np.abs(req))) / scale if req.size else 0.0

    w, vr = eig(a_c / norm_a, e_c / norm_e, right=True, homogeneous_eigvals=True)
    alpha, beta = w
    length = np.hypot(np.abs(alpha), np.abs(beta))
    if np.any(length == 0.0):
        return CheckResult(False, 0, 0, 0.0, math.inf, max_scaled, ["singular pencil (alpha = beta = 0)"])
    chordal = np.abs(beta) / length
    finite = np.abs(beta) > INF_CUTOFF * np.abs(alpha)
    finite_count = int(np.count_nonzero(finite))
    if finite_count != r:
        reasons.append(f"{finite_count} finite eigenvalues, expected {r}")

    _, sv, vh = svd(e_c)
    rank_ec = int(np.count_nonzero(sv > RANK_RTOL * sv[0]))
    rel_sv = sv / sv[0]
    margins = {
        "beta_inf_max": float(chordal[~finite].max(initial=0.0)),
        "beta_fin_min": float(chordal[finite].min(initial=1.0)),
        "sv_dropped_max": float(rel_sv[rank_ec:].max(initial=0.0)),
        "sv_kept_min": float(rel_sv[:rank_ec].min(initial=1.0)),
    }
    if rank_ec != r:
        reasons.append(f"rank(E+BG)={rank_ec}, expected {r} (index > 1 or wrong count)")

    digits = 0.0
    if finite_count == r:
        lam = alpha[finite] / beta[finite] * scale
        digits = _match_digits(req, lam)
        if digits < MIN_DIGITS:
            reasons.append(f"worst requested pole matched to {digits:.2f} digits < {MIN_DIGITS:g}")

    fin_vecs = vr[:, finite]
    fin_vecs = fin_vecs / np.linalg.norm(fin_vecs, axis=0)
    null_e = vh[finite_count:].conj().T
    eig_cond = _frobenius_condition(np.hstack([fin_vecs, null_e.astype(complex)]))
    return CheckResult(not reasons, finite_count, rank_ec, digits, eig_cond, max_scaled, reasons, margins)
