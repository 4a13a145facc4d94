#!/usr/bin/env python3
"""Self-test of the QZ checker: it must accept right answers and reject wrong ones.

Run from the root of a checkout:

    python3 perfbench/selftest_checker.py

Hand-made closed loops use ``B = I``, so any closed-loop pencil is reached by
``F = A_c - A``, ``G = E_c - E``; a right answer is then perturbed in one way
at a time.  A solution of the program itself is checked as well.  Exits 1 if
any case gets the wrong verdict.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from checker import check_closed_loop, requested_values  # noqa: E402

N = 8
REAL_POLES = (-1.0, -2.5, 0.5, 3.0)
PAIR = (-0.5, 2.0)  # -0.5 +/- 2i


def hand_made(rng, *, index2: bool = False, drop: bool = False):
    """(E, A, B, F, G, requested, r) for a B = I closed loop with known spectrum.

    The closed loop is U (S, T) V with block-diagonal (S, T): the finite
    poles on T = I, and N - r infinite poles as S = I, T = 0.  ``index2``
    puts a nilpotent Jordan block in T's infinite part (index 2, same finite
    poles); ``drop`` makes the last real requested pole infinite instead.
    """
    re, im = PAIR
    requested = [*REAL_POLES, complex(re, im), complex(re, -im)]
    r = len(requested)
    s = np.zeros((N, N))
    t = np.zeros((N, N))
    for k, lam in enumerate(REAL_POLES):
        s[k, k] = lam
        t[k, k] = 1.0
    k = len(REAL_POLES)
    s[k : k + 2, k : k + 2] = [[re, im], [-im, re]]
    t[k : k + 2, k : k + 2] = np.eye(2)
    s[r:, r:] = np.eye(N - r)
    if index2:
        t[r, r + 1] = 1.0
    if drop:
        k = len(REAL_POLES) - 1
        s[k, k], t[k, k] = 1.0, 0.0
    u = np.linalg.qr(rng.standard_normal((N, N)))[0]
    v = rng.standard_normal((N, N)) + 3.0 * np.eye(N)
    a_c, e_c = u @ s @ v, u @ t @ v
    e = rng.standard_normal((N, 3)) @ rng.standard_normal((3, N))
    a = rng.standard_normal((N, N))
    return e, a, np.eye(N), a_c - a, e_c - e, requested, r


def program_solution():
    """A cell of the paper's n = 6 family solved by the program: (E, A, B, F, G, requested, r)."""
    from schurpole import BenchConfig, generate_random_instance, run_pipeline

    cfg = BenchConfig(n=6, rank_e=3, m=2, seed=7)
    problem = generate_random_instance(cfg, r=5, trial=0)
    sol = run_pipeline(problem)
    return problem.E, problem.A, problem.B, sol.F, sol.G, requested_values(problem.poles), problem.r


def perturbed_f(case, rng, rel=1e-4):
    e, a, b, f, g, req, r = case
    return e, a, b, f + rel * np.linalg.norm(f) * rng.standard_normal(f.shape), g, req, r


def main() -> int:
    rng = np.random.default_rng(20161)
    good = hand_made(rng)
    prog = program_solution()
    cases = [
        ("hand-made right answer", good, True, None),
        ("program's own answer (n=6)", prog, True, None),
        ("perturbed F", perturbed_f(good, rng), False, "digits"),
        ("perturbed F on the program's answer", perturbed_f(prog, rng), False, "digits"),
        ("G that raises the index to 2", hand_made(np.random.default_rng(20161), index2=True), False, "rank"),
        ("requested pole dropped (assigned infinite)", hand_made(np.random.default_rng(20161), drop=True), False, "finite"),
    ]
    wrong = 0
    for label, case, want_ok, want_reason in cases:
        res = check_closed_loop(*case)
        right = res.ok == want_ok
        if want_reason is not None:
            right = right and any(want_reason in reason for reason in res.reasons)
        wrong += not right
        verdict = "accepted" if res.ok else "rejected: " + "; ".join(res.reasons)
        print(f"{'ok  ' if right else 'FAIL'} {label}: {verdict} (digits {res.digits:.1f}, eig_cond {res.eig_cond:.3g})")
    print(f"{len(cases) - wrong} of {len(cases)} cases right")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
