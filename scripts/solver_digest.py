#!/usr/bin/env python3
"""Fingerprint the answers of all four stages on five fixed suites; compare two runs.

Every instance goes through the stages of a sweep op: it is drawn by
``generate_random_instance`` (seed 0), checked by ``validate_problem``,
solved by ``run_pipeline`` and verified by ``verify_solution``.  Per
instance the digest holds the SHA-1 of the drawn E, A and B and of the
repr of its poles, ``validate_problem``'s whole report (q, r, every check
and warning), the SHA-1 of each factor of the ``Solution`` (F, G, P, S, T,
X; shape and float64 bytes, so only bit-identical arrays match), and the
repr of every field of ``verify_solution``'s ``Report`` (``report.precs``,
``report.failure``, ...; a repr matches only the same float).  An instance
that fails validation stops there, as a sweep op does; one whose draw or
solve raises keeps the error text in place of what it did not reach.  The
suites:

* ``n6``: the acceptance suite of ``tests/test_acceptance.py``, every
  (rank E, m) in {2, 3, 5} x {2, 3, 4}, every admissible r, trials 0-49;
* ``sweep-n30``: every (rank E, m) in {2, 15, 29} x {2, 15, 28} at n = 30,
  every admissible r, trial 0;
* ``n100``: the (rank E, m, r) configurations (90, 2, 92), (60, 5, 65),
  (50, 10, 60), (70, 30, 100) and (40, 60, 100) at n = 100, trials 0-5;
* ``uncontrollable``: the ``sweep-n30`` cells with one uncontrollable mode
  injected (``inject_uncontrollable_mode``), a real one in the cells of
  even r and a conjugate couple in the others, so every instance fails
  check (e) of ``validate_problem``, the path the three suites above, all
  feasible, never reach.  Each injected mode is isolated, so check (e)
  fails it by its left eigenvector's blindness to range(B), without a
  rank probe; this is the only suite on which validation forms a basis
  of range(B);
* ``m1``: n = 6 with a single input, rank E in {2, 3, 5}, every
  admissible r, trials 0-9: the only suite whose complex steps take the
  rank-1 branch of the pair choice.

``--against FILE`` compares the new digest with an earlier one and prints,
per suite, how many instances differ in each field: the bit-identity check
for a change that should not move any stage's answers.  It exits with
status 1 when any instance differs in any field or is in only one of the
two digests, and 0 otherwise, so it can serve as a gate.  For a change
that moves answers on purpose it also prints, per suite, how the
instances whose factors differ fare on each side: how many went from
passing verification (``report.failure`` None) to failing it, and back
(an instance without a report counts as failing); each side's worst
``report.precs``; and the paired median change of log10
``report.kappa_eigvec``, with how many went down.  Compare only
digests made by the same version of this script.  Everything runs on
one BLAS thread, so a digest does not depend on the thread settings.

Example (the digest of a parent commit, then a comparison against it):
    PYTHONPATH=src python3 scripts/solver_digest.py --out before.json
    PYTHONPATH=src python3 scripts/solver_digest.py --against before.json
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import pathlib
import statistics
import sys

import numpy as np

from schurpole import (
    BenchConfig,
    Problem,
    Report,
    generate_random_instance,
    run_pipeline,
    validate_problem,
    verify_solution,
)
from schurpole.errors import SchurPoleError
from schurpole.linalg import serial_blas

INPUTS = ("E", "A", "B")
FACTORS = ("F", "G", "P", "S", "T", "X")
REPORT_FIELDS = tuple(f"report.{f.name}" for f in dataclasses.fields(Report))
FIELDS = INPUTS + ("poles", "validation") + FACTORS + REPORT_FIELDS + ("error",)

N100_CONFIGS = ((90, 2, 92), (60, 5, 65), (50, 10, 60), (70, 30, 100), (40, 60, 100))


def suite_cells():
    """(suite, config, r, trial) of every instance, suite by suite."""
    for rank_e in (2, 3, 5):
        for m in (2, 3, 4):
            cfg = BenchConfig(n=6, rank_e=rank_e, m=m, trials=50, seed=0)
            for r in cfg.r_values:
                for trial in range(50):
                    yield "n6", cfg, r, trial
    for rank_e in (2, 15, 29):
        for m in (2, 15, 28):
            cfg = BenchConfig(n=30, rank_e=rank_e, m=m, trials=1, seed=0)
            for r in cfg.r_values:
                yield "sweep-n30", cfg, r, 0
    for rank_e, m, r in N100_CONFIGS:
        cfg = BenchConfig(n=100, rank_e=rank_e, m=m, trials=6, seed=0)
        for trial in range(6):
            yield "n100", cfg, r, trial
    for rank_e in (2, 15, 29):
        for m in (2, 15, 28):
            cfg = BenchConfig(n=30, rank_e=rank_e, m=m, trials=1, seed=0)
            for r in cfg.r_values:
                yield "uncontrollable", cfg, r, 0
    for rank_e in (2, 3, 5):
        cfg = BenchConfig(n=6, rank_e=rank_e, m=1, trials=10, seed=0)
        for r in cfg.r_values:
            for trial in range(10):
                yield "m1", cfg, r, trial


def inject_uncontrollable_mode(problem: Problem, seed) -> Problem:
    """``problem`` with one mode made uncontrollable: a real eigenvalue for
    even r, a conjugate couple for odd r, drawn from ``seed``.

    For an orthonormal n x k basis W (k = 1 or 2) and a k x k matrix S
    with the mode's eigenvalues, A + W (S W^T E - W^T A) has W^T A = S W^T E,
    so each left eigenvector y of S gives a left eigenvector W y of the
    pencil at that eigenvalue; B - W W^T B is blind to it.
    """
    rng = np.random.default_rng(seed)
    k = 1 if problem.r % 2 == 0 else 2
    w = np.linalg.qr(rng.standard_normal((problem.n, k)))[0]
    sigma, omega = rng.standard_normal(2)
    s = np.array([[sigma]]) if k == 1 else np.array([[sigma, omega], [-omega, sigma]])
    a = problem.A + w @ (s @ (w.T @ problem.E) - w.T @ problem.A)
    b = problem.B - w @ (w.T @ problem.B)
    return Problem(E=problem.E, A=a, B=b, poles=problem.poles, r=problem.r)


def sha1(arr: np.ndarray) -> str:
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    return hashlib.sha1(repr(arr.shape).encode() + arr.tobytes()).hexdigest()


def validation_text(rep) -> str:
    """A ``validate_problem`` report, whole, as one string."""
    checks = "; ".join(f"{c.name} {c.passed} {c.detail}" for c in rep.checks)
    return f"q={rep.q} r={rep.r} checks: {checks} warnings: {' | '.join(rep.warnings)}"


def digest_one(suite: str, cfg: BenchConfig, r: int, trial: int) -> dict:
    out: dict = {}
    try:
        problem = generate_random_instance(cfg, r, trial)
        if suite == "uncontrollable":
            problem = inject_uncontrollable_mode(problem, (cfg.rank_e, cfg.m, r))
        out.update({name: sha1(getattr(problem, name)) for name in INPUTS})
        out["poles"] = hashlib.sha1(repr(problem.poles).encode()).hexdigest()
        report = validate_problem(problem)
        out["validation"] = validation_text(report)
        if not report.passed:
            return out
        sol = run_pipeline(problem)
    except (SchurPoleError, ValueError, np.linalg.LinAlgError) as exc:
        out["error"] = f"{type(exc).__name__}: {exc}"
        return out
    out.update({name: sha1(getattr(sol, name)) for name in FACTORS})
    rep = verify_solution(problem, sol)
    out.update({field: repr(getattr(rep, field[len("report.") :])) for field in REPORT_FIELDS})
    return out


def build_digest() -> dict:
    suites: dict[str, dict] = {}
    with serial_blas():
        for suite, cfg, r, trial in suite_cells():
            key = f"n={cfg.n} rankE={cfg.rank_e} m={cfg.m} r={r} trial={trial}"
            suites.setdefault(suite, {})[key] = digest_one(suite, cfg, r, trial)
    return {"suites": suites}


def _number(cell: dict, name: str) -> float:
    """A float field of a digest cell (its repr), NaN where it is absent."""
    try:
        return float(cell[name])
    except (KeyError, ValueError):
        return math.nan


def moved_answers(cells: dict, before: dict, keys: list[str]) -> str:
    """How the instances ``keys``, whose factors differ, fare in the new
    digest ``cells`` against the old one ``before``."""
    failed = [[cell[k].get("report.failure") != "None" for k in keys] for cell in (before, cells)]
    gained = sum(new and not old for old, new in zip(*failed))
    lost = sum(old and not new for old, new in zip(*failed))
    worst = [
        max((x for k in keys if not math.isnan(x := _number(cell[k], "report.precs"))), default=math.nan)
        for cell in (before, cells)
    ]
    shifts = [
        math.log10(new) - math.log10(old)
        for k in keys
        if 0.0 < (old := _number(before[k], "report.kappa_eigvec")) < math.inf
        and 0.0 < (new := _number(cells[k], "report.kappa_eigvec")) < math.inf
    ]
    kappa = "n/a"
    if shifts:
        kappa = f"{statistics.median(shifts):+.3f} over {len(shifts)}, down on {sum(x < 0 for x in shifts)}"
    return (
        f"{len(keys)} with differing factors: report.failure None->fail {gained}, fail->None {lost}; "
        f"worst report.precs {worst[0]:.3g} -> {worst[1]:.3g}; "
        f"paired median dlog10 report.kappa_eigvec {kappa}"
    )


def compare(new: dict, old: dict) -> tuple[list[str], int]:
    """One line per suite (instance count, then the count differing per
    field), followed by ``moved_answers`` where factors differ, and the
    number of instances that differ or are unmatched."""
    lines, mismatched = [], 0
    for suite in dict.fromkeys([*new["suites"], *old["suites"]]):
        cells, before = new["suites"].get(suite, {}), old["suites"].get(suite, {})
        shared = [key for key in cells if key in before]
        diffs = {name: sum(cells[k].get(name) != before[k].get(name) for k in shared) for name in FIELDS}
        unmatched = len(cells) + len(before) - 2 * len(shared)
        mismatched += unmatched + sum(cells[k] != before[k] for k in shared)
        counts = ", ".join(f"{name} {count}" for name, count in diffs.items())
        lines.append(f"{suite}: {len(shared)} instances, differing: {counts}; unmatched {unmatched}")
        moved = [k for k in shared if any(cells[k].get(name) != before[k].get(name) for name in FACTORS)]
        if moved:
            lines.append(f"{suite}: {moved_answers(cells, before, moved)}")
    return lines, mismatched


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=pathlib.Path, help="write the digest here (default: stdout, unless --against)")
    ap.add_argument("--against", type=pathlib.Path, help="an earlier digest to compare with")
    args = ap.parse_args(argv)
    digest = build_digest()
    if args.out is not None:
        args.out.write_text(json.dumps(digest, indent=1) + "\n")
    elif args.against is None:
        json.dump(digest, sys.stdout, indent=1)
        print()
    if args.against is not None:
        lines, mismatched = compare(digest, json.loads(args.against.read_text()))
        print("\n".join(lines))
        return 1 if mismatched else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
