#!/usr/bin/env python3
"""Fingerprint the solver's answers on three fixed suites; compare two runs.

Every instance is drawn by ``generate_random_instance`` (seed 0), solved by
``run_pipeline`` and checked by ``verify_solution``.  Per instance the
digest holds the SHA-1 of each factor of the ``Solution`` (F, G, P, S, T,
X; shape and float64 bytes, so only bit-identical arrays match), the
report's ``precs`` and its verdict (``"passed"`` or the first failing
criterion).  An instance whose draw or solve raises keeps the error text
instead.  The suites:

* ``n6``: the acceptance suite of ``tests/test_acceptance.py``, every
  (rank E, m) in {2, 3, 5} x {2, 3, 4}, every admissible r, trials 0-49;
* ``sweep-n30``: every (rank E, m) in {2, 15, 29} x {2, 15, 28} at n = 30,
  every admissible r, trial 0;
* ``n100``: the (rank E, m, r) configurations (90, 2, 92), (60, 5, 65),
  (50, 10, 60), (70, 30, 100) and (40, 60, 100) at n = 100, trials 0-5.

``--against FILE`` compares the new digest with an earlier one and prints,
per suite, how many instances differ in each field: the bit-identity check
for a change that should not move the solver's answers.  Everything runs on
one BLAS thread, so a digest does not depend on the thread settings.

Example (the digest of a parent commit, then a comparison against it):
    PYTHONPATH=src python3 scripts/solver_digest.py --out before.json
    PYTHONPATH=src python3 scripts/solver_digest.py --against before.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import sys

import numpy as np

from schurpole import BenchConfig, generate_random_instance, run_pipeline, verify_solution
from schurpole.errors import SchurPoleError
from schurpole.linalg import serial_blas

FACTORS = ("F", "G", "P", "S", "T", "X")
FIELDS = FACTORS + ("precs", "verdict", "error")

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


def sha1(arr: np.ndarray) -> str:
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    return hashlib.sha1(repr(arr.shape).encode() + arr.tobytes()).hexdigest()


def digest_one(cfg: BenchConfig, r: int, trial: int) -> dict:
    try:
        problem = generate_random_instance(cfg, r, trial)
        sol = run_pipeline(problem)
    except (SchurPoleError, ValueError, np.linalg.LinAlgError) as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    rep = verify_solution(problem, sol)
    out = {name: sha1(getattr(sol, name)) for name in FACTORS}
    out["precs"] = rep.precs
    out["verdict"] = rep.failure or "passed"
    return out


def build_digest() -> dict:
    suites: dict[str, dict] = {}
    with serial_blas():
        for suite, cfg, r, trial in suite_cells():
            key = f"n={cfg.n} rankE={cfg.rank_e} m={cfg.m} r={r} trial={trial}"
            suites.setdefault(suite, {})[key] = digest_one(cfg, r, trial)
    return {"suites": suites}


def compare(new: dict, old: dict) -> list[str]:
    """One line per suite: instance count, then the count differing per field."""
    lines = []
    for suite, cells in new["suites"].items():
        before = old["suites"].get(suite, {})
        shared = [key for key in cells if key in before]
        diffs = {name: sum(cells[k].get(name) != before[k].get(name) for k in shared) for name in FIELDS}
        unmatched = len(cells) + len(before) - 2 * len(shared)
        counts = ", ".join(f"{name} {count}" for name, count in diffs.items())
        lines.append(f"{suite}: {len(shared)} instances, differing: {counts}; unmatched {unmatched}")
    return lines


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
        print("\n".join(compare(digest, json.loads(args.against.read_text()))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
