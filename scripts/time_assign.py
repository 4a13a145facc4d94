#!/usr/bin/env python3
"""Time the four stages of one assignment as n grows; write JSON.

Two instance families are drawn with ``generate_random_instance``, each at
the largest admissible pole count r = rank([E B]):

* ``few-inputs``: rank E = n/2, m = n/10, so r = rank E + m;
* ``many-inputs``: rank E = 0.4 n, m = 0.6 n, so r = n, the family of the
  slowest cell of the benchmark's ``assign-n100`` workload.

For every n of a family (``--sizes``, or the family's own sizes) trials
0 .. draws-1 of ``--seed`` go once each through the four stages of
``schurpole bench``: ``generate_random_instance``, ``validate_problem``,
``run_pipeline`` and ``verify_solution``, and the median wall time of each
stage is recorded.  So are the median times ``run_pipeline`` spends in two
parts of the solver, so the file shows where each cost dominates: the
null-space kernel (``orthonormal_null_basis`` as the solver calls it, the
tied steps' null space of their u-rows included) and the untied pairs'
choice of directions (``_complex_pair_core``, whose SVD of Z1 dominates
it).  The direction clock no longer covers the real steps' choice, one
SVD of Y inline in ``assign_real_pole`` on an untied step, nor the tied
steps' closed form, which takes no factorization.  One more,
untimed ``run_pipeline`` call per draw runs under ``tracemalloc``, and the
median of its peak traced allocation is recorded: the memory a solve holds
at once, its returned ``Solution`` included.  A least-squares line through
(log n, log median) gives the growth exponent of each stage.  The
numpy/scipy versions, their BLAS build, the BLAS thread variables, the
thread count of each OpenBLAS that numpy and scipy bundle, and the CPU
count are recorded with the timings.  All four stages run on one BLAS
thread whatever those counts are.

Example (the committed file was written with the default BLAS threads):
    PYTHONPATH=src python3 scripts/time_assign.py --out BENCH_assign_scaling.json
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import sys
import time
import tracemalloc

import numpy as np
import scipy

import schurpole.assign as assign
from schurpole import BenchConfig, generate_random_instance, validate_problem, verify_solution
from schurpole.linalg import openblas_threads

STAGES = ("generate_random_instance", "validate_problem", "run_pipeline", "verify_solution")
#: family name -> ((rank E, m) of n, default sizes, description)
FAMILIES = {
    "few-inputs": (
        lambda n: (n // 2, max(n // 10, 1)),
        (30, 60, 100, 150, 200, 300),
        "rank E = n/2, m = n/10, r = rank E + m",
    ),
    "many-inputs": (lambda n: (2 * n // 5, 3 * n // 5), (100, 200, 300), "rank E = 0.4 n, m = 0.6 n, r = n"),
}
#: the solver's parts that are clocked: the null-space kernel, and the
#: direction choice
KERNEL = ("orthonormal_null_basis",)
DIRECTIONS = ("_complex_pair_core",)


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", type=int, nargs="+", help="state dimensions n (default: each family's own)")
    ap.add_argument("--draws", type=int, default=3, help="instances per n (default: 3)")
    ap.add_argument("--seed", type=int, default=0, help="base seed of the draws (default: 0)")
    ap.add_argument(
        "--out",
        type=pathlib.Path,
        default=pathlib.Path("BENCH_assign_scaling.json"),
        help="output JSON file (default: BENCH_assign_scaling.json)",
    )
    return ap.parse_args(argv)


class _Clock:
    """Accumulates the wall time of the solver functions it rebinds in
    ``schurpole.assign``; the parts clocked are never nested."""

    def __init__(self, names):
        self.seconds = 0.0
        for name in names:
            setattr(assign, name, self._timed(getattr(assign, name)))

    def _timed(self, fn):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - t0

        return timed


def alloc_peak_mb(prob) -> float:
    """Peak traced allocation of one ``run_pipeline`` call, in MB."""
    tracemalloc.start()
    try:
        assign.run_pipeline(prob)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def time_size(family: str, n: int, draws: int, seed: int, kernel: _Clock, directions: _Clock) -> dict:
    rank_e, m = FAMILIES[family][0](n)
    cfg = BenchConfig(n=n, rank_e=rank_e, m=m, trials=draws, seed=seed)
    r = cfg.r_values[-1]
    times: dict[str, list[float]] = {stage: [] for stage in STAGES}
    parts: dict[str, list[float]] = {"null_basis": [], "directions": []}
    peaks = []

    def timed(stage, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        times[stage].append(time.perf_counter() - t0)
        return out

    for trial in range(draws):
        prob = timed("generate_random_instance", generate_random_instance, cfg, r, trial)
        timed("validate_problem", validate_problem, prob)
        kernel.seconds = directions.seconds = 0.0
        sol = timed("run_pipeline", assign.run_pipeline, prob)
        parts["null_basis"].append(kernel.seconds)
        parts["directions"].append(directions.seconds)
        timed("verify_solution", verify_solution, prob, sol)
        peaks.append(alloc_peak_mb(prob))
    solve = statistics.median(times["run_pipeline"])
    row = {
        "n": n,
        "rank_e": rank_e,
        "m": m,
        "r": r,
        "stages": {stage: {"s": ts, "median_s": statistics.median(ts)} for stage, ts in times.items()},
    }
    for part, ts in parts.items():
        row[f"{part}_median_s"] = statistics.median(ts)
        row[f"{part}_share"] = statistics.median(ts) / solve
    row["alloc_peak_mb"] = peaks
    row["alloc_peak_median_mb"] = statistics.median(peaks)
    return row


def growth_exponent(rows: list[dict], stage: str) -> float | None:
    """Slope of the least-squares line through (log n, log median) of a stage."""
    if len(rows) < 2:
        return None
    logn = np.log([row["n"] for row in rows])
    medians = [row["stages"][stage]["median_s"] for row in rows]
    return float(np.polyfit(logn, np.log(medians), 1)[0])


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_thread_env": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "openblas_threads": openblas_threads(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    kernel, directions = _Clock(KERNEL), _Clock(DIRECTIONS)
    families = []
    for family in FAMILIES:
        sizes = args.sizes or FAMILIES[family][1]
        # one untimed solve so that first-call costs stay out of the table
        time_size(family, min(sizes), 1, args.seed, kernel, directions)
        rows = []
        for n in sizes:
            row = time_size(family, n, args.draws, args.seed, kernel, directions)
            rows.append(row)
            medians = "  ".join(f"{stage} {row['stages'][stage]['median_s']:.3f} s" for stage in STAGES)
            print(
                f"{family} n={n:4d} m={row['m']:3d}  {medians}  "
                f"null basis {row['null_basis_median_s']:.3f} s ({100 * row['null_basis_share']:.0f} %)  "
                f"directions {row['directions_median_s']:.3f} s ({100 * row['directions_share']:.0f} % of the solve)  "
                f"alloc peak {row['alloc_peak_median_mb']:.1f} MB"
            )
        exponents = {stage: growth_exponent(rows, stage) for stage in STAGES}
        if len(rows) > 1:
            print(f"{family} growth exponents: " + ", ".join(f"{stage} {x:.2f}" for stage, x in exponents.items()))
        families.append(
            {"name": family, "family": FAMILIES[family][2], "sizes": rows, "growth_exponents": exponents}
        )
    result = {"seed": args.seed, "draws": args.draws, "families": families, "environment": environment()}
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
