#!/usr/bin/env python3
"""Time ``run_pipeline`` and ``verify_solution`` as n grows; write JSON.

For every n in ``--sizes`` one instance family is drawn with
``generate_random_instance``: rank E = n/2, m = n/10, r = rank E + m (the
largest admissible pole count), trials 0 .. draws-1 of ``--seed``.  Each
draw is solved once and its solution verified once.  The median wall time
of ``run_pipeline`` is recorded, together with the median time spent in
the solver's null-space kernel (``orthonormal_null_basis`` as the solver
calls it), so the file shows where that cost dominates, and so is the
median wall time of ``verify_solution`` on the same solutions.  One more,
untimed ``run_pipeline`` call per draw runs under ``tracemalloc``, and the
median of its peak traced allocation is recorded: the memory a solve
holds at once, its returned ``Solution`` included.  A least-squares line
through (log n, log median) gives the growth exponent of each time.  The
numpy/scipy versions, their BLAS build, the BLAS thread variables and the
CPU count are recorded with the timings.

Example:
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
from schurpole import BenchConfig, generate_random_instance, verify_solution


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", type=int, nargs="+", default=[30, 60, 100, 150], help="state dimensions n")
    ap.add_argument("--draws", type=int, default=3, help="instances per n (default: 3)")
    ap.add_argument("--seed", type=int, default=0, help="base seed of the draws (default: 0)")
    ap.add_argument(
        "--out",
        type=pathlib.Path,
        default=pathlib.Path("BENCH_assign_scaling.json"),
        help="output JSON file (default: BENCH_assign_scaling.json)",
    )
    return ap.parse_args(argv)


class _KernelClock:
    """Accumulates the wall time of the solver's null-space calls."""

    def __init__(self, fn):
        self.fn = fn
        self.seconds = 0.0

    def __call__(self, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return self.fn(*args, **kwargs)
        finally:
            self.seconds += time.perf_counter() - t0


def alloc_peak_mb(prob) -> float:
    """Peak traced allocation of one ``run_pipeline`` call, in MB."""
    tracemalloc.start()
    try:
        assign.run_pipeline(prob)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def time_size(n: int, draws: int, seed: int, clock: _KernelClock) -> dict:
    rank_e, m = n // 2, max(n // 10, 1)
    cfg = BenchConfig(n=n, rank_e=rank_e, m=m, trials=draws, seed=seed)
    r = cfg.r_values[-1]
    totals, kernel, verify, peaks = [], [], [], []
    for trial in range(draws):
        prob = generate_random_instance(cfg, r=r, trial=trial)
        clock.seconds = 0.0
        t0 = time.perf_counter()
        sol = assign.run_pipeline(prob)
        totals.append(time.perf_counter() - t0)
        kernel.append(clock.seconds)
        t0 = time.perf_counter()
        verify_solution(prob, sol)
        verify.append(time.perf_counter() - t0)
        peaks.append(alloc_peak_mb(prob))
    med = statistics.median(totals)
    med_kernel = statistics.median(kernel)
    return {
        "n": n,
        "rank_e": rank_e,
        "m": m,
        "r": r,
        "run_pipeline_s": totals,
        "median_s": med,
        "null_basis_median_s": med_kernel,
        "null_basis_share": med_kernel / med,
        "verify_solution_s": verify,
        "verify_median_s": statistics.median(verify),
        "alloc_peak_mb": peaks,
        "alloc_peak_median_mb": statistics.median(peaks),
    }


def growth_exponent(rows: list[dict], key: str) -> float | None:
    """Slope of the least-squares line through (log n, log row[key])."""
    if len(rows) < 2:
        return None
    logn = np.log([row["n"] for row in rows])
    return float(np.polyfit(logn, np.log([row[key] for row in rows]), 1)[0])


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
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    clock = _KernelClock(assign.orthonormal_null_basis)
    assign.orthonormal_null_basis = clock
    # one untimed solve so that first-call costs stay out of the table
    time_size(min(args.sizes), 1, args.seed, clock)
    rows = []
    for n in args.sizes:
        row = time_size(n, args.draws, args.seed, clock)
        rows.append(row)
        print(
            f"n={n:4d}  median {row['median_s']:.3f} s  "
            f"null basis {row['null_basis_median_s']:.3f} s ({100 * row['null_basis_share']:.0f} %)  "
            f"verify {row['verify_median_s']:.3f} s  "
            f"alloc peak {row['alloc_peak_median_mb']:.1f} MB"
        )
    exponent = growth_exponent(rows, "median_s")
    verify_exponent = growth_exponent(rows, "verify_median_s")
    if exponent is not None:
        print(f"growth exponent: run_pipeline {exponent:.2f}, verify_solution {verify_exponent:.2f}")
    result = {
        "family": "generate_random_instance, rank E = n/2, m = n/10, r = rank E + m",
        "seed": args.seed,
        "draws": args.draws,
        "sizes": rows,
        "growth_exponent": exponent,
        "verify_growth_exponent": verify_exponent,
        "environment": environment(),
    }
    args.out.write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
