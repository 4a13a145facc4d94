#!/usr/bin/env python3
"""Reproduce the benchmark sweeps and write one CSV per configuration.

Runs the random-instance benchmark for every (n, rankE, m) configuration in
the selected suite, sweeping the admissible finite-pole counts r, and stores
per-r mean metrics.  The small suite covers all nine 6-state
configurations; the large suite covers the 30-state configurations.

Example:
    python3 scripts/run_bench_sweeps.py --suite small --out results/small
    python3 scripts/run_bench_sweeps.py --suite large --trials 10
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

from schurpole import BenchConfig, run_sweep, write_csv

SMALL_SUITE = [(6, rank_e, m) for rank_e in (2, 3, 5) for m in (2, 3, 4)]
LARGE_SUITE = [(30, rank_e, m) for rank_e in (2, 15, 29) for m in (2, 15, 28)]


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--suite",
        choices=("small", "large", "both"),
        default="small",
        help="which configuration family to run (default: small)",
    )
    ap.add_argument("--trials", type=int, default=50, help="trials per (config, r)")
    ap.add_argument("--seed", type=int, default=0, help="base seed for instance draws")
    ap.add_argument(
        "--out",
        type=pathlib.Path,
        default=pathlib.Path("results"),
        help="output directory for the CSV files (default: results/)",
    )
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    configs = {
        "small": SMALL_SUITE,
        "large": LARGE_SUITE,
        "both": SMALL_SUITE + LARGE_SUITE,
    }[args.suite]
    args.out.mkdir(parents=True, exist_ok=True)

    for n, rank_e, m in configs:
        cfg = BenchConfig(n=n, rank_e=rank_e, m=m, trials=args.trials, seed=args.seed)
        t0 = time.time()
        rows = run_sweep(cfg)
        dt = time.time() - t0
        path = args.out / f"bench_n{n}_rankE{rank_e}_m{m}.csv"
        write_csv(rows, path)
        worst = max((row["mean_precs"] for row in rows), default=float("nan"))
        print(
            f"n={n:3d} rankE={rank_e:3d} m={m:3d}: {len(rows)} r-values, "
            f"worst mean precs {worst:8.2f}, {dt:6.1f}s -> {path}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
