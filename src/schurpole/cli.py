"""Command-line front end.

Three subcommands:

* ``assign``  — read a problem file, construct (F, G), print a report;
* ``bench``   — run a randomized sweep and write a CSV summary;
* ``verify``  — re-check a previously computed feedback pair.

Exit codes: 0 success, 1 usage/parse/validation failure, 2 assignment
failure, 3 verification failure.  All numeric output uses repr-faithful %.17g
formatting so runs are byte-for-byte reproducible.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .assign import run_pipeline
from .bench import BenchConfig, run_sweep, write_csv
from .errors import DegenerateStepError, ParseError
from .metrics import Report, verify_feedback, verify_solution
from .problem import parse_problem, parse_solution, validate_problem

__all__ = ["main"]

def _fmt_value(value) -> str:
    if value is None:
        return "unavailable"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _matrix_lines(mat: np.ndarray) -> list[str]:
    return [" ".join("%.17g" % v for v in row) for row in np.atleast_2d(mat)]


def _emit_report(report: Report, f, g, fmt: str, out) -> None:
    mapping = report.to_mapping()
    if fmt == "json":
        mapping["F"] = [[float(v) for v in row] for row in np.atleast_2d(f)]
        mapping["G"] = [[float(v) for v in row] for row in np.atleast_2d(g)]
        print(json.dumps(mapping, sort_keys=True), file=out)
        return
    for key, value in mapping.items():
        print(f"{key}={_fmt_value(value)}", file=out)
    print("F:", file=out)
    for line in _matrix_lines(f):
        print(line, file=out)
    print("G:", file=out)
    for line in _matrix_lines(g):
        print(line, file=out)


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_problem(path: str):
    """Parse and validate; returns (problem, None) or (None, exit_code)."""
    try:
        text = _read_text(path)
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return None, 1
    try:
        problem = parse_problem(text)
    except ParseError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return None, 1
    report = validate_problem(problem)
    for warning in report.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if not report.passed:
        for failure in report.failures():
            print(f"error: {path}: {failure.name}: {failure.detail}", file=sys.stderr)
        return None, 1
    return problem, None


def _cmd_assign(args) -> int:
    problem, code = _load_problem(args.problem)
    if problem is None:
        return code
    try:
        sol = run_pipeline(problem)
    except DegenerateStepError as exc:
        print(f"error: assignment failed: {exc}", file=sys.stderr)
        return 2
    report = verify_solution(problem, sol)
    _emit_report(report, sol.F, sol.G, args.report, sys.stdout)
    return 0 if report.passed else 3


def _cmd_bench(args) -> int:
    try:
        cfg = BenchConfig(
            n=args.n,
            rank_e=args.rankE,
            m=args.m,
            trials=args.trials,
            seed=args.seed,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rows = run_sweep(cfg)
    for row in rows:
        for trial, reason in row["errors"].items():
            print(f"failed: r={row['r']} trial={trial}: {reason}", file=sys.stderr)
    try:
        write_csv(rows, args.csv)
    except OSError as exc:
        print(f"error: cannot write {args.csv}: {exc}", file=sys.stderr)
        return 1
    total_fail = sum(row["failures"] for row in rows)
    print(
        f"wrote {len(rows)} rows to {args.csv} "
        f"({cfg.trials} trials per row, {total_fail} failures total)"
    )
    return 0


def _cmd_verify(args) -> int:
    problem, code = _load_problem(args.problem)
    if problem is None:
        return code
    try:
        text = _read_text(args.solution)
    except OSError as exc:
        print(f"error: cannot read {args.solution}: {exc}", file=sys.stderr)
        return 1
    try:
        f, g = parse_solution(text)
    except ParseError as exc:
        print(f"error: {args.solution}: {exc}", file=sys.stderr)
        return 1
    if f.shape != (problem.m, problem.n):
        print(
            f"error: {args.solution}: feedback shape {f.shape} does not match "
            f"problem dimensions m x n = {(problem.m, problem.n)}",
            file=sys.stderr,
        )
        return 1
    report = verify_feedback(problem, f, g)
    _emit_report(report, f, g, "text", sys.stdout)
    return 0 if report.passed else 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schurpole",
        description=(
            "Pole assignment for descriptor systems by proportional-plus-"
            "derivative feedback, with robustness-oriented freedom selection."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("assign", help="solve one problem file and report the feedback")
    pa.add_argument("problem", help="path to a problem file")
    pa.add_argument(
        "--report",
        choices=("text", "json"),
        default="text",
        help="report format (default text)",
    )
    pa.set_defaults(func=_cmd_assign)

    pb = sub.add_parser("bench", help="run a randomized benchmark sweep")
    pb.add_argument("--n", type=int, required=True, help="state dimension")
    pb.add_argument("--rankE", type=int, required=True, help="rank of E")
    pb.add_argument("--m", type=int, required=True, help="number of inputs")
    pb.add_argument("--trials", type=int, default=50, help="trials per pole count (default 50)")
    pb.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    pb.add_argument("--csv", required=True, help="output CSV path")
    pb.set_defaults(func=_cmd_bench)

    pv = sub.add_parser("verify", help="verify a stored feedback pair against a problem")
    pv.add_argument("problem", help="path to a problem file")
    pv.add_argument("solution", help="path to a solution file")
    pv.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which here means a failed
        # assignment; a bad command line is an input failure instead.
        return 1 if exc.code else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
