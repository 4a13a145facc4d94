#!/usr/bin/env python3
"""Benchmark of schurpole: one workload, one process, one caller.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep-n30 --seed 0 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures the
per-layer ones, tracing every op (and timing each once untraced beside it,
which gives the tracing overhead).  Both check every answer with the QZ
checker in ``checker.py``.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller
record goes to ``perfbench_result_<workload>.json`` (untraced) or
``perfbench_trace_<workload>.json`` (traced) at the root of the checkout.

The program is imported from ``src/`` of the checkout; without it the
benchmark stops with exit code 2.  No BLAS thread variable is set: the
thread counts found are recorded in the result file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("sweep-n30", "assign-n100")
#: set-up is measured this many times per untraced run, in fresh processes
SETUP_PROBES = 5
#: ops whose run_pipeline allocation peak the traced run measures
ALLOC_OPS = 5
READY = "perfbench-ready"


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    ap.add_argument("--seconds", type=float, default=40.0, help="measuring time in seconds (default 40)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not args.seconds > 0:
        ap.error("--seconds must be > 0")
    return args


def import_program() -> float:
    """Import schurpole from the checkout's src/; returns the seconds taken."""
    if not (SRC / "schurpole" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import schurpole  # noqa: F401

    seconds = time.perf_counter() - start
    if Path(schurpole.__file__).resolve().parent != SRC / "schurpole":
        print(f"perfbench: imported schurpole from {schurpole.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return seconds


def blas_info() -> dict:
    """OpenBLAS builds and thread counts of numpy and scipy, as found."""
    import ctypes
    import glob

    import numpy
    import scipy

    info = {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libs / "*openblas*"))):
            lib = ctypes.CDLL(path)
            for suffix in ("64_", ""):
                try:
                    threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
                    config = getattr(lib, f"scipy_openblas_get_config{suffix}")
                except AttributeError:
                    continue
                threads.restype = ctypes.c_int
                threads.argtypes = []
                config.restype = ctypes.c_char_p
                config.argtypes = []
                info[f"{pkg.__name__}_blas"] = {"config": config().decode(), "threads": threads()}
                break
    return info


def percentile(values, q: float) -> float:
    # numpy is imported here, after the program, so setup.import_s includes it
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def run_rounds(workload, seconds: float, run_op) -> tuple[list, float]:
    """Whole rounds of ``run_op(i)`` for about ``seconds``: at least one, and
    another only while the last round's duration still fits.  Returns the
    (op index, result) pairs and the wall time."""
    results = []
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        for i in range(len(workload)):
            results.append((i, run_op(i)))
        end = time.perf_counter()
        if end - begin + (end - start) > seconds:
            return results, end - begin


def accuracy(results, round_len: int) -> tuple[list[float], list[float]]:
    """Digits and log10 eigenvector condition of the first round's answers."""
    digits, cond = [], []
    for i, res in results[:round_len]:
        if res.check is not None:
            digits.append(res.check.digits)
            cond.append(math.log10(res.check.eig_cond))
    return digits, cond


def margins(results) -> dict:
    """How close the checker's cutoffs came to deciding otherwise, over the run."""
    checks = [res.check for _, res in results if res.check is not None]
    if not checks:
        return {}
    out = {"max_scaled_pole": max(c.max_scaled_pole for c in checks)}
    for key, pick in (("beta_inf_max", max), ("beta_fin_min", min), ("sv_dropped_max", max), ("sv_kept_min", min)):
        out[key] = pick(c.margins[key] for c in checks)
    return out


def verdict(results) -> tuple[bool, int, dict, list[str]]:
    """(correct, failed, counts, notes) over a run's ops.

    An op fails when the program raises (it gave no answer), when the QZ
    check and the program's ``verify_solution`` both reject its answer (the
    program reports a failed trial itself, as ``schurpole bench`` does), and
    when ``validate_problem`` or ``verify_solution`` rejects what the QZ check
    accepts (a false reject).  The last two are also counted, under
    ``qz_rejects`` and per check.  A run is incorrect when the QZ check
    rejects an answer that the program accepted.
    """
    failed = 0
    counts = {"qz_rejects": 0, "validate_problem": 0, "verify_solution": 0}
    notes = []
    correct = True
    for i, res in results:
        if res.error is not None:
            failed += 1
            notes.append(f"op {i} failed: {res.error}")
        elif not res.check.ok and "verify_solution" in res.rejected_by:
            failed += 1
            counts["qz_rejects"] += 1
            notes.append(f"op {i} failed: verify_solution and the QZ check reject it: {'; '.join(res.check.reasons)}")
        elif not res.check.ok:
            correct = False
            notes.append(f"op {i} wrong answer: {'; '.join(res.check.reasons)}")
        elif res.rejected_by:
            failed += 1
            for check in res.rejected_by:
                counts[check] += 1
                notes.append(f"op {i} failed: {check} rejects what the QZ check accepts")
    return correct, failed, counts, notes


def setup_seconds(args) -> list[float]:
    """Process start to ready-for-the-first-timed-op, in fresh processes."""
    out = []
    cmd = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--setup-probe",
    ]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline().strip()
            ready = time.perf_counter() - start
            proc.stdout.read()
            rc = proc.wait()
        if line != READY or rc != 0:
            raise RuntimeError(f"set-up probe failed (exit {rc}, said {line!r})")
        out.append(ready)
    return out


def measure_untraced(args, workload) -> dict:
    results, wall = run_rounds(workload, args.seconds, workload.run)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    times = [res.seconds for _, res in results]
    correct, failed, counts, notes = verdict(results)
    digits, cond = accuracy(results, len(workload))
    if not digits:
        raise RuntimeError("no op of the first round gave an answer")
    setups = setup_seconds(args)
    metrics = {
        "setup_s": (percentile(setups, 50), "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "op_ms.p50": (percentile(times, 50) * 1e3, "ms"),
        "op_ms.p90": (percentile(times, 90) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "pole_digits.p10": (percentile(digits, 10), "digits"),
        "eig_cond_log10.p50": (percentile(cond, 50), "log10"),
    }
    record = {
        "wall_s": wall,
        "rounds": len(results) // len(workload),
        "checker_margins": margins(results),
        "counts": counts,
        "setup_probes_s": setups,
        "op_ms": [t * 1e3 for t in times],
        "notes": notes,
    }
    return {"correct": correct, "attempted": len(results), "failed": failed, "metrics": metrics, "record": record}


def measure_traced(args, workload, import_s: float) -> dict:
    import tracemalloc

    import schurpole.assign as sp_assign
    from tracing import COUNTED, NULL_BASIS, SELF_TIMED, TRACED, Tracer, call_cost, span_table, top_level_time

    tracer = Tracer()
    plain_results: list = []
    traced_ms: list[float] = []
    plain_ms: list[float] = []
    traced_index: list[int] = []  # the round's op index of each traced op

    def paired(i: int):
        # each op runs untraced and traced back to back, alternating which goes first
        k = len(traced_ms)
        tracer.op = k
        first_traced = k % 2 == 1
        for traced in (first_traced, not first_traced):
            if traced:
                with tracer:
                    res = workload.run(i)
                traced_ms.append(res.seconds * 1e3)
                traced_res = res
            else:
                res = workload.run(i)
                plain_ms.append(res.seconds * 1e3)
                plain_results.append((i, res))
        traced_index.append(i)
        return traced_res

    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    results, wall = run_rounds(workload, args.seconds, paired)
    results += plain_results
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)

    alloc_mb = []
    for i in range(min(ALLOC_OPS, len(workload))):
        problem = workload.problem(i)
        tracemalloc.start()
        try:
            sp_assign.run_pipeline(problem)
            alloc_mb.append(tracemalloc.get_traced_memory()[1] / 2**20)
        finally:
            tracemalloc.stop()

    per_call_s = call_cost()
    correct, failed, counts, notes = verdict(results)
    ops = len(traced_ms)
    traced_ops = range(ops)
    table = span_table(tracer.spans, traced_ops)
    metrics = {"setup.import_s": (import_s, "s")}
    for short, fname in TRACED:
        name = f"{short}.{fname}"
        cells = table[name]
        metrics[f"{name}.ms_per_op"] = (percentile([cells[k][0] for k in traced_ops], 50) * 1e3, "ms")
        if name in SELF_TIMED:
            metrics[f"{name}.self_ms_per_op"] = (percentile([cells[k][1] for k in traced_ops], 50) * 1e3, "ms")
        if name in COUNTED:
            metrics[f"{name}.calls_per_op"] = (sum(cells[k][2] for k in traced_ops) / ops, "count")
        if name == NULL_BASIS:
            metrics[f"{name}.mflop_est_per_op"] = (sum(tracer.flops.values()) / 1e6 / ops, "Mflop")
        if fname in ("validate_problem", "verify_solution"):
            metrics[f"{name}.false_rejects_per_op"] = (counts[fname] / len(results), "count")
        if name == "assign.run_pipeline":
            metrics[f"{name}.alloc_peak_mb"] = (percentile(alloc_mb, 50), "MB")
    covered = top_level_time(tracer.spans)
    spans_in_op = Counter(span[0] for span in tracer.spans)
    metrics["check.qz_rejects_per_op"] = (counts["qz_rejects"] / len(results), "count")
    metrics["process.cpu_per_wall"] = (cpu / wall, "1")
    metrics["trace.overhead_ms_per_op"] = (
        percentile([(spans_in_op[k] * per_call_s + tracer.accounting[k]) * 1e3 for k in traced_ops], 50),
        "ms",
    )
    metrics["trace.paired_diff_ms_per_op"] = (percentile([t - u for t, u in zip(traced_ms, plain_ms)], 50), "ms")
    metrics["trace.unaccounted_ms_per_op"] = (
        percentile([traced_ms[k] - covered[k] * 1e3 for k in traced_ops], 50),
        "ms",
    )
    trace_file = {
        "span_fields": ["op", "id", "parent", "name", "start_us", "dur_us"],
        "spans": [
            [op, sid, parent, name, round(start * 1e6, 1), round((end - start) * 1e6, 1)]
            for op, sid, parent, name, start, end in tracer.spans
        ],
        "op_index": traced_index,
        "traced_op_ms": traced_ms,
        "untraced_op_ms": plain_ms,
        "alloc_peak_mb": alloc_mb,
    }
    record = {
        "wall_s": wall,
        "rounds": ops // len(workload),
        "checker_margins": margins(results),
        "notes": notes,
        "trace": trace_file,
    }
    return {"correct": correct, "attempted": len(results), "failed": failed, "metrics": metrics, "record": record}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_program()
    sys.path.insert(0, str(HERE))
    from workloads import make_workload

    workload = make_workload(args.workload, args.seed)
    warm = workload.run(0)
    if args.setup_probe:
        print(READY, flush=True)
        return 0
    if warm.error is not None:
        print(f"perfbench: warm-up op failed: {warm.error}", file=sys.stderr)

    if args.trace:
        out = measure_traced(args, workload, import_s)
    else:
        out = measure_untraced(args, workload)
    record = out.pop("record")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in out["metrics"].items()}
    summary = {"correct": out["correct"], "attempted": out["attempted"], "failed": out["failed"], "metrics": metrics}
    kind = "trace" if args.trace else "result"
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "round_ops": [workload.describe(i) for i in range(len(workload))],
        "environment": blas_info(),
        **summary,
        **record,
    }
    (ROOT / f"perfbench_{kind}_{args.workload}.json").write_text(json.dumps(detail) + "\n")
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    for note in record["notes"][:20]:
        print(note)
    print(f"{args.workload}: attempted {out['attempted']}, failed {out['failed']}, correct {out['correct']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
