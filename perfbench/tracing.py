"""Spans and counts around the program's public functions.

The traced run swaps each traced function, in every ``schurpole`` module
that binds it, for a wrapper that records one span per call: its name, the
op it belongs to, the span that called it, and its start and end.  Spans
stay in memory until the run ends.  Nothing in the program changes; the
originals are put back when the ``Tracer`` context exits.

What tracing adds to an op is measured, not guessed: ``call_cost`` times a
wrapped no-op against the bare one, and the wrappers time their own flop
accounting (``Tracer.accounting``).
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

#: traced functions as (module, function); the span name is "<module>.<function>"
TRACED = (
    ("bench", "generate_random_instance"),
    ("problem", "validate_problem"),
    ("assign", "run_pipeline"),
    ("assign", "assign_infinite_block"),
    ("assign", "assign_real_pole"),
    ("assign", "assign_complex_pair"),
    ("assign", "complete_X"),
    ("assign", "extract_feedback"),
    ("metrics", "verify_solution"),
    ("metrics", "generalized_eig_oracle"),
    ("metrics", "index_and_regularity_check"),
    ("metrics", "eigenvector_condition"),
    ("linalg", "orthonormal_null_basis"),
    ("linalg", "numerical_rank"),
)

#: spans whose self time (inclusive time minus traced children) is reported too
SELF_TIMED = (
    "bench.generate_random_instance",
    "problem.validate_problem",
    "assign.run_pipeline",
    "metrics.verify_solution",
)

#: spans whose call count per op is reported
COUNTED = (
    "assign.assign_real_pole",
    "assign.assign_complex_pair",
    "metrics.generalized_eig_oracle",
    "linalg.orthonormal_null_basis",
    "linalg.numerical_rank",
)

NULL_BASIS = "linalg.orthonormal_null_basis"


def svd_flops(rows: int, cols: int, is_complex: bool) -> float:
    """Operation count of a full SVD with both factors, from the shape.

    Golub & Van Loan's R-SVD count ``4 p^2 q + 8 p q^2 + 9 q^3`` for the
    ``p x q`` (``p >= q``) orientation; a complex matrix counts four real
    operations per complex one.  A computed figure, not a measured one.
    """
    p, q = max(rows, cols), min(rows, cols)
    flops = 4.0 * p * p * q + 8.0 * p * q * q + 9.0 * q**3
    return 4.0 * flops if is_complex else flops


class Tracer:
    """Records spans of the traced functions while active.

    Entering the context installs the wrappers and leaving it restores the
    originals, so a run can trace some ops and leave others untouched.
    """

    def __init__(self):
        self.spans: list[tuple] = []  # (op, span_id, parent_id, name, start, end)
        self.flops: dict[int, float] = defaultdict(float)
        #: per op, seconds the wrappers spent counting flops, outside every span
        self.accounting: dict[int, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []
        modules = [mod for key, mod in sys.modules.items() if key == "schurpole" or key.startswith("schurpole.")]
        self._patches: list[tuple] = []  # (module, attribute, original, wrapper)
        for short, fname in TRACED:
            original = getattr(sys.modules[f"schurpole.{short}"], fname)
            wrapper = self._wrap(f"{short}.{fname}", original)
            for mod in modules:
                for attr, value in vars(mod).items():
                    if value is original:
                        self._patches.append((mod, attr, original, wrapper))

    def _wrap(self, name: str, fn):
        spans, stack, flops, accounting = self.spans, self._stack, self.flops, self.accounting
        clock = time.perf_counter
        null_basis = name == NULL_BASIS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            if null_basis:
                count_start = clock()
                mat = np.asarray(args[0])
                # orthonormal_null_basis skips the SVD for empty or zero input
                if mat.size and np.any(mat):
                    flops[self.op] += svd_flops(*mat.shape, np.iscomplexobj(mat))
                accounting[self.op] += clock() - count_start
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (self.op, sid, parent, name, start, end)

        return traced

    def __enter__(self):
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)
        return False


def call_cost(calls: int = 20000, repeats: int = 7) -> float:
    """Seconds a traced call adds to a call, flop accounting aside: the
    median over ``repeats`` of a wrapped no-op's time per call minus the
    bare no-op's, each over ``calls`` calls."""

    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer._wrap("calibration.noop", noop)
    clock = time.perf_counter
    diffs = []
    for _ in range(repeats):
        tracer.spans.clear()
        per_call = []
        for fn in (noop, wrapped):
            start = clock()
            for _ in range(calls):
                fn()
            per_call.append((clock() - start) / calls)
        diffs.append(per_call[1] - per_call[0])
    return sorted(diffs)[repeats // 2]


def span_table(spans, ops: list[int]) -> dict[str, dict[int, list[float]]]:
    """Per span name and op: [inclusive s, self s, calls]."""
    child_time: dict[int, float] = defaultdict(float)
    for op, sid, parent, name, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    table: dict[str, dict[int, list[float]]] = defaultdict(lambda: {op: [0.0, 0.0, 0] for op in ops})
    for op, sid, parent, name, start, end in spans:
        cell = table[name][op]
        cell[0] += end - start
        cell[1] += end - start - child_time[sid]
        cell[2] += 1
    return table


def top_level_time(spans) -> dict[int, float]:
    """Per op, the time covered by spans the benchmark called directly."""
    out: dict[int, float] = defaultdict(float)
    for op, sid, parent, name, start, end in spans:
        if parent < 0:
            out[op] += end - start
    return out
