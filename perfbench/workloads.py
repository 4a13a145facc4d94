"""The benchmark's workloads: a round of ops, their inputs, and one op.

Every workload is a closed loop with one caller: the next op starts when
the last one has returned.  A run repeats whole rounds, and a round is the
same list of ops every time, fixed by the workload and its seed.

``sweep-n30`` walks the paper's large random family cell by cell, the way
``schurpole bench`` does: ``generate_random_instance`` ->
``validate_problem`` -> ``run_pipeline`` -> ``verify_solution``.
``assign-n100`` times ``run_pipeline`` alone on n = 100 instances that the
benchmark draws itself.  Every answer is checked by ``checker``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg

import schurpole.assign as sp_assign
import schurpole.bench as sp_bench
import schurpole.metrics as sp_metrics
import schurpole.problem as sp_problem
from schurpole.errors import SchurPoleError
from schurpole.poles import PolePair

from checker import CheckResult, check_closed_loop, requested_values

#: errors that end one op as failed; anything else is a fault of the benchmark
OP_ERRORS = (SchurPoleError, ValueError, np.linalg.LinAlgError)

#: the paper's n = 30 family: rank(E) values and m values, every admissible r
N30 = 30
N30_RANKS = (2, 15, 29)
N30_INPUTS = (2, 15, 28)

#: n = 100 instances as (rank(E), m, r): few inputs first, then many
N100 = 100
N100_CONFIGS = ((90, 2, 92), (60, 5, 65), (50, 10, 60), (70, 30, 100), (40, 60, 100))
#: draws per configuration in one round
N100_DRAWS = 6


@dataclass
class OpResult:
    """One op: its time, why it failed (None if it did not), the QZ check,
    and which of the program's own checks rejected the instance or answer."""

    seconds: float
    error: str | None
    check: CheckResult | None
    rejected_by: tuple[str, ...] = ()


class SweepWorkload:
    """Cells of the n = 30 family, trial 0: every (rank(E), m, admissible r)."""

    name = "sweep-n30"

    def __init__(self, seed: int):
        self.ops = []
        for rank_e in N30_RANKS:
            for m in N30_INPUTS:
                cfg = sp_bench.BenchConfig(n=N30, rank_e=rank_e, m=m, trials=1, seed=seed)
                self.ops.extend((cfg, r) for r in cfg.r_values)

    def __len__(self) -> int:
        return len(self.ops)

    def describe(self, i: int) -> str:
        cfg, r = self.ops[i]
        return f"n={cfg.n} rankE={cfg.rank_e} m={cfg.m} r={r} trial=0"

    def problem(self, i: int):
        """The op's instance, drawn by the program (for untimed passes)."""
        cfg, r = self.ops[i]
        return sp_bench.generate_random_instance(cfg, r, 0)

    def run(self, i: int) -> OpResult:
        cfg, r = self.ops[i]
        rejected_by = []
        start = time.perf_counter()
        try:
            problem = sp_bench.generate_random_instance(cfg, r, 0)
            # A rejection is recorded and the op goes on, so that the answer
            # is still checked and a false reject can be told apart.
            if not sp_problem.validate_problem(problem).passed:
                rejected_by.append("validate_problem")
            sol = sp_assign.run_pipeline(problem)
            if not sp_metrics.verify_solution(problem, sol).passed:
                rejected_by.append("verify_solution")
        except OP_ERRORS as exc:
            return OpResult(time.perf_counter() - start, f"{type(exc).__name__}: {exc}", None, tuple(rejected_by))
        seconds = time.perf_counter() - start
        check = check_closed_loop(
            problem.E, problem.A, problem.B, sol.F, sol.G, requested_values(problem.poles), problem.r
        )
        return OpResult(seconds, None, check, tuple(rejected_by))


def draw_n100(seed: int, rank_e: int, m: int, r: int, draw: int):
    """One n = 100 instance of the program's random family, and its poles.

    ``E`` has rank ``rank_e``: the leading block of the triangular factor of
    a Gaussian matrix's QR is zeroed and the result is taken back by the
    orthogonal factor, as ``generate_random_instance`` does.  ``A`` and ``B``
    are Gaussian.  The ``r`` requested poles are the eigenvalues of a random
    ``r x r`` pencil, by scipy's QZ.
    """
    n = N100
    for attempt in range(10):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, n, rank_e, m, r, draw, attempt])))
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, m))
        q, tri = np.linalg.qr(rng.standard_normal((n, n)))
        tri[: n - rank_e, : n - rank_e] = 0.0
        e = q @ tri @ q.T
        w = rng.standard_normal((r, r))
        y = rng.standard_normal((r, r))
        alpha, beta = scipy.linalg.eig(w, y, right=False, homogeneous_eigvals=True)
        if np.any(beta == 0):
            continue
        values = [complex(v) for v in alpha / beta]
        finite = [PolePair.make(v, 1.0) for v in values if v.imag >= 0.0]
        poles = (PolePair.infinite(),) * (n - r) + tuple(finite)
        return sp_problem.Problem(E=e, A=a, B=b, poles=poles, r=r), values
    raise RuntimeError(f"no n=100 draw with {r} finite poles for seed {seed}")


class AssignWorkload:
    """``run_pipeline`` alone on n = 100 instances drawn by the benchmark."""

    name = "assign-n100"

    def __init__(self, seed: int):
        self.seed = seed
        self.ops = [(cfg, d) for d in range(N100_DRAWS) for cfg in N100_CONFIGS]
        self._inputs: dict[int, tuple] = {}

    def __len__(self) -> int:
        return len(self.ops)

    def describe(self, i: int) -> str:
        (rank_e, m, r), d = self.ops[i]
        return f"n={N100} rankE={rank_e} m={m} r={r} draw={d}"

    def inputs(self, i: int):
        if i not in self._inputs:
            (rank_e, m, r), d = self.ops[i]
            self._inputs[i] = draw_n100(self.seed, rank_e, m, r, d)
        return self._inputs[i]

    def problem(self, i: int):
        return self.inputs(i)[0]

    def run(self, i: int) -> OpResult:
        problem, values = self.inputs(i)
        start = time.perf_counter()
        try:
            sol = sp_assign.run_pipeline(problem)
        except OP_ERRORS as exc:
            return OpResult(time.perf_counter() - start, f"{type(exc).__name__}: {exc}", None)
        seconds = time.perf_counter() - start
        check = check_closed_loop(problem.E, problem.A, problem.B, sol.F, sol.G, values, problem.r)
        return OpResult(seconds, None, check)


def make_workload(name: str, seed: int):
    for cls in (SweepWorkload, AssignWorkload):
        if name == cls.name:
            return cls(seed)
    raise ValueError(f"unknown workload {name!r}")
