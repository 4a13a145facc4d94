"""Randomized benchmark sweeps over descriptor-system dimensions.

One configuration fixes (n, rank(E), m); the sweep walks every admissible
finite-pole count r and, per r, draws ``trials`` random instances whose
target spectrum is itself the spectrum of a random pencil (so arbitrary
finite pole configurations occur, complex pairs included).  Per-instance
seeding is fully deterministic in (seed, n, rank(E), m, r, trial,
attempt), so any row of a sweep can be regenerated in isolation.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .assign import run_pipeline
from .errors import DegenerateStepError, SingularPencilError
from .linalg import numerical_rank, qr_decompose, serial_blas
from .metrics import Report, generalized_eig_oracle, verify_solution
from .poles import PolePair
from .problem import Problem, validate_problem

__all__ = [
    "BenchConfig",
    "TrialResult",
    "generate_random_instance",
    "run_trial",
    "run_sweep",
    "write_csv",
    "CSV_COLUMNS",
]

#: attempts per (r, trial) slot before giving up on a non-degenerate draw
_MAX_ATTEMPTS = 10

CSV_COLUMNS = (
    "n",
    "rankE",
    "m",
    "r",
    "trials",
    "mean_precs",
    "mean_deltaF2",
    "mean_normF",
    "mean_normG",
    "mean_kappaXGF",
    "mean_kappaX",
    "failures",
)


@dataclass(frozen=True)
class BenchConfig:
    """Dimensions and controls of one benchmark sweep."""

    n: int
    rank_e: int
    m: int
    trials: int = 50
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.rank_e < self.n:
            raise ValueError(f"need 1 <= rank(E) < n, got rank(E)={self.rank_e}, n={self.n}")
        if not 1 <= self.m <= self.n:
            raise ValueError(f"need 1 <= m <= n, got m={self.m}, n={self.n}")
        if self.trials < 1:
            raise ValueError("trials must be positive")

    @property
    def q(self) -> int:
        """Generic rank of [E B] for these dimensions."""
        return min(self.n, self.rank_e + self.m)

    @property
    def r_values(self) -> tuple[int, ...]:
        """Admissible finite-pole counts, smallest first."""
        return tuple(range(max(self.q - self.m, 0), self.q + 1))


@dataclass(eq=False)
class TrialResult:
    """One (r, trial) cell: its verification report, or why it has none."""

    r: int
    trial: int
    report: Report | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.report is not None and self.report.passed


def _rng(cfg: BenchConfig, r: int, trial: int, attempt: int) -> np.random.Generator:
    ss = np.random.SeedSequence([cfg.seed, cfg.n, cfg.rank_e, cfg.m, r, trial, attempt])
    return np.random.Generator(np.random.PCG64(ss))


@serial_blas()
def generate_random_instance(cfg: BenchConfig, r: int, trial: int) -> Problem:
    """Draw one well-posed random instance for pole count ``r``.

    E is built with exact rank deficiency by zeroing the leading principal
    block of an orthogonal-similarity QR factor; the requested finite
    poles are the spectrum of an independent random r x r pencil.  Draws
    failing the rank or spectrum-count requirements are retried with a
    fresh attempt-indexed stream.  The draw runs on one BLAS thread
    (:func:`~schurpole.linalg.serial_blas`), so it does not depend on the
    caller's thread counts.
    """
    n, m = cfg.n, cfg.m
    admissible = tuple(cfg.r_values)
    if r not in admissible:
        raise ValueError(
            f"finite pole count r={r} outside the admissible range "
            f"[{admissible[0]}, {admissible[-1]}] for this configuration"
        )
    for attempt in range(_MAX_ATTEMPTS):
        rng = _rng(cfg, r, trial, attempt)
        a = rng.standard_normal((n, n))
        e0 = rng.standard_normal((n, n))
        b = rng.standard_normal((n, m))
        w = rng.standard_normal((r, r))
        y = rng.standard_normal((r, r))
        qe, re_ = qr_decompose(e0)
        k = n - cfg.rank_e
        re_[:k, :k] = 0.0
        e = qe @ re_ @ qe.T
        ranks = (numerical_rank(e), numerical_rank(b), numerical_rank(np.hstack([e, b])))
        if ranks != (cfg.rank_e, m, cfg.q):
            continue
        try:
            target = generalized_eig_oracle(w, y)
        except SingularPencilError:
            continue
        if target.finite.size != r:
            continue
        poles = (PolePair.infinite(),) * (n - r) + target.poles
        try:
            return Problem(E=e, A=a, B=b, poles=poles, r=r)
        except ValueError:
            continue
    raise DegenerateStepError(
        f"no non-degenerate draw in {_MAX_ATTEMPTS} attempts for "
        f"(n={n}, rankE={cfg.rank_e}, m={m}, r={r}, trial={trial})"
    )


def run_trial(cfg: BenchConfig, r: int, trial: int) -> TrialResult:
    """Generate, validate, assign and verify one instance.

    A failed verification keeps its reason: ``"verification failed: "``
    and the report's first failing criterion with its value.
    """
    try:
        problem = generate_random_instance(cfg, r, trial)
    except DegenerateStepError as exc:
        return TrialResult(r, trial, error=str(exc))
    val = validate_problem(problem)
    if not val.passed:
        return TrialResult(r, trial, error="; ".join(f"{c.name}: {c.detail}" for c in val.failures()))
    try:
        sol = run_pipeline(problem)
    except DegenerateStepError as exc:
        return TrialResult(r, trial, error=str(exc))
    rep = verify_solution(problem, sol)
    return TrialResult(r, trial, rep, None if rep.passed else f"verification failed: {rep.failure}")


def _mean(values) -> float:
    vals = [v for v in values if v is not None and math.isfinite(v)]
    return float(np.mean(vals)) if vals else math.nan


def run_sweep(cfg: BenchConfig) -> list[dict]:
    """All (r, trial) cells of the sweep, averaged per r over passing trials.

    Each row also maps every failed trial to its ``TrialResult.error``
    under ``"errors"``, which is not a CSV column.
    """
    rows = []
    for r in cfg.r_values:
        results = [run_trial(cfg, r, trial) for trial in range(cfg.trials)]
        good = [t.report for t in results if t.ok]
        rows.append(
            {
                "n": cfg.n,
                "rankE": cfg.rank_e,
                "m": cfg.m,
                "r": r,
                "trials": cfg.trials,
                "mean_precs": _mean(rep.precs for rep in good),
                "mean_deltaF2": _mean(rep.delta_f2 for rep in good),
                "mean_normF": _mean(rep.norm_f for rep in good),
                "mean_normG": _mean(rep.norm_g for rep in good),
                "mean_kappaXGF": _mean(rep.kappa_x_gf for rep in good),
                "mean_kappaX": _mean(rep.kappa_eigvec for rep in good),
                "failures": cfg.trials - len(good),
                "errors": {t.trial: t.error for t in results if not t.ok},
            }
        )
    return rows


def _fmt_cell(value) -> str:
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def write_csv(rows: list[dict], path) -> None:
    """Write sweep rows with a fixed column set and full float precision."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([_fmt_cell(row[c]) for c in CSV_COLUMNS])
