"""Random benchmark instances, trials, sweeps, and CSV output."""

from __future__ import annotations

import importlib
import importlib.util
import pathlib

import numpy as np
import pytest

from schurpole import BenchConfig, generate_random_instance, run_sweep, run_trial, write_csv
from schurpole.bench import CSV_COLUMNS
from schurpole.linalg import numerical_rank
from schurpole.poles import count_infinite


def test_config_admissible_range():
    cfg = BenchConfig(n=6, rank_e=3, m=2)
    assert cfg.q == 5
    assert list(cfg.r_values) == [3, 4, 5]
    wide = BenchConfig(n=6, rank_e=5, m=4)
    assert wide.q == 6  # capped at n
    assert list(wide.r_values) == [2, 3, 4, 5, 6]


def test_generated_instance_structure():
    cfg = BenchConfig(n=6, rank_e=3, m=2, trials=5, seed=0)
    prob = generate_random_instance(cfg, r=4, trial=2)
    assert prob.n == 6 and prob.m == 2 and prob.r == 4
    assert numerical_rank(prob.E) == 3
    assert numerical_rank(np.hstack([prob.E, prob.B])) == cfg.q
    assert count_infinite(prob.poles) == 2
    # E is exactly symmetric-rank-deficient by construction, not near-rank.
    svals = np.linalg.svd(prob.E, compute_uv=False)
    assert svals[3] <= 1e-13 * svals[0]


def test_generated_instance_is_deterministic():
    cfg = BenchConfig(n=6, rank_e=2, m=3, trials=5, seed=42)
    p1 = generate_random_instance(cfg, r=3, trial=1)
    p2 = generate_random_instance(cfg, r=3, trial=1)
    assert np.array_equal(p1.E, p2.E)
    assert np.array_equal(p1.A, p2.A)
    assert np.array_equal(p1.B, p2.B)
    assert p1.poles == p2.poles


def test_instances_differ_across_trials_and_seeds():
    cfg = BenchConfig(n=6, rank_e=2, m=3, trials=5, seed=42)
    base = generate_random_instance(cfg, r=3, trial=1)
    other_trial = generate_random_instance(cfg, r=3, trial=2)
    other_seed = generate_random_instance(
        BenchConfig(n=6, rank_e=2, m=3, trials=5, seed=43), r=3, trial=1
    )
    assert not np.array_equal(base.A, other_trial.A)
    assert not np.array_equal(base.A, other_seed.A)


def test_run_trial_reports_metrics():
    cases = [
        (BenchConfig(n=6, rank_e=3, m=2, trials=5, seed=0), 4),
        # generate -> validate -> assign -> verify at n = 100
        (BenchConfig(n=100, rank_e=50, m=10, trials=1, seed=0), 60),
    ]
    for cfg, r in cases:
        res = run_trial(cfg, r=r, trial=0)
        assert res.ok, res.error
        rep = res.report
        assert rep.precs <= -6.0
        assert np.isfinite(rep.delta_f2) and rep.delta_f2 >= 0.0
        assert np.isfinite(rep.norm_f) and np.isfinite(rep.norm_g)
        assert rep.kappa_x_gf >= 1.0


def test_run_sweep_rows():
    cfg = BenchConfig(n=5, rank_e=2, m=2, trials=3, seed=0)
    rows = run_sweep(cfg)
    assert len(rows) == len(list(cfg.r_values))
    for row, r in zip(rows, cfg.r_values):
        assert row["r"] == r
        assert row["n"] == 5 and row["rankE"] == 2 and row["m"] == 2
        assert row["trials"] == 3
        assert set(row) == set(CSV_COLUMNS) | {"errors"}
        assert row["failures"] == 0 and row["errors"] == {}
        assert row["mean_precs"] <= -6.0
    # a failed trial keeps its reason beside the counts
    rows = run_sweep(BenchConfig(n=6, rank_e=3, m=3, trials=3, seed=69))
    assert [row["errors"] for row in rows] == [{}, {}, {}, {2: "verification failed: precs -4.62 > -6"}]
    assert [row["failures"] for row in rows] == [0, 0, 0, 1]


def test_write_csv_is_byte_deterministic(tmp_path):
    cfg = BenchConfig(n=5, rank_e=3, m=2, trials=2, seed=7)
    rows = run_sweep(cfg)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_csv(rows, p1)
    write_csv(run_sweep(cfg), p2)
    b1 = p1.read_bytes()
    assert b1 == p2.read_bytes()
    header = b1.decode().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)


def test_invalid_r_rejected():
    cfg = BenchConfig(n=6, rank_e=3, m=2, trials=2, seed=0)
    with pytest.raises(ValueError):
        generate_random_instance(cfg, r=1, trial=0)  # below q - m


def test_traced_functions_exist():
    # perfbench/tracing.py looks up every (module, name) of TRACED with
    # getattr when a traced run starts; a renamed function would crash it.
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for module, name in tracing.TRACED:
        assert callable(getattr(importlib.import_module(f"schurpole.{module}"), name, None)), f"{module}.{name}"
    # scripts/time_assign.py times the solver's null-space kernel by
    # rebinding it in schurpole.assign
    assert callable(getattr(importlib.import_module("schurpole.assign"), "orthonormal_null_basis", None))
