"""Command-line interface: subcommands, exit codes, report formats."""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

from schurpole import PolePair, Problem, run_pipeline, serialize_problem, serialize_solution
from schurpole.cli import main

from conftest import e_inside_the_input_range, make_instance, unsolvable_instance


@pytest.fixture
def good_problem_file(tmp_path):
    prob = make_instance(6, 3, 2, 4, trial=0)
    path = tmp_path / "problem.txt"
    path.write_text(serialize_problem(prob))
    return path


def run_cli(capsys, *args):
    rc = main(list(args))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# assign


def test_assign_text_report(capsys, good_problem_file):
    rc, out, err = run_cli(capsys, "assign", str(good_problem_file))
    assert rc == 0
    lines = out.splitlines()
    keys = [ln.split("=", 1)[0] for ln in lines if "=" in ln]
    assert keys[:4] == ["precs", "deltaF2", "normF", "normG"]
    assert "F:" in lines and "G:" in lines
    precs = float(dict(ln.split("=", 1) for ln in lines if "=" in ln)["precs"])
    assert precs <= -6.0


def test_assign_json_report_and_round_trip(capsys, tmp_path, good_problem_file):
    rc, out, _ = run_cli(capsys, "assign", str(good_problem_file), "--report", "json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["index_ok"] is True
    f = np.array(payload["F"])
    g = np.array(payload["G"])
    assert f.shape == (2, 6) and g.shape == (2, 6)
    sol_path = tmp_path / "solution.txt"
    sol_path.write_text(serialize_solution(f, g))
    rc2, out2, _ = run_cli(capsys, "verify", str(good_problem_file), str(sol_path))
    assert rc2 == 0
    assert "precs=" in out2


def test_assign_missing_file(capsys, tmp_path):
    rc, _, err = run_cli(capsys, "assign", str(tmp_path / "nope.txt"))
    assert rc == 1
    assert "cannot read" in err


def test_assign_malformed_file(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a problem\n")
    rc, _, err = run_cli(capsys, "assign", str(path))
    assert rc == 1
    assert "header" in err


@pytest.mark.parametrize("pole_line", ["nan 0 1 0", "inf 0 1 0", "384111 0 2.1366838400300434e-303 0"])
def test_assign_rejects_non_finite_pole_ratio(capsys, tmp_path, pole_line):
    path = tmp_path / "bad_pole.txt"
    path.write_text("2 1 2\n1 0\n0 1\n1 0\n0 2\n1\n1\n" + f"{pole_line}\n" * 2)
    rc, _, err = run_cli(capsys, "assign", str(path))
    assert rc == 1
    assert "line 8" in err and "Traceback" not in err


def test_assign_infeasible_bound(capsys, tmp_path):
    # r = 0 with invertible E requires q - m = 1 <= r: bound violation.
    prob_text = "2 1 0\n1 0\n0 1\n1 0\n0 1\n1\n0\n"
    path = tmp_path / "infeasible.txt"
    path.write_text(prob_text)
    rc, _, err = run_cli(capsys, "assign", str(path))
    assert rc == 1
    assert "finite-pole-count-bound" in err


def test_assign_accepts_an_input_far_below_a_and_e(capsys, tmp_path):
    # B = 1e-17 [1; 1] sees both modes of diag(1, 2): controllability does
    # not depend on the input's units, however small beside A and E
    prob = Problem(
        E=np.eye(2),
        A=np.diag([1.0, 2.0]),
        B=np.full((2, 1), 1e-17),
        poles=(PolePair.from_value(-1.0), PolePair.from_value(-2.0)),
        r=2,
    )
    path = tmp_path / "small_input.txt"
    path.write_text(serialize_problem(prob))
    rc, _, err = run_cli(capsys, "assign", str(path))
    assert rc == 0, err


def test_assign_degenerate_order_exit_code(capsys, tmp_path):
    # A validated instance the solver cannot finish: assignment refused.
    path = tmp_path / "unsolvable.txt"
    path.write_text(serialize_problem(unsolvable_instance()))
    rc, _, err = run_cli(capsys, "assign", str(path))
    assert rc == 2
    assert "assignment failed" in err


def test_assign_failed_verification_exit_code(capsys, tmp_path):
    # Pole multiplicity above m passes validation with a warning but the
    # defective closed loop cannot meet the verification gate.
    rng = np.random.default_rng(3)
    prob = Problem(
        E=np.eye(4),
        A=rng.standard_normal((4, 4)),
        B=rng.standard_normal((4, 1)),
        poles=tuple(PolePair.from_value(-1.0) for _ in range(4)),
        r=4,
    )
    path = tmp_path / "multiplicity.txt"
    path.write_text(serialize_problem(prob))
    rc, out, err = run_cli(capsys, "assign", str(path))
    assert rc == 3
    assert "multiplicity" in err  # the warning was surfaced
    assert "precs=" in out  # report still printed for diagnosis


# ---------------------------------------------------------------------------
# verify


def test_verify_detects_wrong_feedback(capsys, tmp_path, good_problem_file):
    sol_path = tmp_path / "zero.txt"
    sol_path.write_text(serialize_solution(np.zeros((2, 6)), np.zeros((2, 6))))
    rc, out, _ = run_cli(capsys, "verify", str(good_problem_file), str(sol_path))
    assert rc == 3
    assert "precs=" in out


def test_verify_rejects_non_finite_solution(capsys, tmp_path, good_problem_file):
    sol_path = tmp_path / "nan.txt"
    rows = ["6 2"] + ["nan 0 0 0 0 0"] * 2 + ["0 0 0 0 0 0"] * 2
    sol_path.write_text("\n".join(rows) + "\n")
    rc, _, err = run_cli(capsys, "verify", str(good_problem_file), str(sol_path))
    assert rc == 1
    assert "non-finite" in err


def test_verify_overflowing_closed_loop_exit_code(capsys, tmp_path):
    # B F overflows to inf: a failed verification, not a traceback.
    prob = Problem(
        E=np.eye(2),
        A=np.array([[0.0, 1.0], [-2.0, -3.0]]),
        B=np.array([[1e10], [1.0]]),
        poles=(PolePair.from_value(-1.0), PolePair.from_value(-2.0)),
        r=2,
    )
    prob_path = tmp_path / "problem.txt"
    prob_path.write_text(serialize_problem(prob))
    sol_path = tmp_path / "huge.txt"
    sol_path.write_text(serialize_solution(np.full((1, 2), 1e300), np.zeros((1, 2))))
    with np.errstate(over="ignore"):
        rc, out, _ = run_cli(capsys, "verify", str(prob_path), str(sol_path))
    assert rc == 3
    assert "index_ok=false" in out


def test_verify_overflowing_closed_loop_prints_no_warning(tmp_path):
    # The same overflowing loop in a fresh process: the failed verdict goes
    # to stdout, and stderr stays free of numpy RuntimeWarnings.
    prob = Problem(
        E=np.eye(2),
        A=np.array([[0.0, 1.0], [-2.0, -3.0]]),
        B=np.array([[1e10], [1.0]]),
        poles=(PolePair.from_value(-1.0), PolePair.from_value(-2.0)),
        r=2,
    )
    prob_path = tmp_path / "problem.txt"
    prob_path.write_text(serialize_problem(prob))
    sol_path = tmp_path / "huge.txt"
    sol_path.write_text(serialize_solution(np.full((1, 2), 1e300), np.zeros((1, 2))))
    run = subprocess.run(
        [sys.executable, "-m", "schurpole.cli", "verify", str(prob_path), str(sol_path)],
        capture_output=True,
        text=True,
    )
    assert run.returncode == 3
    assert "index_ok=false" in run.stdout
    assert run.stderr == ""


def test_verify_accepts_a_feedback_that_cancels_e(capsys, tmp_path):
    # range(E) in range(B) and r = 0: E + B G is zero up to rounding, which
    # verify used to read as finite poles (exit 3)
    prob = e_inside_the_input_range(4)
    sol = run_pipeline(prob)
    prob_path = tmp_path / "problem.txt"
    prob_path.write_text(serialize_problem(prob))
    sol_path = tmp_path / "solution.txt"
    sol_path.write_text(serialize_solution(sol.F, sol.G))
    rc, out, _ = run_cli(capsys, "verify", str(prob_path), str(sol_path))
    assert rc == 0
    assert "infinite_count=4" in out


def test_verify_rejects_shape_mismatch(capsys, tmp_path, good_problem_file):
    sol_path = tmp_path / "wrong_shape.txt"
    sol_path.write_text(serialize_solution(np.zeros((1, 4)), np.zeros((1, 4))))
    rc, _, err = run_cli(capsys, "verify", str(good_problem_file), str(sol_path))
    assert rc == 1


# ---------------------------------------------------------------------------
# bench


def test_bench_writes_csv(capsys, tmp_path):
    csv_path = tmp_path / "rows.csv"
    rc, out, _ = run_cli(
        capsys,
        "bench", "--n", "5", "--rankE", "2", "--m", "2",
        "--trials", "2", "--csv", str(csv_path),
    )
    assert rc == 0
    assert csv_path.exists()
    assert "wrote" in out
    header = csv_path.read_text().splitlines()[0]
    assert header.startswith("n,rankE,m,r,trials,mean_precs")


def test_bench_is_byte_deterministic(capsys, tmp_path):
    args = ["bench", "--n", "5", "--rankE", "3", "--m", "2", "--trials", "2"]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--csv", str(p1)]) == 0
    assert main(args + ["--csv", str(p2)]) == 0
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()


def test_bench_prints_each_failed_trial(capsys, tmp_path):
    # Cell (n=6, rankE=3, m=3, seed=69), r = 6, trial 2: the solver's answer
    # has poles to 5.2 digits and verify_solution refuses it; the other 11
    # trials pass.  The reason goes to stderr, the CSV keeps its columns.
    csv_path = tmp_path / "rows.csv"
    rc, out, err = run_cli(
        capsys,
        "bench", "--n", "6", "--rankE", "3", "--m", "3",
        "--trials", "3", "--seed", "69", "--csv", str(csv_path),
    )
    assert rc == 0
    assert err.splitlines() == ["failed: r=6 trial=2: verification failed: precs -5.22 > -6"]
    assert "1 failures total" in out
    assert csv_path.read_text().splitlines()[-1].endswith(",1")


def test_bench_invalid_config(capsys, tmp_path):
    rc, _, err = run_cli(
        capsys,
        "bench", "--n", "4", "--rankE", "5", "--m", "2",
        "--csv", str(tmp_path / "x.csv"),
    )
    assert rc == 1
    assert err


def test_bench_unwritable_csv(capsys, tmp_path):
    rc, _, err = run_cli(
        capsys,
        "bench", "--n", "5", "--rankE", "2", "--m", "2", "--trials", "1",
        "--csv", str(tmp_path / "missing_dir" / "x.csv"),
    )
    assert rc == 1
    assert "cannot write" in err


# ---------------------------------------------------------------------------
# entry point and reproducibility through the real process boundary


def test_console_entry_point_round_trip(tmp_path):
    prob = make_instance(5, 2, 2, 3, trial=1)
    path = tmp_path / "problem.txt"
    path.write_text(serialize_problem(prob))
    cmd = [sys.executable, "-m", "schurpole.cli", "assign", str(path), "--report", "json"]
    r1 = subprocess.run(cmd, capture_output=True, text=True)
    r2 = subprocess.run(cmd, capture_output=True, text=True)
    assert r1.returncode == 0, r1.stderr
    assert r1.stdout == r2.stdout  # byte-identical reports
    payload = json.loads(r1.stdout)
    sol_path = tmp_path / "solution.txt"
    sol_path.write_text(
        serialize_solution(np.array(payload["F"]), np.array(payload["G"]))
    )
    check = subprocess.run(
        [sys.executable, "-m", "schurpole.cli", "verify", str(path), str(sol_path)],
        capture_output=True,
        text=True,
    )
    assert check.returncode == 0, check.stderr
