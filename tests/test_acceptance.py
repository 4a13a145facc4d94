"""Acceptance gate: every shipping criterion checked at its stated tolerance.

Each criterion is one test so the verbose run shows one pass/fail line per
criterion; the tests also print an ``ACCEPTANCE k: PASS/FAIL`` summary line
with the measured numbers (visible with ``pytest -s``).

Suites:
* 6-state suite: every (rankE, m) in {2,3,5} x {2,3,4}, every admissible
  finite-pole count r, 50 seeded trials each.
* 30-state suite: every (rankE, m) in {2,15,29} x {2,15,28}, every
  admissible r, 3 seeded trials each.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np
import pytest

from schurpole import (
    BenchConfig,
    PolePair,
    Problem,
    generate_random_instance,
    run_pipeline,
    run_sweep,
    serialize_problem,
    serialize_solution,
    write_csv,
)
from schurpole.assign import _complex_pair_core
from schurpole.cli import main as cli_main
from schurpole.metrics import verify_solution
from schurpole.poles import count_infinite, expand_to_values

from conftest import oracle_pole_list, rank1_quadratic, solve_recording, unsolvable_instance

SMALL = [(6, rank_e, m) for rank_e in (2, 3, 5) for m in (2, 3, 4)]
LARGE = [(30, rank_e, m) for rank_e in (2, 15, 29) for m in (2, 15, 28)]
SMALL_TRIALS = 50
LARGE_TRIALS = 3
RANK_CUT = 1e-11  # separates construction roundoff from genuine directions


@dataclass
class InstanceRecord:
    key: tuple  # (n, rank_e, m, r, trial)
    t_run: float
    rel_resid: float  # (||AcP - XS|| + ||EcP - XT||) / (||A|| + ||E|| + ||X||)
    orth: float  # ||P^T P - I||
    precs: float
    inf_count: int | None
    index_ok: bool
    rank_ec: int
    inf_block_exact: bool
    real_steps: list = field(default_factory=list)  # (z1, chosen_norm)
    complex_steps: list = field(default_factory=list)  # (nu2, rho1, rho2, branch)
    step_dims: list = field(default_factory=list)  # (width, null_dim, expected, z1_ok)


def _build_record(n, rank_e, m, r, trial, keep_directions):
    cfg = BenchConfig(n=n, rank_e=rank_e, m=m, trials=max(trial + 1, 1), seed=0)
    prob = generate_random_instance(cfg, r=r, trial=trial)
    t0 = time.perf_counter()
    sol, bases = solve_recording(prob, "_step_null_basis")
    t_run = time.perf_counter() - t0
    a_c = prob.A + prob.B @ sol.F
    e_c = prob.E + prob.B @ sol.G
    scale = (
        np.linalg.norm(prob.A) + np.linalg.norm(prob.E) + np.linalg.norm(sol.X)
    )
    raw = np.linalg.norm(a_c @ sol.P - sol.X @ sol.S) + np.linalg.norm(
        e_c @ sol.P - sol.X @ sol.T
    )
    orth = float(np.linalg.norm(sol.P.T @ sol.P - np.eye(n)))
    rep = verify_solution(prob, sol)
    svals = np.linalg.svd(e_c, compute_uv=False)
    rank_ec = int(np.sum(svals > RANK_CUT * svals[0])) if svals[0] > 0 else 0
    k_inf = n - r
    inf_exact = bool(
        np.array_equal(sol.S[:k_inf, :k_inf], np.eye(k_inf))
        and np.array_equal(sol.T[:k_inf, :k_inf], np.zeros((k_inf, k_inf)))
    )
    rec = InstanceRecord(
        key=(n, rank_e, m, r, trial),
        t_run=t_run,
        rel_resid=float(raw / scale),
        orth=orth,
        precs=rep.precs,
        inf_count=rep.infinite_count,
        index_ok=rep.index_ok,
        rank_ec=rank_ec,
        inf_block_exact=inf_exact,
    )
    # Every step after the infinite block made one recorded null-basis call.
    finite_steps = sol.steps[1:]
    assert len(bases) == len(finite_steps)
    # Its basis is the d mapped columns (P-part P_perp Y) and the j free
    # directions, whose P-part is zero.
    for step, (args, (y, _, _)) in zip(finite_steps, bases):
        p_perp = args[0].P_perp
        j = step.j_before
        width = y.shape[1] + j
        if step.kind == "real":
            rec.step_dims.append((width, step.null_dim, m + j, step.p_share > 1e-12))
            if keep_directions:
                # The step's unit null vector, scaled to a unit P-column, is
                # [p; v_s; v_t]: its P-share is read off the S and T columns.
                added = np.linalg.norm(sol.S[:j, j]) ** 2 + np.linalg.norm(sol.T[:j, j]) ** 2
                rec.real_steps.append((p_perp @ y, 1.0 / math.sqrt(1.0 + added)))
        else:
            rec.step_dims.append((width, step.null_dim, m + j, math.sqrt(step.p_share) > 1e-13))
            if step.rho2 is not None:
                rec.complex_steps.append((step.nu2, step.rho1, step.rho2, step.branch))
    return rec


def _build_suite(configs, trials, keep_directions_for_trial):
    records, errors = [], []
    for n, rank_e, m in configs:
        cfg = BenchConfig(n=n, rank_e=rank_e, m=m, trials=trials, seed=0)
        for r in cfg.r_values:
            for trial in range(trials):
                try:
                    records.append(
                        _build_record(
                            n, rank_e, m, r, trial,
                            keep_directions=(trial <= keep_directions_for_trial),
                        )
                    )
                except Exception as exc:  # pragma: no cover - failure is data
                    errors.append(((n, rank_e, m, r, trial), f"{type(exc).__name__}: {exc}"))
    return records, errors


@pytest.fixture(scope="module")
def small_suite():
    return _build_suite(SMALL, SMALL_TRIALS, keep_directions_for_trial=SMALL_TRIALS)


@pytest.fixture(scope="module")
def large_suite():
    return _build_suite(LARGE, LARGE_TRIALS, keep_directions_for_trial=0)


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


# ---------------------------------------------------------------------------
# 1. structural residuals, orthogonality, runtime on the 6-state suite


def test_criterion_1_structural_residuals(small_suite):
    records, errors = small_suite
    expected = sum(
        len(tuple(BenchConfig(n=n, rank_e=rank_e, m=m, trials=1).r_values))
        for n, rank_e, m in SMALL
    ) * SMALL_TRIALS
    worst_res = max(r.rel_resid for r in records)
    worst_orth = max(r.orth / 6 for r in records)
    worst_time = max(r.t_run for r in records)
    ok = (
        not errors
        and len(records) == expected
        and worst_res <= 1e-10
        and worst_orth <= 1e-12
        and worst_time <= 1.0
    )
    _report(
        1,
        ok,
        f"{len(records)}/{expected} instances, {len(errors)} errors, "
        f"max residual {worst_res:.2e} (<=1e-10), "
        f"max orth/n {worst_orth:.2e} (<=1e-12), "
        f"max runtime {worst_time * 1e3:.0f} ms (<=1000)",
    )


# ---------------------------------------------------------------------------
# 2. pole precision medians


def test_criterion_2_precision_medians(small_suite, large_suite):
    recs6, err6 = small_suite
    recs30, err30 = large_suite
    p6 = np.array([r.precs for r in recs6])
    med6, max6 = float(np.median(p6)), float(np.max(p6))
    p30 = np.array(
        [r.precs for r in recs30 if (r.key[1], r.key[2]) != (29, 2)]
    )
    med30 = float(np.median(p30))
    ok = (
        not err6
        and not err30
        and med6 <= -10.0
        and max6 <= -8.0
        and med30 <= -6.0
    )
    _report(
        2,
        ok,
        f"6-state: median {med6:.2f} (<=-10), max {max6:.2f} (<=-8); "
        f"30-state (excl. rankE=29,m=2): median {med30:.2f} (<=-6)",
    )


# ---------------------------------------------------------------------------
# 3. closed-loop structure: infinite count, rank, index


def test_criterion_3_closed_loop_structure(small_suite, large_suite):
    bad = []
    total = 0
    for records, _ in (small_suite, large_suite):
        for rec in records:
            total += 1
            n, _, _, r, _ = rec.key
            if rec.inf_count != n - r or rec.rank_ec != r or not rec.index_ok:
                bad.append((rec.key, rec.inf_count, rec.rank_ec, rec.index_ok))
    ok = not bad and total > 0
    detail = f"{total} instances: infinite count = n-r, rank(E+BG) = r, index <= 1"
    if bad:
        detail += f"; {len(bad)} violations, first {bad[0]}"
    _report(3, ok, detail)


# ---------------------------------------------------------------------------
# 4. per-step optimality


def _direction_pool(dim, count=10_000):
    rng = np.random.default_rng(np.random.SeedSequence([0xD1EC, dim]))
    u = rng.standard_normal((dim, count))
    return u / np.linalg.norm(u, axis=0)


def test_criterion_4_step_optimality(small_suite, large_suite):
    recs6, _ = small_suite
    recs30, _ = large_suite

    # (a) infinite-pole steps write exactly zero off-diagonal columns.
    inf_bad = [r.key for r in recs6 + recs30 if not r.inf_block_exact]

    # (b) the chosen real-step direction beats 10^4 random feasible unit
    # directions in ||Z1 u||, and its P-share is the optimum max ||Z1 u||,
    # the largest singular value of Z1, to 1e-9 relative.  Z1 = [P_perp Y, 0]:
    # the directions are drawn over the d mapped columns only, since a
    # share on the free ones would only lower ||Z1 u||.
    pools: dict[int, np.ndarray] = {}
    real_checked, real_margin, share_gap = 0, 0.0, 0.0
    real_bad = []
    for rec in recs6 + recs30:
        for z1, chosen in rec.real_steps:
            dim = z1.shape[1]
            if dim not in pools:
                pools[dim] = _direction_pool(dim)
            best_random = float(np.linalg.norm(z1 @ pools[dim], axis=0).max())
            sigma_max = float(np.linalg.svd(z1, compute_uv=False)[0])
            real_checked += 1
            real_margin = max(real_margin, best_random - chosen)
            share_gap = max(share_gap, abs(chosen - sigma_max) / sigma_max)
            if best_random > chosen + 1e-9 or abs(chosen - sigma_max) > 1e-9 * sigma_max:
                real_bad.append(rec.key)

    # (c) rank-1 complex steps: analytic gradient of the coefficient
    # quadratic vanishes at the recorded optimum, confirmed by central
    # finite differences of the reconstructed objective.
    grad_checked = 0
    grad_bad = []
    for rank_e, r, trial in ((3, 4, 0), (3, 4, 1), (2, 3, 1)):
        cfg = BenchConfig(n=6, rank_e=rank_e, m=1, trials=trial + 1, seed=0)
        prob = generate_random_instance(cfg, r=r, trial=trial)
        _, calls = solve_recording(prob, "_complex_pair_core")
        for args, choice in calls:
            if choice.branch != "rank1":
                continue
            quad = rank1_quadratic(args, choice)
            if not quad.y.size:
                continue
            hmat, hvec, y = quad.H, quad.h, quad.y
            c, s = quad.c, quad.s
            vs1, vs2 = quad.vs
            w, big_w = quad.w, quad.W
            nu1 = quad.nu1
            k = y.size // 2

            def objective(yv):
                g = yv[:k] + 1j * yv[k:]
                u = w / nu1 + big_w @ g
                re_v = c * u.real - s * u.imag
                im_v = s * u.real + c * u.imag
                return float(re_v @ re_v) / vs1**2 + float(im_v @ im_v) / vs2**2

            grad = 2.0 * hmat @ y + hvec
            fd = np.empty_like(y)
            hstep = 1e-5 * (1.0 + np.abs(y))
            for i in range(y.size):
                yp, ym = y.copy(), y.copy()
                yp[i] += hstep[i]
                ym[i] -= hstep[i]
                fd[i] = (objective(yp) - objective(ym)) / (2.0 * hstep[i])
            h_norm = float(np.linalg.norm(hvec))
            grad_checked += 1
            if np.linalg.norm(grad) > 1e-10 * h_norm:
                grad_bad.append(("analytic", rank_e, r, trial))
            if np.linalg.norm(fd - grad) > 1e-6 * max(1.0, h_norm):
                grad_bad.append(("fd", rank_e, r, trial))

    ok = not inf_bad and not real_bad and not grad_bad and grad_checked >= 3
    _report(
        4,
        ok,
        f"infinite blocks exact on {len(recs6) + len(recs30)} instances "
        f"({len(inf_bad)} bad); {real_checked} real steps vs 10^4 random "
        f"directions (worst margin {real_margin:.2e} <= 1e-9) and sigma_max(Z1) "
        f"(worst relative gap {share_gap:.2e} <= 1e-9), {len(real_bad)} bad; "
        f"{grad_checked} rank-1 gradients <= 1e-10*|h| with FD agreement "
        f"({len(grad_bad)} bad)",
    )


# ---------------------------------------------------------------------------
# 5. step feasibility held everywhere


def test_criterion_5_step_feasibility(small_suite, large_suite):
    total, bad = 0, []
    for records, _ in (small_suite, large_suite):
        for rec in records:
            for width, null_dim, expected, z1_ok in rec.step_dims:
                total += 1
                if width != expected or null_dim != width or not z1_ok:
                    bad.append((rec.key, width, null_dim, expected, z1_ok))
    ok = total > 0 and not bad
    detail = f"{total} steps with full-row-rank M and nonzero Z1"
    if bad:
        detail += f"; {len(bad)} violations, first {bad[0]}"
    _report(5, ok, detail)


# ---------------------------------------------------------------------------
# 6. complex two-direction strategy bounds


def test_criterion_6_complex_strategy_bounds(small_suite, large_suite):
    recs6, _ = small_suite
    recs30, _ = large_suite
    checked, bad = 0, []
    for rec in recs6 + recs30:
        for nu2, rho1, rho2, branch in rec.complex_steps:
            checked += 1
            c2 = (1.0 - nu2**2) / nu2**2
            chosen = rho2 if branch == "hamiltonian" else rho1
            slack = 1e-12 * max(1.0, abs(2.0 * c2))
            if rho2 > 2.0 * c2 + slack or chosen != min(rho1, rho2):
                bad.append((rec.key, nu2, rho1, rho2, branch))

    # Special geometry: orthogonal half-norm real/imag parts of the top
    # direction make the objective exactly 2*(1 - nu1^2)/nu1^2.
    nu1, nu2 = 0.8, 0.5
    psi1 = np.array([1.0, 1.0j, 0.0, 0.0]) / np.sqrt(2.0)
    psi2 = np.array([0.0, 0.0, 1.0, 1.0j]) / np.sqrt(2.0)
    z1 = np.column_stack([nu1 * psi1, nu2 * psi2])
    rest = np.zeros((4, 2), dtype=complex)
    rest[0, 0] = np.sqrt(1.0 - nu1**2)
    rest[1, 1] = np.sqrt(1.0 - nu2**2)
    # two free directions (0; e_i), orthogonal to rest's columns
    choice = _complex_pair_core(z1, rest, -1.0, 0.0, tau_pen=0.4)
    want = 2.0 * (1.0 - nu1**2) / nu1**2
    special = min(choice.rho1, choice.rho2)
    special_ok = abs(special - want) <= 1e-12 * want

    ok = checked > 0 and not bad and special_ok
    _report(
        6,
        ok,
        f"{checked} activating complex steps satisfy rho2 <= 2(1-nu2^2)/nu2^2 "
        f"and value = min(rho1, rho2) ({len(bad)} bad); special geometry "
        f"objective {special:.15f} vs {want:.15f}",
    )


# ---------------------------------------------------------------------------
# 7. spectrum oracle cross-validation


def test_criterion_7_oracle_cross_validation():
    rng = np.random.default_rng(0xACCE)
    worst = 0.0
    miscounted = 0
    sizes = [int(rng.integers(1, 6)) for _ in range(200)] + [45, 45, 100, 100]
    for n in sizes:
        a = rng.standard_normal((n, n))
        e = rng.standard_normal((n, n)) + (2.0 + n) * np.eye(n)
        poles = oracle_pole_list(a, e)
        got = expand_to_values(poles)
        want = list(np.linalg.eigvals(np.linalg.solve(e, a)))
        if len(got) != n or count_infinite(poles) != 0:
            miscounted += 1
            continue
        for g in got:  # greedy nearest-neighbour matching
            i = min(range(len(want)), key=lambda k: abs(g - want[k]))
            w = want.pop(i)
            worst = max(worst, abs(g - w) / max(1.0, abs(w)))

    inf_bad = 0
    for n in range(2, 7):
        for k in range(1, n + 1):
            diag_e = np.array([0.0] * k + list(rng.uniform(0.5, 2.0, n - k)))
            diag_a = rng.uniform(0.5, 2.0, n)
            poles = oracle_pole_list(np.diag(diag_a), np.diag(diag_e))
            if count_infinite(poles) != k or len(expand_to_values(poles)) != n - k:
                inf_bad += 1
    # the same constructions at n = 45 and 100, hidden by orthogonal
    # transformations U (A, E) V
    for n in (45, 100):
        for k in (1, n // 2, n - 1):
            diag_e = np.array([0.0] * k + list(rng.uniform(0.5, 2.0, n - k)))
            diag_a = rng.uniform(0.5, 2.0, n)
            u = np.linalg.qr(rng.standard_normal((n, n)))[0]
            v = np.linalg.qr(rng.standard_normal((n, n)))[0]
            poles = oracle_pole_list(u @ np.diag(diag_a) @ v, u @ np.diag(diag_e) @ v)
            got = sorted(expand_to_values(poles), key=lambda z: z.real)
            want = sorted(diag_a[k:] / diag_e[k:])
            if count_infinite(poles) != k or len(got) != n - k:
                inf_bad += 1
                continue
            worst = max(worst, max(abs(g - w) / max(1.0, abs(w)) for g, w in zip(got, want)))

    ok = worst <= 1e-8 and miscounted == 0 and inf_bad == 0
    _report(
        7,
        ok,
        f"204 invertible-E pencils (n <= 5, 45, 100) match inverse reduction "
        f"and rotated diagonal pencils match their ratios (worst {worst:.2e} "
        f"<= 1e-8, {miscounted} count mismatches); diagonal singular "
        f"constructions (n <= 6, 45, 100): {inf_bad} wrong counts",
    )


# ---------------------------------------------------------------------------
# 8. bitwise determinism of output files


def test_criterion_8_determinism(tmp_path):
    cfg = BenchConfig(n=6, rank_e=3, m=2, trials=3, seed=1)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(run_sweep(cfg), p1)
    write_csv(run_sweep(cfg), p2)
    csv_same = p1.read_bytes() == p2.read_bytes()

    prob = generate_random_instance(cfg, r=4, trial=1)
    s1, s2 = run_pipeline(prob), run_pipeline(prob)
    t1 = serialize_solution(s1.F, s1.G)
    t2 = serialize_solution(s2.F, s2.G)
    sol_same = t1 == t2

    prob_path = tmp_path / "problem.txt"
    prob_path.write_text(serialize_problem(prob))
    cmd = [sys.executable, "-m", "schurpole.cli", "assign", str(prob_path), "--report", "json"]
    r1 = subprocess.run(cmd, capture_output=True)
    r2 = subprocess.run(cmd, capture_output=True)
    cli_same = r1.returncode == 0 and r1.stdout == r2.stdout

    ok = csv_same and sol_same and cli_same
    _report(
        8,
        ok,
        f"benchmark CSV byte-identical: {csv_same}; solution file "
        f"byte-identical: {sol_same}; CLI report byte-identical: {cli_same}",
    )


# ---------------------------------------------------------------------------
# 9. CLI exit-code contract


def test_criterion_9_cli_contract(tmp_path, capsys):
    results = {}

    cfg = BenchConfig(n=6, rank_e=3, m=2, trials=1, seed=0)
    prob = generate_random_instance(cfg, r=4, trial=0)
    prob_path = tmp_path / "problem.txt"
    prob_path.write_text(serialize_problem(prob))

    rc = cli_main(["assign", str(prob_path), "--report", "json"])
    payload = json.loads(capsys.readouterr().out)
    sol_path = tmp_path / "solution.txt"
    sol_path.write_text(
        serialize_solution(np.array(payload["F"]), np.array(payload["G"]))
    )
    rc2 = cli_main(["verify", str(prob_path), str(sol_path)])
    capsys.readouterr()
    results["round-trip"] = (rc == 0 and rc2 == 0, f"assign={rc} verify={rc2}, want 0/0")

    bad_path = tmp_path / "bad.txt"
    bad_path.write_text("garbage\n")
    rc = cli_main(["assign", str(bad_path)])
    capsys.readouterr()
    results["parse-error"] = (rc == 1, f"exit {rc}, want 1")

    infeasible = tmp_path / "infeasible.txt"
    infeasible.write_text("2 1 0\n1 0\n0 1\n1 0\n0 1\n1\n0\n")
    rc = cli_main(["assign", str(infeasible)])
    capsys.readouterr()
    results["validation-failure"] = (rc == 1, f"exit {rc}, want 1")

    # The solver's accuracy loss on product-factor E at n >= 60 makes this
    # validated instance unsolvable (see unsolvable_instance).  Should a
    # solver change make it solvable, this case needs a new instance.
    unsolvable_path = tmp_path / "unsolvable.txt"
    unsolvable_path.write_text(serialize_problem(unsolvable_instance()))
    rc = cli_main(["assign", str(unsolvable_path)])
    capsys.readouterr()
    results["degenerate-step"] = (rc == 2, f"exit {rc}, want 2")

    for name, argv in (
        # the option that chose between pole-processing orders is gone
        ("usage-removed-option", ["assign", str(prob_path), "--order", "inf-first"]),
        # the verification tolerance is fixed, not an option
        ("usage-removed-tol-assign", ["assign", str(prob_path), "--tol", "1e-6"]),
        ("usage-removed-tol-verify", ["verify", str(prob_path), str(sol_path), "--tol", "1e-6"]),
        ("usage-bad-choice", ["assign", str(prob_path), "--report", "xml"]),
        ("usage-missing-option", ["bench", "--n", "5"]),
    ):
        rc = cli_main(argv)
        capsys.readouterr()
        results[name] = (rc == 1, f"exit {rc}, want 1")
    rc = cli_main(["assign", "-h"])
    capsys.readouterr()
    results["help"] = (rc == 0, f"exit {rc}, want 0")

    rng = np.random.default_rng(3)
    defective = Problem(
        E=np.eye(4),
        A=rng.standard_normal((4, 4)),
        B=rng.standard_normal((4, 1)),
        poles=tuple(PolePair.from_value(-1.0) for _ in range(4)),
        r=4,
    )
    defect_path = tmp_path / "defective.txt"
    defect_path.write_text(serialize_problem(defective))
    rc = cli_main(["assign", str(defect_path)])
    capsys.readouterr()
    results["failed-verification"] = (rc == 3, f"exit {rc}, want 3")

    zero_path = tmp_path / "zero.txt"
    zero_path.write_text(serialize_solution(np.zeros((2, 6)), np.zeros((2, 6))))
    rc = cli_main(["verify", str(prob_path), str(zero_path)])
    capsys.readouterr()
    results["verify-mismatch"] = (rc == 3, f"exit {rc}, want 3")

    nan_path = tmp_path / "nan.txt"
    nan_path.write_text("6 2\n" + "\n".join(["nan 0 0 0 0 0"] * 4) + "\n")
    rc = cli_main(["verify", str(prob_path), str(nan_path)])
    capsys.readouterr()
    results["verify-non-finite"] = (rc == 1, f"exit {rc}, want 1")

    bad = {k: v[1] for k, v in results.items() if not v[0]}
    ok = not bad
    _report(
        9,
        ok,
        f"{len(results)} exit-code cases: " + ("all as documented" if ok else str(bad)),
    )
