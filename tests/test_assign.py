"""Factor-growing assignment steps and the full feedback pipeline."""

from __future__ import annotations

import dataclasses
import math
import types

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import schurpole.assign as assign_module
from schurpole import (
    DegenerateStepError,
    PoleKind,
    PolePair,
    Problem,
    run_pipeline,
    validate_problem,
    verify_solution,
)
from schurpole.assign import (
    _complex_pair_core,
    _isotropic_coefficients,
    _psi_rotation,
    assign_infinite_block,
    assign_real_pole,
    complete_X,
    d_delta_block,
)

from conftest import (
    make_instance,
    rank1_quadratic,
    rng_matrix,
    solve_recording,
    step_candidates,
    unsolvable_instance,
)

seeds = st.integers(min_value=0, max_value=2**32 - 1)


# ---------------------------------------------------------------------------
# building blocks


def test_d_delta_block_values():
    blk = d_delta_block(0.5, -0.25, 2.0)
    assert np.allclose(blk, [[0.5, -0.5], [0.125, 0.5]])
    # delta = 1 gives the plain rotation-like block.
    assert np.allclose(d_delta_block(0.1, 0.2, 1.0), [[0.1, 0.2], [-0.2, 0.1]])


@given(seeds, st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=4))
def test_parametrization_splits_input_range(seed, n_extra, m):
    n = m + n_extra
    b = rng_matrix(seed, n, m)
    poles = tuple(PolePair.from_value(-1.0 - k) for k in range(n))
    state = assign_infinite_block(Problem(E=np.eye(n), A=rng_matrix(seed + 1, n, n), B=b, poles=poles, r=n))
    assert state.q1.shape == (n, m)
    assert state.q2.shape == (n, n - m)
    q = np.hstack([state.q1, state.q2])
    assert np.allclose(q.T @ q, np.eye(n), atol=1e-12)
    assert np.allclose(state.q1 @ state.r, b, atol=1e-12 * max(1.0, np.linalg.norm(b)))
    assert np.linalg.norm(state.q2.T @ b) <= 1e-12 * max(1.0, np.linalg.norm(b))
    assert np.allclose(state.r, np.triu(state.r))


@pytest.mark.parametrize(
    "b, match",
    [
        pytest.param(np.ones((4, 2)), "full column rank", id="rank-deficient"),
        pytest.param(np.ones((2, 3)), "1 <= m <= n", id="more-inputs-than-states"),
    ],
)
def test_opening_the_state_checks_the_input_matrix(b, match):
    n = b.shape[0]
    poles = tuple(PolePair.from_value(-1.0 - k) for k in range(n))
    prob = Problem(E=np.eye(n), A=np.eye(n), B=b, poles=poles, r=n)
    with pytest.raises(ValueError, match=match):
        run_pipeline(prob)


def test_infinite_block_is_exact_identity_zero():
    prob = make_instance(6, 2, 2, 2, trial=0)
    k = prob.n - prob.r
    state = assign_infinite_block(prob)
    assert state.j == k
    # The prescribed blocks are written exactly, not up to rounding:
    # S gets the identity and T the zero matrix.
    assert np.array_equal(state.S, np.eye(k))
    assert np.array_equal(state.T, np.zeros((k, k)))
    # The growth invariants Q2^T A P = Xi S and Q2^T E P = Xi T hold.
    q2t = state.q2.T
    res_a = np.linalg.norm(q2t @ (prob.A @ state.P) - state.Xi @ state.S)
    res_e = np.linalg.norm(q2t @ (prob.E @ state.P) - state.Xi @ state.T)
    assert res_a <= 1e-12 * max(1.0, np.linalg.norm(prob.A))
    assert res_e <= 1e-12 * max(1.0, np.linalg.norm(prob.E))
    assert np.linalg.norm(state.P.T @ state.P - np.eye(k)) <= 1e-13
    # Columns of P span directions that E + BG will annihilate: E P lies in
    # the range of B.
    assert np.linalg.norm(state.q2.T @ prob.E @ state.P) <= 1e-12
    # Infinite poles enter only through this block, never the real step.
    with pytest.raises(ValueError, match="finite real pole"):
        assign_real_pole(state, PolePair.infinite())


def test_infinite_block_zero_count_is_empty():
    prob = make_instance(4, 2, 2, 4, trial=0)
    state = assign_infinite_block(prob)
    assert state.j == 0
    assert state.S.shape == (0, 0)


# ---------------------------------------------------------------------------
# step null space in the complement of P


def _reference_kq(prob, q2, c_s, c_t):
    """Q2^T K for a step's shifted pencil K = -(c_s A + c_t E), built from
    the problem data and the state's Q2 alone (the solver keeps
    Q2^T E P_perp and Q2^T A P_perp instead and forms each step's
    Q2^T K P_perp from those)."""
    return -(q2.T @ (c_s * prob.A + c_t * prob.E))


def _assert_spans_stacked_null_space(kq, xi, c_s, c_t, state, out, extra=0):
    y, u = step_candidates(out)
    # the u-rows rotated back into (v_s; v_t)
    c = np.hypot(abs(c_s), abs(c_t))
    v = np.vstack([np.conj(c_s) * u, np.conj(c_t) * u]) / c
    p_mat, p_perp, m = state.P, state.P_perp, state.m
    n, j = p_mat.shape
    # the state's complement basis is orthonormal and orthogonal to P
    assert p_perp.shape == (n, n - j)
    assert np.allclose(p_perp.T @ p_perp, np.eye(n - j), atol=1e-12)
    assert np.linalg.norm(p_mat.T @ p_perp) <= 1e-12
    # the step's basis: the d mapped columns, then the j free directions,
    # which have no P-component
    z1 = p_perp @ y
    z = np.block([[z1, np.zeros((n, j))], [v, assign_module._free_directions(c_s, c_t, j)]])
    # the constraint matrix of the old single block, [Q2^T K, c_s Xi, c_t Xi],
    # with p orthogonal to P as j extra rows
    row_top = np.hstack([kq, c_s * xi, c_t * xi])
    stacked = np.vstack([row_top, np.hstack([p_mat.T, np.zeros((j, 2 * j))])])
    ref = scipy.linalg.null_space(stacked)
    assert z.shape[1] == ref.shape[1] == m + j + extra
    assert np.allclose(z.conj().T @ z, np.eye(z.shape[1]), atol=1e-12)
    assert np.linalg.norm(z @ z.conj().T - ref @ ref.conj().T) <= 1e-10


def _recorded_steps(prob):
    """(args, result, reference Q2^T K) of every ``_step_basis`` call, after
    checking that the step's coefficients carry the pole its block of
    (S, T) holds: lambda = -c_t / c_s."""
    sol, calls = solve_recording(prob, "_step_basis")
    steps = []
    for args, out in calls:
        state, kp, c_s, c_t, _ = args
        j = state.j
        width = 2 if np.iscomplexobj(kp) else 1
        blk = slice(j, j + width)
        lams = scipy.linalg.eigvals(sol.S[blk, blk], sol.T[blk, blk])
        assert np.min(np.abs(lams - (-c_t / c_s))) <= 1e-12 * max(1.0, abs(c_t / c_s))
        kq = _reference_kq(prob, state.q2, c_s, c_t)
        # the hoisted Q2^T K P_perp agrees with the product formed afresh
        assert np.linalg.norm(kp - kq @ state.P_perp) <= 1e-12 * max(1.0, np.linalg.norm(kq))
        steps.append((args, out, kq))
    return steps


def test_step_null_basis_spans_the_stacked_null_space():
    kinds = set()
    # the second has no infinite poles, so its first step has no prior
    # columns; the fourth has m > n - m, so most of its steps have
    # j > n - m, where every row is reached and null(Xi) adds directions
    cases = (
        make_instance(6, 3, 2, 4, trial=3),
        make_instance(6, 3, 3, 6, trial=1),
        make_instance(30, 15, 2, 17),
        make_instance(30, 15, 28, 30),
    )
    for prob in cases:
        for (state, kp, c_s, c_t, what), out, kq in _recorded_steps(prob):
            kinds.add((what, np.iscomplexobj(kp), state.j > 0, state.j > state.n - state.m))
            _assert_spans_stacked_null_space(kq, state.Xi, c_s, c_t, state, out)
    assert {(w, c) for w, c, *_ in kinds} == {("real-pole step", False), ("complex-pair step", True)}
    assert {first for _, _, first, _ in kinds} == {False, True}
    assert {reached for *_, reached in kinds} == {False, True}


def test_recorded_state_is_the_one_the_step_saw():
    # The steps write the state in place; solve_recording keeps a copy per
    # call.  Each recorded state has the step's own j, P's columns as the
    # solution has them, and the complement from which the step formed its
    # matrix kp: Q2^T E P_perp - c_s Q2^T A P_perp when c_t = -1, else
    # Q2^T A P_perp - c_t Q2^T E P_perp, to the bit.
    prob = make_instance(30, 15, 2, 17)
    sol, calls = solve_recording(prob, "_step_basis")
    assert [args[0].j for args, _ in calls] == [step.j_before for step in sol.steps[1:]]
    for (state, kp, c_s, c_t, _), _ in calls:
        assert np.array_equal(state.P, sol.P[:, : state.j])
        assert state.P_perp.shape == (prob.n, prob.n - state.j)
        if c_t == -1.0:
            assert np.array_equal(kp, state.EP_perp - c_s * state.AP_perp)
        else:
            assert c_s == -1.0 and np.array_equal(kp, state.AP_perp - c_t * state.EP_perp)


def test_step_null_basis_keeps_extra_freedom_and_refuses_too_little():
    # In the kept basis the rows of kp past j are the ones Xi does not
    # reach (Xi is zero there); the last step of each kind with at least
    # two of them is perturbed there.
    prob = make_instance(30, 15, 2, 17)
    k = prob.n - prob.m
    last_of_kind = {args[-1]: (args, kq) for args, _, kq in _recorded_steps(prob) if args[0].j <= k - 2}
    assert set(last_of_kind) == {"real-pole step", "complex-pair step"}
    for (state, _, c_s, c_t, what), kq in last_of_kind.values():
        n, j, m = state.n, state.j, state.m
        xi = state.Xi
        assert not xi[j:].any()
        # a repeated row leaves the constraint rank deficient: one more
        # null direction, which the step must keep
        kq_def = np.vstack([kq[:-1], kq[j : j + 1]])
        out = assign_module._step_basis(state, kq_def @ state.P_perp, c_s, c_t, what)
        _assert_spans_stacked_null_space(kq_def, xi, c_s, c_t, state, out, extra=1)
        # one independent row too many leaves fewer than m + j directions
        rng = np.random.default_rng(j)
        kq_more = np.vstack([kq, rng.standard_normal((1, n)).astype(kq.dtype)])
        with pytest.raises(DegenerateStepError, match="constraint matrix null space has dimension") as err:
            assign_module._step_basis(state, kq_more @ state.P_perp, c_s, c_t, what)
        assert (err.value.null_dim, err.value.needed) == (m + j - 1, m + j)


# ---------------------------------------------------------------------------
# the kept factors of Xi


def _assert_kept_factors(state, prob):
    """Xi upper triangular, [Q1 Q2] orthogonal with Q2 spanning range(B)'s
    complement, and, once j > n - m, Xi^T = Z_1 T with [Z_1 Z_2]
    orthogonal; returns whether j > n - m."""
    n, m, j = state.n, state.m, state.j
    k = n - m
    xi = state.Xi
    scale = np.linalg.norm(xi)
    assert np.linalg.norm(np.tril(xi, -1)) <= 1e-14 * scale
    q = np.hstack([state.q1, state.q2])
    assert np.linalg.norm(q.T @ q - np.eye(n)) <= 1e-13
    assert np.linalg.norm(state.q2.T @ prob.B) <= 1e-12 * np.linalg.norm(prob.B)
    if j <= k:
        return False
    z = np.hstack([state.xit_range[:j], state.xit_null[:j, : j - k]])
    assert np.linalg.norm(z.T @ z - np.eye(j)) <= 1e-13
    assert not state.xit_range[j:].any() and not state.xit_null[j:].any()
    assert np.linalg.norm(xi.T - state.xit_range[:j] @ np.triu(state.xit_r)) <= 1e-13 * scale
    return True


def test_kept_factors_hold_after_every_step():
    # After each step of n = 6, 30 and 100 solves (the state each step
    # reads, and the last one complete_X reads): the step kinds cover real
    # and complex steps, tied and untied, with j < n - m and with j > n - m
    # (an untied real step past n - m only in the n = 6 trial 1).
    cases = (
        (6, 3, 2, 4, 0),
        (6, 3, 3, 6, 1),
        (6, 5, 3, 6, 0),
        (30, 15, 2, 17, 0),
        (30, 15, 28, 30, 0),
        (100, 50, 10, 60, 0),
        (100, 40, 60, 100, 0),
    )
    seen = set()
    for *case, trial in cases:
        prob = make_instance(*case, trial=trial)
        sol, calls = solve_recording(prob, "_step_basis")
        for step, ((state, *_), _) in zip(sol.steps[1:], calls):
            beyond = _assert_kept_factors(state, prob)
            width = 1 if step.kind == "real" else 2
            if not beyond and state.j + width <= state.n - state.m:
                seen.add((step.kind, step.tied, "j < n-m"))
            elif beyond:
                seen.add((step.kind, step.tied, "j > n-m"))
        _, (((final,), _),) = solve_recording(prob, "complete_X")
        assert final.j == prob.n and _assert_kept_factors(final, prob)
    assert seen == {(kind, tied, where) for kind in ("real", "complex") for tied in (True, False) for where in ("j < n-m", "j > n-m")}


def test_rank_deficient_xi_is_refused():
    # A repeated column of Xi is a zero new diagonal of its triangle: the
    # kept factors do not hold the null direction it adds, so the step
    # that wrote it raises, naming the dimension null(Xi) reached and the
    # one full rank leaves.  No LinAlgError, inf or NaN, and no answer.
    prob = make_instance(30, 15, 2, 17)
    state = assign_infinite_block(prob)
    j = state.j
    xi = state.Xi.copy()
    assert j < prob.n - prob.m
    with pytest.raises(DegenerateStepError, match="Xi lost full column rank") as err:
        _with_xi(prob, np.hstack([xi, xi[:, :1]]))
    assert (err.value.step, err.value.null_dim, err.value.needed) == ("infinite-block", 1, 0)
    # the same repeated column written by a step.  Once j > n - m, Xi has
    # full row rank from its first n - m columns on and cannot lose it.
    target = j + 3
    original = assign_module._reflect_xi

    def repeating(state, i):
        if i == target:
            state.xi_buf[:, i] = state.xi_buf[:, 0]
        return original(state, i)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(assign_module, "_reflect_xi", repeating)
        with pytest.raises(DegenerateStepError, match="Xi lost full column rank") as err:
            run_pipeline(prob)
    assert err.value.step in ("real", "complex") and err.value.pole_index is not None
    assert (err.value.null_dim, err.value.needed) == (1, 0)


def test_one_step_formula_factorizes_only_the_unreached_rows():
    # Every orthonormal_null_basis call after the infinite block's: the
    # unreached rows of its step, at most n - m - j of them, or the null
    # basis of a tied step's X_s (or, once j > n - m, of its small factor).
    # No call sees the stacked (n - m) x n matrix of a step with j > 0.
    kinds = set()
    for case in ((30, 15, 2, 17), (30, 15, 28, 30), (100, 50, 10, 60), (100, 40, 60, 100)):
        prob = make_instance(*case)
        n, m = prob.n, prob.m
        calls, current = [], {}
        basis_fn, null_fn = assign_module._step_basis, assign_module.orthonormal_null_basis

        def step_basis(state, *args):
            current["j"], current["inside"] = state.j, True
            try:
                return basis_fn(state, *args)
            finally:
                current["inside"] = False

        def null_basis(mat):
            calls.append((mat.shape, current.get("j"), current.get("inside")))
            return null_fn(mat)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(assign_module, "_step_basis", step_basis)
            patch.setattr(assign_module, "orthonormal_null_basis", null_basis)
            sol = run_pipeline(prob)
        assert calls[0] == ((n - m, n), None, None)  # the infinite block's Q2^T E
        for (rows, cols), j, inside in calls[1:]:
            if inside:
                assert rows == n - m - j and cols == n - j
                kinds.add("unreached")
            else:
                assert rows in (j, n - m) and rows + cols < n - m + n
                kinds.add("tied")
        assert sum(inside for *_, inside in calls[1:]) == sum(s.j_before < n - m for s in sol.steps[1:])
    assert kinds == {"unreached", "tied"}


# ---------------------------------------------------------------------------
# full pipeline on a standard state-space system


def test_state_space_assignment_matches_inverse_reduction():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 2))
    targets = (
        PolePair.from_value(-1.0),
        PolePair.from_value(-2.0),
        PolePair.from_value(-3.0 + 1.0j),
    )
    prob = Problem(E=np.eye(4), A=a, B=b, poles=targets, r=4)
    sol = run_pipeline(prob)
    a_c = a + b @ sol.F
    e_c = np.eye(4) + b @ sol.G
    got = np.sort_complex(np.linalg.eigvals(np.linalg.solve(e_c, a_c)))
    want = np.sort_complex(np.array([-1.0, -2.0, -3.0 + 1.0j, -3.0 - 1.0j]))
    assert np.allclose(got, want, atol=1e-8)


def test_pipeline_residual_identities():
    # The second instance has a single input (m = 1), which
    # test_pipeline_invariants_random does not sample; the last two have a
    # square B (m = n = 3), where complete_X has no complement to add.
    a, b = rng_matrix(0, 3, 3), rng_matrix(100, 3, 3)
    square_b = (
        Problem(E=np.eye(3), A=a, B=b, poles=(PolePair.from_value(-1.0), PolePair.from_value(-2.0 + 1.0j)), r=3),
        Problem(
            E=np.diag([1.0, 1.0, 0.0]),
            A=a,
            B=b,
            poles=(PolePair.infinite(), PolePair.from_value(-1.0), PolePair.from_value(-2.0)),
            r=2,
        ),
    )
    for prob in (make_instance(6, 3, 3, 5, trial=2), make_instance(6, 3, 1, 3, trial=1)) + square_b:
        sol = run_pipeline(prob)
        a_c = prob.A + prob.B @ sol.F
        e_c = prob.E + prob.B @ sol.G
        scale = np.linalg.norm(prob.A) + np.linalg.norm(prob.E) + np.linalg.norm(sol.X)
        assert np.linalg.norm(a_c @ sol.P - sol.X @ sol.S) <= 1e-10 * scale
        assert np.linalg.norm(e_c @ sol.P - sol.X @ sol.T) <= 1e-10 * scale
        assert np.linalg.norm(sol.P.T @ sol.P - np.eye(prob.n)) <= 1e-12 * prob.n
        # S, T are upper (quasi-)triangular by construction.
        assert np.allclose(sol.S, np.triu(sol.S, -1))
        assert np.allclose(sol.T, np.triu(sol.T, -1))


@settings(max_examples=25)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([(4, 2, 2), (5, 3, 2), (6, 2, 3), (6, 5, 4)]),
)
def test_pipeline_invariants_random(seed, shape):
    n, rank_e, m = shape
    q = min(n, rank_e + m)
    r = q - (seed % (m + 1))
    prob = make_instance(n, rank_e, m, r, trial=seed % 11, seed=seed)
    sol = run_pipeline(prob)
    a_c = prob.A + prob.B @ sol.F
    e_c = prob.E + prob.B @ sol.G
    scale = np.linalg.norm(prob.A) + np.linalg.norm(prob.E) + np.linalg.norm(sol.X)
    assert np.linalg.norm(a_c @ sol.P - sol.X @ sol.S) <= 1e-10 * scale
    assert np.linalg.norm(e_c @ sol.P - sol.X @ sol.T) <= 1e-10 * scale
    assert np.linalg.norm(sol.P.T @ sol.P - np.eye(n)) <= 1e-12 * n
    assert sol.F.shape == (m, n) and sol.G.shape == (m, n)
    assert np.all(np.isfinite(sol.F)) and np.all(np.isfinite(sol.G))


def test_degenerate_step_error_names_the_failing_step():
    prob = unsolvable_instance()
    with pytest.raises(DegenerateStepError) as err:
        run_pipeline(prob)
    exc = err.value
    # poles are processed reals first (ascending), then complex pairs
    queue = sorted((p for p in prob.finite_poles if p.kind is PoleKind.FINITE_REAL), key=lambda p: p.value.real)
    queue += [p for p in prob.finite_poles if p.kind is PoleKind.FINITE_COMPLEX]
    assert f"(while assigning pole {exc.pole_index} of {len(queue)})" in str(exc)
    kind = "complex" if queue[exc.pole_index - 1].kind is PoleKind.FINITE_COMPLEX else "real"
    assert exc.step == kind == "complex"
    # its null space had the m + j directions a step needs; the direction
    # matrix Z1 vanished, so no dimension is reported as short
    assert "Z1 vanishes" in str(exc)
    assert exc.null_dim is None and exc.needed is None
    # the infinite block reports the dimension it found and the one asked
    small = dataclasses.replace(make_instance(6, 2, 2, 2), poles=(PolePair.infinite(),) * 6, r=0)
    with pytest.raises(DegenerateStepError, match="too many infinite poles") as err:
        assign_infinite_block(small)
    assert (err.value.step, err.value.null_dim, err.value.needed) == ("infinite-block", 4, 6)


@pytest.mark.parametrize("n, r", [(4, 1), (4, 2), (8, 1), (8, 2)])
def test_pipeline_solves_e_inside_the_input_range(n, r):
    # E = B W: Q2^T E is zero, and computes as rounding.  Judged against its
    # own largest singular value that rounding had full rank, so the
    # infinite block saw m null directions instead of n and refused the
    # n - r > m infinite poles of the cases with r < n - m.
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, 2))
    e = b @ rng.standard_normal((2, n))
    poles = (PolePair.infinite(),) * (n - r) + tuple(PolePair.from_value(-1.0 - k) for k in range(r))
    prob = Problem(E=e, A=a, B=b, poles=poles, r=r)
    assert validate_problem(prob).passed
    sol = run_pipeline(prob)
    assert sol.steps[0].null_dim == n
    rep = verify_solution(prob, sol)
    assert rep.passed and rep.precs <= -12, rep.failure
    assert rep.infinite_count == n - r


def _with_xi(prob, xi):
    """The infinite block's state of ``prob`` with Xi replaced by ``xi``
    (all its columns) and its kept factors opened from it afresh."""
    state = assign_infinite_block(prob)
    state.xi_buf[:, : xi.shape[1]], state.j = xi, xi.shape[1]
    assign_module._open_xi_factors(state)
    return state


def test_complete_x_extends_xi_by_an_orthonormal_complement():
    prob = make_instance(6, 3, 2, 4)
    xi = rng_matrix(3, 4, 6)
    q2_xi = assign_infinite_block(prob).q2 @ xi
    state = _with_xi(prob, xi)
    # the kept factor rotates Q2 and Xi together: Q2 Xi is unchanged
    assert np.linalg.norm(state.q2 @ state.Xi - q2_xi) <= 1e-14 * np.linalg.norm(q2_xi)
    x = complete_X(state)
    y = (state.q1.T @ x).T
    assert np.linalg.norm(state.q1 @ y.T + q2_xi - x) <= 1e-14 * np.linalg.norm(x)
    assert np.linalg.norm(y.T @ y - np.eye(2)) <= 1e-14
    assert np.linalg.norm(xi @ y) <= 1e-14 * np.linalg.norm(xi)
    # Xi with a repeated row has an m + 1 dimensional null space
    xi[-1] = xi[0]
    with pytest.raises(DegenerateStepError, match="Xi lost full row rank"):
        _with_xi(prob, xi)


@pytest.mark.parametrize(
    "finite",
    [
        pytest.param((-1.0, -1.0, -2.0, -3.0, -0.5 + 1.0j), id="double-real"),
        pytest.param((-1.0 + 2.0j, -1.0 + 2.0j, -1.0, -2.0), id="double-complex-pair"),
    ],
)
def test_pipeline_assigns_a_repeated_pole(finite):
    # A pole repeated at most m times: the step for its second copy shifts
    # the pencil to a pole already in (S, T).  The answer must still pass
    # the independent verification (n = 8, m = 3, rank E = 6, two infinite
    # poles).
    base = make_instance(8, 6, 3, 6)
    poles = (PolePair.infinite(),) * 2 + tuple(PolePair.from_value(v) for v in finite)
    prob = Problem(E=base.E, A=base.A, B=base.B, poles=poles, r=6)
    sol = run_pipeline(prob)
    rep = verify_solution(prob, sol)
    assert rep.passed, (rep.precs, rep.infinite_count, rep.index_ok)
    assert rep.infinite_count == 2


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_triple_pole_is_warned_and_refused(seed):
    # A real pole of multiplicity 3 <= m on E = I (n = 8, m = 3): the solver
    # places it as a defective eigenvalue, matched only to about
    # eps**(1/3) (precs -4.8 to -5.3 on these draws), and verify_solution
    # refuses the answer.  validate_problem passes the instance but must say
    # so in advance.  If a solver change assigns the pole semisimply, the
    # refusal here is what changes, not the warning.
    poles = tuple(PolePair.from_value(v) for v in (-1.0, -1.0, -1.0, -2.0, -3.0, -4.0, -5.0, -6.0))
    prob = Problem(E=np.eye(8), A=rng_matrix(seed, 8, 8), B=rng_matrix(seed + 100, 8, 3), poles=poles, r=8)
    val = validate_problem(prob)
    assert val.passed
    (warning,) = val.warnings
    assert "-1+0j has multiplicity 3;" in warning and "eps**(1/3) = 6.1e-06" in warning
    rep = verify_solution(prob, run_pipeline(prob))
    assert not rep.passed
    assert -6.0 < rep.precs < -4.0


def test_pipeline_is_deterministic():
    prob = make_instance(6, 3, 2, 4, trial=5)
    s1 = run_pipeline(prob)
    s2 = run_pipeline(prob)
    assert np.array_equal(s1.F, s2.F)
    assert np.array_equal(s1.G, s2.G)
    assert np.array_equal(s1.P, s2.P)
    assert np.array_equal(s1.X, s2.X)


# ---------------------------------------------------------------------------
# the plane rotation of a complex step's top direction


@given(seeds, st.integers(min_value=2, max_value=8))
def test_psi_rotation_orthogonalizes(seed, n):
    x = rng_matrix(seed, n, 1).ravel()
    y = rng_matrix(seed + 7, n, 1).ravel()
    c, s, vs1, vs2 = _psi_rotation(x + 1j * y)
    assert np.isclose(c * c + s * s, 1.0, atol=1e-14)
    u = c * x - s * y
    w = s * x + c * y
    scale = np.linalg.norm(x) * np.linalg.norm(y)
    assert abs(u @ w) <= 1e-10 * max(1.0, scale)
    assert (vs1, vs2) == (np.linalg.norm(u), np.linalg.norm(w))
    # Angle stays in (-pi/4, pi/4]: the rotation nearest the identity.
    assert c >= np.cos(np.pi / 4.0) - 1e-14


def test_psi_rotation_of_orthogonal_parts_is_identity():
    assert _psi_rotation(np.array([1.0, 2.0j])) == (1.0, 0.0, 1.0, 2.0)


def test_psi_rotation_of_dependent_parts_is_none():
    assert _psi_rotation(np.array([1.0 + 2.0j, 2.0 + 4.0j])) is None


# ---------------------------------------------------------------------------
# complex-pair core: branch selection and optimality data


def _synthetic_stacked_basis(nu1, nu2, phase=0.0):
    """Orthonormal stacked columns whose P-part Z1 = left diag(nus) has
    singular values nu1, nu2 and a top left singular vector with
    orthogonal real/imag parts of norm 1/sqrt(2) each, returned as (left,
    nus, zv), and the step coefficients (c_s, c_t) = (-1, 0) of j = 2 free
    directions (0; e_i): no P-part, and orthogonal to zv's columns."""
    rot = np.exp(1j * phase)
    psi1 = rot * np.array([1.0, 1.0j, 0.0, 0.0]) / np.sqrt(2.0)
    psi2 = rot * np.array([0.0, 0.0, 1.0, 1.0j]) / np.sqrt(2.0)
    rest1 = np.zeros(4, dtype=complex)
    rest2 = np.zeros(4, dtype=complex)
    rest1[0] = np.sqrt(1.0 - nu1**2)
    rest2[1] = np.sqrt(1.0 - nu2**2)
    zv = np.column_stack([rest1, rest2])
    assert np.array_equal(assign_module._free_directions(-1.0, 0.0, 2), np.eye(4)[:, 2:])
    return np.column_stack([psi1, psi2]), np.array([nu1, nu2]), zv, (-1.0, 0.0)


def test_complex_core_special_geometry_objective():
    # Top direction with orthogonal half-norm real/imag parts: the
    # single-direction objective collapses to 2*(1 - nu1^2)/nu1^2 exactly.
    nu1, nu2 = 0.8, 0.5
    left, nus, zv, coeffs = _synthetic_stacked_basis(nu1, nu2)
    choice = _complex_pair_core(left, nus, zv, *coeffs, tau_pen=0.3)
    expected = 2.0 * (1.0 - nu1**2) / nu1**2  # = 1.125 for nu1 = 0.8
    assert abs(choice.rho1 - expected) <= 1e-12 * expected
    chosen = choice.rho2 if choice.branch == "hamiltonian" else choice.rho1
    assert chosen == min(choice.rho1, choice.rho2)
    assert abs(chosen - expected) <= 1e-12 * expected


def test_complex_core_objective_is_phase_invariant():
    base = None
    for phase in (0.0, 0.3, 1.2):
        left, nus, zv, coeffs = _synthetic_stacked_basis(0.8, 0.5, phase=phase)
        choice = _complex_pair_core(left, nus, zv, *coeffs, tau_pen=0.3)
        val = min(choice.rho1, choice.rho2)
        if base is None:
            base = val
        assert abs(val - base) <= 1e-10 * base


def _symplectic(x: np.ndarray) -> np.ndarray:
    """J x for the symplectic unit J = [[0, I2], [-I2, 0]]."""
    return np.concatenate([x[2:], -x[:2]])


def _equalizing_coefficients(hm: np.ndarray, c1: float, c2: float) -> np.ndarray:
    """Reference for the two-direction choice, by the 4x4 construction the
    closed form replaced: the unit coefficient vector (gamma1, gamma2,
    zeta1, zeta2) with both structural quadratic forms zero, minimizing
    2*sum_l c_l*(gamma_l^2+zeta_l^2).

    ``hm``'s quadratic form is the norm imbalance of the two produced real
    columns and the form of J*hm their inner product (J the symplectic
    unit).  J maps each +phi eigenvector of ``hm`` to a -phi one, so with
    eigenpairs (phi1, v1), (phi2, v2) every feasible point lies on one of
    the two circles spanned by the orthonormal pairs
    {R1 v1 +/- R2 Jv2, R1 Jv1 -/+ R2 v2}, R1^2 = phi2/(phi1+phi2),
    R2^2 = phi1/(phi1+phi2).  The objective restricted to a circle is a
    2x2 quadratic form, minimized by its bottom eigenvector.
    """
    obj = np.array([2.0 * c1, 2.0 * c2, 2.0 * c1, 2.0 * c2])  # the objective's diagonal
    w, vecs = np.linalg.eigh(0.5 * (hm + hm.T))
    phi1 = max(float(w[3]), 0.0)
    phi2 = max(float(w[2]), 0.0)
    if phi1 <= 1e-12 * max(1.0, np.linalg.norm(hm)):
        # both forms vanish identically: any unit vector is feasible
        u = np.zeros(4)
        u[0 if c1 <= c2 else 1] = 1.0
        return u
    if phi2 <= 1e-12 * phi1:
        # a paired zero eigenvalue: its eigenspace is entirely feasible
        basis = vecs[:, 1:3]
        g = (basis.T * obj) @ basis
        _, gv = np.linalg.eigh(0.5 * (g + g.T))
        u = basis @ gv[:, 0]
        return u / np.linalg.norm(u)
    v1 = vecs[:, 3]
    v2 = vecs[:, 2]
    r1 = np.sqrt(phi2 / (phi1 + phi2))
    r2 = np.sqrt(phi1 / (phi1 + phi2))
    # row i of (wa, wb) is circle i's orthonormal pair, sign +/-
    sgn = np.array([[1.0], [-1.0]])
    wa = r1 * v1 + sgn * (r2 * _symplectic(v2))
    wb = r1 * _symplectic(v1) - sgn * (r2 * v2)
    woa, wob = wa * obj, wb * obj
    forms = np.array([[[woa[i] @ wa[i], woa[i] @ wb[i]], [woa[i] @ wb[i], wob[i] @ wb[i]]] for i in range(2)])
    gw, gv = np.linalg.eigh(forms)
    best = 0 if gw[0, 0] <= gw[1, 0] else 1
    best_u = gv[best, 0, 0] * wa[best] + gv[best, 1, 0] * wb[best]
    return best_u / np.linalg.norm(best_u)


def _structural_forms(psi):
    """The 4x4 form ``hm`` of two complex columns psi: for
    p = psi (gamma + i zeta), the forms of hm and of J*hm at
    (gamma; zeta) are Re(p^T p) = ||Re p||^2 - ||Im p||^2 and, up to
    sign, Im(p^T p) = 2 Re p . Im p."""
    kr, ki = psi.real, psi.imag
    cmat = kr.T @ kr - ki.T @ ki
    dmat = kr.T @ ki + ki.T @ kr
    return np.block([[cmat, -dmat], [-dmat, -cmat]])


def _unit_isotropic(psi):
    """The closed form's unit (gamma1, gamma2, zeta1, zeta2) for the two
    columns psi, and its complex g = gamma + i zeta."""
    g = _isotropic_coefficients(psi)
    g = g / np.linalg.norm(g)
    return np.concatenate([g.real, g.imag]), g


def _weights(nus):
    """c_l = (1 - nu_l^2) / nu_l^2 of the two leading directions."""
    return [(1.0 - float(nu) ** 2) / float(nu) ** 2 for nu in nus[:2]]


def test_complex_core_two_direction_bound():
    rng = np.random.default_rng(11)
    jmat = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])
    exercised = 0
    for _ in range(20):
        raw = rng.standard_normal((9, 2)) + 1j * rng.standard_normal((9, 2))
        q, _ = np.linalg.qr(raw)  # orthonormal stacked columns
        scale = np.diag([0.9, 0.6])
        cols = q @ scale  # singular values 0.9 and 0.6 overall
        z1, zv = cols[:5], cols[5:]
        nus = np.linalg.svd(z1, compute_uv=False)
        if nus.size < 2 or nus[1] <= 1e-8 * nus[0] or nus[0] >= 1.0 - 1e-9:
            continue
        # the two-direction branches never read the free directions; the
        # core takes the columns rotated by Z1's right singular vectors
        u, nus, vh = np.linalg.svd(z1, full_matrices=False)
        choice = _complex_pair_core(u, nus, zv @ vh.conj().T, 1.0, 0.0, tau_pen=0.5)
        if choice.branch not in ("hamiltonian", "jacobi"):
            continue
        exercised += 1
        c1, c2 = _weights(nus)
        assert c2 == (1.0 - choice.nu2**2) / choice.nu2**2
        assert choice.rho2 <= 2.0 * c2 * (1.0 + 1e-12)
        chosen = choice.rho2 if choice.branch == "hamiltonian" else choice.rho1
        assert chosen == min(choice.rho1, choice.rho2)
        # the coefficients behind rho2, the closed form's: a unit vector on
        # which both structural forms vanish, with rho2 as its objective
        hm = _structural_forms(u[:, :2])
        coeff, _ = _unit_isotropic(u[:, :2])
        assert np.isclose(np.linalg.norm(coeff), 1.0, atol=1e-12)
        assert abs(coeff @ hm @ coeff) <= 1e-12 and abs(coeff @ jmat @ hm @ coeff) <= 1e-12
        rho2 = 2.0 * (c1 * (coeff[0] ** 2 + coeff[2] ** 2) + c2 * (coeff[1] ** 2 + coeff[3] ** 2))
        assert choice.rho2 == pytest.approx(rho2, rel=1e-12)
    assert exercised >= 10


def test_two_direction_choice_matches_the_equalizing_reference():
    # Both forms vanish exactly when p^T p = 0, so the feasible set is the
    # two complex lines g ~ (1, t) of the roots t of a 2x2 quadratic, and
    # rho2 = 2 (c1 |g1|^2 + c2 |g2|^2) / |g|^2 is constant on each: the
    # reference's circles carry no further choice, and with c1 <= c2 the
    # root of smaller modulus, the closed form's, wins.  On every recorded
    # two-direction pair choice, hamiltonian and jacobi, of n = 6, n = 30
    # and n = 100 solves, the closed form's g spans the reference's complex
    # line and rho2 agrees.
    cases = [(6, 3, 3, 6, trial) for trial in range(30)] + [(30, 15, 2, 17), (100, 60, 5, 65)]
    seen = {}
    for case in cases:
        _, calls = solve_recording(make_instance(*case), "_complex_pair_core")
        for (left, nus, *_), choice in calls:
            if choice.branch == "rank1":
                continue
            seen.setdefault(case[0], set()).add(choice.branch)
            c1, c2 = _weights(nus)
            ref = _equalizing_coefficients(_structural_forms(left[:, :2]), c1, c2)
            _, g = _unit_isotropic(left[:, :2])
            assert 1.0 - abs(np.vdot(ref[:2] + 1j * ref[2:], g)) <= 1e-12
            rho2 = 2.0 * (c1 * (ref[0] ** 2 + ref[2] ** 2) + c2 * (ref[1] ** 2 + ref[3] ** 2))
            assert choice.rho2 == pytest.approx(rho2, rel=1e-12)
    assert seen == {n: {"hamiltonian", "jacobi"} for n in (6, 30, 100)}


def test_complex_core_rank1_requires_prior_columns():
    # One usable direction and free coefficients but nothing to absorb them
    # into: must refuse rather than fabricate a column.
    psi1 = np.array([1.0, 1.0j, 0.5]) / np.linalg.norm([1.0, 1.0j, 0.5])
    z1 = np.column_stack([0.9 * psi1, 0.9 * psi1 * (1.0 + 1e-12)])
    u, nus, _ = np.linalg.svd(z1, full_matrices=False)
    zv = np.zeros((0, 2), dtype=complex)
    with pytest.raises(DegenerateStepError):
        _complex_pair_core(u, nus, zv, 1.0, 0.0, tau_pen=0.3)


def test_complex_core_zero_z1_is_degenerate():
    left = np.eye(4, 2, dtype=complex)
    zv = np.zeros((4, 2), dtype=complex)
    with pytest.raises(DegenerateStepError, match="Z1 vanishes"):
        _complex_pair_core(left, np.zeros(2), zv, -1.0, 0.0, tau_pen=0.0)


def test_rank1_coefficients_solve_the_quadratic():
    # On a single-input instance the complex step has one usable direction;
    # the quadratic recomputed from the step's recorded inputs must be
    # stationary, 2 H y + h = 0, at the coefficients of the returned
    # column.  Its coefficients range over the whole null space but the top
    # direction: the d - 1 other mapped columns and the j free directions.
    prob = make_instance(6, 3, 1, 4, trial=0)
    sol, calls = solve_recording(prob, "_complex_pair_core")
    complex_steps = [s for s in sol.steps if s.kind == "complex"]
    assert [choice.branch for _, choice in calls] == [s.branch for s in complex_steps]
    rank1 = [(s, args, choice) for s, (args, choice) in zip(complex_steps, calls) if choice.branch == "rank1"]
    assert rank1, "expected at least one rank-1 complex step"
    for step, args, choice in rank1:
        assert (choice.rho1, choice.rho2) == (None, None)
        quad = rank1_quadratic(args, choice)
        assert quad.W.shape[1] == step.null_dim - 1
        if not quad.y.size:
            continue
        grad = 2.0 * quad.H @ quad.y + quad.h
        assert np.linalg.norm(grad) <= 1e-10 * max(1.0, np.linalg.norm(quad.h))


# ---------------------------------------------------------------------------
# step records


def test_step_records_cover_all_columns():
    prob = make_instance(6, 3, 2, 4, trial=3)
    sol = run_pipeline(prob)
    width = {"infinite-block": prob.n - prob.r, "real": 1, "complex": 2}
    assert sol.steps[0].kind == "infinite-block"
    j = 0
    for step in sol.steps:
        assert step.j_before == j
        j += width[step.kind]
    assert j == prob.n
    # The measured null-space dimensions follow the growth law m + j for
    # every step after the infinite block.
    for step in sol.steps[1:]:
        assert step.null_dim == prob.m + step.j_before


def test_step_records_hold_scalars_measured_from_the_step():
    # A Solution keeps F, G, P, S, T, X and scalar step records, never a
    # step's null-space basis; null_dim is the width of the basis the step
    # used, p_share its P-component share of the chosen direction and tied
    # whether the step had more mapped directions than prior columns plus
    # its width, so that it took P-share-1 directions without coupling,
    # and without the pair choice.
    # The n = 30 instance with m = 28 ties its real steps and its pairs; the
    # n = 6 one has only pairs, one of them with one direction of P-share 1
    # (j + 1 = d), which is not tied.
    tied_kinds, untied_kinds = set(), set()
    cases = {
        (30, 15, 3, 18): {"real", "complex"},
        (100, 50, 10, 60): {"real", "complex"},
        (30, 15, 28, 30): {"real", "complex"},
        (6, 5, 3, 6): {"complex"},
    }
    for case, kinds in cases.items():
        prob = make_instance(*case)
        sol, calls = solve_recording(prob, "_step_basis")
        # the pair choice runs once per untied pair, on its d mapped columns
        _, choices = solve_recording(prob, "_complex_pair_core")
        untied_pairs = [s for s in sol.steps if s.kind == "complex" and not s.tied]
        assert [args[1].size for args, _ in choices] == [s.null_dim - s.j_before for s in untied_pairs]
        arrays = {f.name for f in dataclasses.fields(sol) if isinstance(getattr(sol, f.name), np.ndarray)}
        assert arrays == {"F", "G", "P", "S", "T", "X"}
        for step in sol.steps:
            for f in dataclasses.fields(step):
                assert type(getattr(step, f.name)) in (bool, int, float, str, type(None)), (step.kind, f.name)
        finite_steps = sol.steps[1:]
        assert {s.kind for s in finite_steps} == kinds, case
        assert len(calls) == len(finite_steps)
        for step, (args, basis) in zip(finite_steps, calls):
            y, u = step_candidates(basis)
            p_perp = args[0].P_perp
            j = step.j_before
            width = 1 if step.kind == "real" else 2
            # the Householder-updated complement stays orthonormal and
            # orthogonal to P over every step of an n = 100 solve
            assert np.linalg.norm(p_perp.T @ p_perp - np.eye(prob.n - j)) <= 1e-13
            assert np.linalg.norm(sol.P[:, :j].T @ p_perp) <= 1e-13
            # d mapped columns plus the j free directions
            assert step.null_dim == y.shape[1] + j
            assert u.shape == (j, y.shape[1])
            assert step.tied == (j + width <= y.shape[1])
            (tied_kinds if step.tied else untied_kinds).add(step.kind)
            if step.tied:
                # its directions have P-share 1, and the step's columns of
                # S and T gain nothing above the diagonal
                assert step.p_share == pytest.approx(1.0, rel=1e-12)
                assert not sol.S[:j, j : j + width].any() and not sol.T[:j, j : j + width].any()
            if step.kind == "real":
                # the unit column [p; v_s; v_t] * scale has P-component scale
                added = np.linalg.norm(sol.S[:j, j]) ** 2 + np.linalg.norm(sol.T[:j, j]) ** 2
                assert step.p_share == pytest.approx(1.0 / (1.0 + added), rel=1e-10)
                assert step.branch is None and step.rho2 is None
                continue
            # Z1 = [P_perp Y, 0] has the singular values of P_perp Y
            nus = np.linalg.svd(p_perp @ y, compute_uv=False)
            assert step.p_share == pytest.approx(nus[0] ** 2, rel=1e-10)
            if step.tied:
                # no choice made, and a normal 2x2 block: delta = 1 in the
                # D = [[sigma, delta*tau], [-tau/delta, sigma]] of S or T
                assert (step.branch, step.nu2, step.rho1, step.rho2) == (None, None, None, None)
                block = sol.S[j : j + 2, j : j + 2]
                if np.array_equal(block, np.eye(2)):
                    block = sol.T[j : j + 2, j : j + 2]
                assert math.sqrt(-block[0, 1] / block[1, 0]) == pytest.approx(1.0, abs=1e-12)
            else:
                assert step.nu2 == pytest.approx(nus[1], rel=1e-8, abs=1e-14)
                assert step.branch in ("rank1", "hamiltonian", "jacobi")
    # both kinds of step take both paths: the tie rule and the choice from
    # an SVD
    assert tied_kinds == untied_kinds == {"real", "complex"}


def test_tied_pair_combination_is_isotropic_and_continuous():
    # Every pair that combines two directions takes their isotropic
    # combination p = W g: a tied pair the first two columns W of its
    # Householder basis (n = 30 and n = 100 solves), an untied hamiltonian
    # pair the two leading mapped directions ``left`` (n = 6 and n = 30
    # solves).  Under a 1e-15 relative perturbation of W or ``left``, p
    # stays isotropic (p^T p = 0 to rounding) and the unit p, its phase
    # within span(Re p, Im p) included, moves by rounding, not by an
    # arbitrary pick.
    rng = np.random.default_rng(24)
    tied, untied = [], []
    for case in ((30, 15, 28, 30), (100, 40, 60, 100)):
        _, calls = solve_recording(make_instance(*case), "_isotropic_coefficients")
        tied += [args[0] for args, _ in calls]
    for case in [(6, 3, 3, 6, trial) for trial in range(30)] + [(30, 15, 15, 30), (30, 2, 28, 30)]:
        _, calls = solve_recording(make_instance(*case), "_complex_pair_core")
        untied += [args for args, choice in calls if choice.branch == "hamiltonian"]
    assert len(tied) >= 20 and len(untied) >= 40

    def unit_p(w, args=None):
        if args is None:
            p = w @ _isotropic_coefficients(w)
        else:
            choice = _complex_pair_core(w, *args)
            assert choice.branch == "hamiltonian"
            p = choice.p
        assert abs(p @ p) <= 1e-14 * np.vdot(p, p).real
        return p / np.linalg.norm(p)

    def perturbed(w):
        noise = rng.standard_normal(w.shape) + 1j * rng.standard_normal(w.shape)
        return w * (1.0 + 1e-15 * noise)

    for w in tied:
        assert np.linalg.norm(unit_p(perturbed(w)) - unit_p(w)) <= 1e-12
    for left, *rest in untied:
        assert np.linalg.norm(unit_p(perturbed(left), rest) - unit_p(left, rest)) <= 1e-12

    # the degenerate forms: W^T W = 0, where W's first column is taken,
    # and a != 0 = b = c, where its second is
    w1, w2, e1 = np.array([1.0, 1j, 0.0, 0.0]), np.array([0.0, 0.0, 1.0, 1j]), np.eye(4)[:, 0]
    assert np.array_equal(_isotropic_coefficients(np.column_stack([w1, w2])), [1.0, 0.0])
    assert np.array_equal(_isotropic_coefficients(np.column_stack([e1, w2])), [0.0, 1.0])
