"""Factor-growing assignment steps and the full feedback pipeline."""

from __future__ import annotations

import dataclasses
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
    _psi_rotation,
    assign_infinite_block,
    assign_real_pole,
    complete_X,
    d_delta_block,
)

from conftest import make_instance, rank1_quadratic, rng_matrix, solve_recording, unsolvable_instance

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
    the problem data and B's factor Q2 alone (the solver keeps Q2^T E P_perp
    and Q2^T A P_perp instead and forms each step's Q2^T K P_perp from
    those)."""
    return -(q2.T @ (c_s * prob.A + c_t * prob.E))


def _assert_spans_stacked_null_space(kq, xi, c_s, c_t, state, out, extra=0):
    y, v = out
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
    """(args, result, reference Q2^T K) of every ``_step_null_basis`` call,
    after checking that the step's coefficients carry the pole its block
    of (S, T) holds: lambda = -c_t / c_s."""
    sol, calls = solve_recording(prob, "_step_null_basis")
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
    # the second has no infinite poles, so its first step has no prior columns
    cases = (
        make_instance(6, 3, 2, 4, trial=3),
        make_instance(6, 3, 3, 6, trial=1),
        make_instance(30, 15, 2, 17),
    )
    for prob in cases:
        for (state, kp, c_s, c_t, what), out, kq in _recorded_steps(prob):
            kinds.add((what, np.iscomplexobj(kp), state.j > 0))
            _assert_spans_stacked_null_space(kq, state.Xi, c_s, c_t, state, out)
    assert {(w, c) for w, c, _ in kinds} == {("real-pole step", False), ("complex-pair step", True)}
    assert {first for *_, first in kinds} == {False, True}


def test_recorded_state_is_the_one_the_step_saw():
    # The steps write the state in place; solve_recording keeps a copy per
    # call.  Each recorded state has the step's own j, P's columns as the
    # solution has them, and the complement from which the step formed its
    # matrix kp: Q2^T E P_perp - c_s Q2^T A P_perp when c_t = -1, else
    # Q2^T A P_perp - c_t Q2^T E P_perp, to the bit.
    prob = make_instance(30, 15, 2, 17)
    sol, calls = solve_recording(prob, "_step_null_basis")
    assert [args[0].j for args, _ in calls] == [step.j_before for step in sol.steps[1:]]
    for (state, kp, c_s, c_t, _), _ in calls:
        assert np.array_equal(state.P, sol.P[:, : state.j])
        assert state.P_perp.shape == (prob.n, prob.n - state.j)
        if c_t == -1.0:
            assert np.array_equal(kp, state.EP_perp - c_s * state.AP_perp)
        else:
            assert c_s == -1.0 and np.array_equal(kp, state.AP_perp - c_t * state.EP_perp)


def _with_xi(state, xi):
    """What ``_step_null_basis`` reads of a state (j, m and Xi), with Xi
    replaced; ``xi`` may have a row more than the state's buffer holds."""
    return types.SimpleNamespace(j=state.j, m=state.m, Xi=xi)


def test_step_null_basis_keeps_extra_freedom_and_refuses_too_little():
    prob = make_instance(30, 15, 2, 17)
    last_of_kind = {args[-1]: (args, kq) for args, _, kq in _recorded_steps(prob)}
    assert set(last_of_kind) == {"real-pole step", "complex-pair step"}
    for (state, _, c_s, c_t, what), kq in last_of_kind.values():
        n, j, m = state.n, state.j, state.m
        xi = state.Xi
        # a repeated row leaves the constraint rank deficient: one more
        # null direction, which the step must keep
        kq_def, xi_def = np.vstack([kq[:-1], kq[:1]]), np.vstack([xi[:-1], xi[:1]])
        deficient = _with_xi(state, xi_def)
        out = assign_module._step_null_basis(deficient, kq_def @ state.P_perp, c_s, c_t, what)
        _assert_spans_stacked_null_space(kq_def, xi_def, c_s, c_t, state, out, extra=1)
        # one independent row too many leaves fewer than m + j directions
        rng = np.random.default_rng(j)
        kq_more = np.vstack([kq, rng.standard_normal((1, n)).astype(kq.dtype)])
        more = _with_xi(state, np.vstack([xi, rng.standard_normal((1, j))]))
        with pytest.raises(DegenerateStepError, match="constraint matrix null space has dimension") as err:
            assign_module._step_null_basis(more, kq_more @ state.P_perp, c_s, c_t, what)
        assert (err.value.null_dim, err.value.needed) == (m + j - 1, m + j)


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


def test_complete_x_extends_xi_by_an_orthonormal_complement():
    prob = make_instance(6, 3, 2, 4)
    state = assign_infinite_block(prob)
    xi = rng_matrix(3, 4, 6)
    state.xi_buf[:], state.j = xi, prob.n
    x = complete_X(state)
    y = (state.q1.T @ x).T
    assert np.linalg.norm(state.q1 @ y.T + state.q2 @ xi - x) <= 1e-14 * np.linalg.norm(x)
    assert np.linalg.norm(y.T @ y - np.eye(2)) <= 1e-14
    assert np.linalg.norm(xi @ y) <= 1e-14 * np.linalg.norm(xi)
    # Xi with a repeated row has an m + 1 dimensional null space
    state.xi_buf[-1] = xi[0]
    with pytest.raises(DegenerateStepError, match="Xi lost full row rank"):
        complete_X(state)


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
    """Orthonormal stacked columns whose z1 part has singular values nu1, nu2
    and whose top left singular vector has orthogonal real/imag parts of
    norm 1/sqrt(2) each, and the step coefficients (c_s, c_t) = (-1, 0) of
    j = 2 free directions (0; e_i): no P-part, and orthogonal to zv's
    columns."""
    rot = np.exp(1j * phase)
    psi1 = rot * np.array([1.0, 1.0j, 0.0, 0.0]) / np.sqrt(2.0)
    psi2 = rot * np.array([0.0, 0.0, 1.0, 1.0j]) / np.sqrt(2.0)
    z1 = np.column_stack([nu1 * psi1, nu2 * psi2])
    rest1 = np.zeros(4, dtype=complex)
    rest2 = np.zeros(4, dtype=complex)
    rest1[0] = np.sqrt(1.0 - nu1**2)
    rest2[1] = np.sqrt(1.0 - nu2**2)
    zv = np.column_stack([rest1, rest2])
    assert np.array_equal(assign_module._free_directions(-1.0, 0.0, 2), np.eye(4)[:, 2:])
    return z1, zv, (-1.0, 0.0)


def test_complex_core_special_geometry_objective():
    # Top direction with orthogonal half-norm real/imag parts: the
    # single-direction objective collapses to 2*(1 - nu1^2)/nu1^2 exactly.
    nu1, nu2 = 0.8, 0.5
    z1, zv, coeffs = _synthetic_stacked_basis(nu1, nu2)
    choice = _complex_pair_core(z1, zv, *coeffs, tau_pen=0.3)
    expected = 2.0 * (1.0 - nu1**2) / nu1**2  # = 1.125 for nu1 = 0.8
    assert abs(choice.rho1 - expected) <= 1e-12 * expected
    chosen = choice.rho2 if choice.branch == "hamiltonian" else choice.rho1
    assert chosen == min(choice.rho1, choice.rho2)
    assert abs(chosen - expected) <= 1e-12 * expected


def test_complex_core_objective_is_phase_invariant():
    base = None
    for phase in (0.0, 0.3, 1.2):
        z1, zv, coeffs = _synthetic_stacked_basis(0.8, 0.5, phase=phase)
        choice = _complex_pair_core(z1, zv, *coeffs, tau_pen=0.3)
        val = min(choice.rho1, choice.rho2)
        if base is None:
            base = val
        assert abs(val - base) <= 1e-10 * base


def _equalizing_data(z1, nu1, nu2):
    """The two-direction choice's inputs, recomputed from z1: the form
    ``hm`` of Z1's top two left singular vectors psi (the norm imbalance of
    the two real columns; J*hm gives their inner product) and the weights
    c_l = (1 - nu_l^2) / nu_l^2."""
    psi = np.linalg.svd(z1)[0][:, :2]
    kr, ki = psi.real, psi.imag
    cmat = kr.T @ kr - ki.T @ ki
    dmat = kr.T @ ki + ki.T @ kr
    hm = np.block([[cmat, -dmat], [-dmat, -cmat]])
    return hm, (1.0 - nu1**2) / nu1**2, (1.0 - nu2**2) / nu2**2


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
        # the two-direction branches never read the free directions
        choice = _complex_pair_core(z1, zv, 1.0, 0.0, tau_pen=0.5)
        if choice.branch not in ("hamiltonian", "jacobi"):
            continue
        exercised += 1
        hm, c1, c2 = _equalizing_data(z1, choice.nu1, choice.nu2)
        assert c2 == (1.0 - choice.nu2**2) / choice.nu2**2
        assert choice.rho2 <= 2.0 * c2 * (1.0 + 1e-12)
        chosen = choice.rho2 if choice.branch == "hamiltonian" else choice.rho1
        assert chosen == min(choice.rho1, choice.rho2)
        # the coefficients behind rho2: a unit vector on which both
        # structural forms vanish, with rho2 as its objective
        coeff = assign_module._equalizing_coefficients(hm, c1, c2)
        assert np.isclose(np.linalg.norm(coeff), 1.0, atol=1e-12)
        assert abs(coeff @ hm @ coeff) <= 1e-12 and abs(coeff @ jmat @ hm @ coeff) <= 1e-12
        rho2 = 2.0 * (c1 * (coeff[0] ** 2 + coeff[2] ** 2) + c2 * (coeff[1] ** 2 + coeff[3] ** 2))
        assert choice.rho2 == pytest.approx(rho2, rel=1e-12)
    assert exercised >= 10


def test_complex_core_rank1_requires_prior_columns():
    # One usable direction and free coefficients but nothing to absorb them
    # into: must refuse rather than fabricate a column.
    psi1 = np.array([1.0, 1.0j, 0.5]) / np.linalg.norm([1.0, 1.0j, 0.5])
    z1 = np.column_stack([0.9 * psi1, 0.9 * psi1 * (1.0 + 1e-12)])
    zv = np.zeros((0, 2), dtype=complex)
    with pytest.raises(DegenerateStepError):
        _complex_pair_core(z1, zv, 1.0, 0.0, tau_pen=0.3)


def test_complex_core_zero_z1_is_degenerate():
    z1 = np.zeros((4, 2), dtype=complex)
    zv = np.zeros((4, 2), dtype=complex)
    with pytest.raises(DegenerateStepError, match="Z1 vanishes"):
        _complex_pair_core(z1, zv, -1.0, 0.0, tau_pen=0.0)


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
    # used and p_share its P-component share of the chosen direction.
    for prob in (make_instance(30, 15, 3, 18), make_instance(100, 50, 10, 60)):
        sol, calls = solve_recording(prob, "_step_null_basis")
        arrays = {f.name for f in dataclasses.fields(sol) if isinstance(getattr(sol, f.name), np.ndarray)}
        assert arrays == {"F", "G", "P", "S", "T", "X"}
        for step in sol.steps:
            for f in dataclasses.fields(step):
                assert type(getattr(step, f.name)) in (int, float, str, type(None)), (step.kind, f.name)
        finite_steps = sol.steps[1:]
        assert {s.kind for s in finite_steps} == {"real", "complex"}
        assert len(calls) == len(finite_steps)
        for step, (args, (y, v)) in zip(finite_steps, calls):
            p_perp = args[0].P_perp
            j = step.j_before
            # the Householder-updated complement stays orthonormal and
            # orthogonal to P over every step of an n = 100 solve
            assert np.linalg.norm(p_perp.T @ p_perp - np.eye(prob.n - j)) <= 1e-13
            assert np.linalg.norm(sol.P[:, :j].T @ p_perp) <= 1e-13
            # d mapped columns plus the j free directions
            assert step.null_dim == y.shape[1] + j
            assert v.shape == (2 * j, y.shape[1])
            if step.kind == "real":
                # the unit column [p; v_s; v_t] * scale has P-component scale
                added = np.linalg.norm(sol.S[:j, j]) ** 2 + np.linalg.norm(sol.T[:j, j]) ** 2
                assert step.p_share == pytest.approx(1.0 / (1.0 + added), rel=1e-10)
                assert step.branch is None and step.rho2 is None
            else:
                # Z1 = [P_perp Y, 0] has the singular values of P_perp Y
                nus = np.linalg.svd(p_perp @ y, compute_uv=False)
                assert step.p_share == pytest.approx(nus[0] ** 2, rel=1e-10)
                assert step.nu2 == pytest.approx(nus[1], rel=1e-8, abs=1e-14)
                assert step.branch in ("rank1", "hamiltonian", "jacobi")
