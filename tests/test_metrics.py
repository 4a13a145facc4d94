"""Spectrum oracle, index checks, and verification metrics."""

from __future__ import annotations

import dataclasses
import math
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import schurpole.linalg as linalg_module
import schurpole.metrics as metrics_module
from schurpole import (
    BenchConfig,
    PolePair,
    Problem,
    SingularPencilError,
    generate_random_instance,
    run_pipeline,
    validate_problem,
)
from schurpole.assign import d_delta_block
from schurpole.metrics import (
    departure_measure,
    eigenvector_condition,
    frobenius_condition,
    generalized_eig_oracle,
    index_and_regularity_check,
    precs_metric,
    verify_feedback,
    verify_solution,
)
from schurpole.poles import count_infinite, expand_to_values

from conftest import e_inside_the_input_range, make_instance, oracle_pole_list

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _sorted(vals):
    return sorted(vals, key=lambda z: (round(z.real, 9), round(z.imag, 9)))


# ---------------------------------------------------------------------------
# generalized eigenvalue oracle


def test_oracle_diagonal_pencil_exact():
    a = np.diag([2.0, -3.0, 5.0])
    e = np.eye(3)
    poles = oracle_pole_list(a, e)
    vals = _sorted(expand_to_values(poles))
    assert np.allclose(vals, [-3.0, 2.0, 5.0], atol=1e-12)
    assert count_infinite(poles) == 0


def test_oracle_counts_infinite_eigenvalues():
    a = np.diag([1.0, 2.0, 5.0, 3.0])
    e = np.diag([1.0, 1.0, 0.0, 0.0])
    poles = oracle_pole_list(a, e)
    assert count_infinite(poles) == 2
    vals = _sorted(expand_to_values(poles))
    assert np.allclose(vals, [1.0, 2.0], atol=1e-10)


def test_oracle_complex_pair():
    a = np.array([[1.0, -2.0], [2.0, 1.0]])
    e = np.eye(2)
    poles = oracle_pole_list(a, e)
    assert len(poles) == 1  # conjugate pair stored once
    assert abs(poles[0].value - (1.0 + 2.0j)) <= 1e-10


def test_oracle_multiple_root():
    a = np.diag([2.0, 2.0, 2.0])
    e = np.eye(3)
    vals = expand_to_values(oracle_pole_list(a, e))
    assert len(vals) == 3
    assert np.allclose(vals, 2.0, atol=1e-7)


def test_oracle_wide_dynamic_range():
    # Eigenvalues six orders of magnitude apart stay finite and accurate.
    a = np.diag([1.0, 2.0, 3.0, 4.0])
    e = np.diag([1e-6, 1e-6, 1.0, 1.0])
    vals = _sorted(expand_to_values(oracle_pole_list(a, e)))
    assert np.allclose(vals, [3.0, 4.0, 1e6, 2e6], rtol=1e-9)


def test_oracle_singular_pencil_raises():
    a = np.array([[1.0, 0.0], [0.0, 0.0]])
    e = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(SingularPencilError):
        generalized_eig_oracle(a, e)


def test_oracle_zero_e_all_infinite():
    poles = oracle_pole_list(np.diag([1.0, 2.0]), np.zeros((2, 2)))
    assert count_infinite(poles) == 2


def test_oracle_counts_every_pole_of_a_random_50x50_pencil():
    # The benchmark generator draws its target poles this way; a wrong
    # finite count here rejects every n = 100 draw.
    rng = np.random.default_rng(1)
    a = rng.standard_normal((50, 50))
    e = rng.standard_normal((50, 50))
    poles = oracle_pole_list(a, e)
    assert len(expand_to_values(poles)) == 50
    assert count_infinite(poles) == 0


@settings(max_examples=60)
@given(seeds, st.integers(min_value=1, max_value=4))
def test_oracle_matches_inverse_reduction(seed, n):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    e = rng.standard_normal((n, n)) + 3.0 * np.eye(n)  # comfortably invertible
    got = _sorted(expand_to_values(oracle_pole_list(a, e)))
    want = _sorted(list(np.linalg.eigvals(np.linalg.solve(e, a))))
    assert len(got) == n
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-8 * max(1.0, abs(w))


def _oracle_through_the_wrappers(monkeypatch, a, e, vectors):
    """generalized_eig_oracle with its QZ kernel and its norm swapped for
    the wrappers they replace, scipy.linalg.eig and np.linalg.norm."""

    def scipy_kernel(a, b, vectors=False, left=False):
        assert not left
        out = scipy.linalg.eig(a, b, right=vectors, homogeneous_eigvals=True)
        w, vr = out if vectors else (out, None)
        return w, None, vr

    with monkeypatch.context() as patch:
        patch.setattr(metrics_module, "generalized_eig", scipy_kernel)
        patch.setattr(metrics_module, "euclidean_norm", lambda x: float(np.linalg.norm(x)))
        return generalized_eig_oracle(a, e, vectors=vectors)


@pytest.mark.parametrize("vectors", [False, True])
def test_oracle_matches_the_scipy_eig_oracle_bit_for_bit(monkeypatch, vectors):
    # complex couples, infinite eigenvalues, a real spectrum, a 1e200 scale,
    # and closed loops of the benchmark's sweep-n30 cells
    rng = np.random.default_rng(11)
    a, e = rng.standard_normal((12, 12)), rng.standard_normal((12, 12))
    e_inf = e.copy()
    e_inf[:, :4] = 0.0
    sym = a + a.T
    pencils = [(a, e), (a, e_inf), (sym, np.eye(12)), (1e200 * a, 1e200 * e)]
    for rank_e, m, r in ((2, 2, 2), (15, 15, 17), (29, 28, 29)):
        prob = generate_random_instance(BenchConfig(n=30, rank_e=rank_e, m=m, trials=1, seed=0), r=r, trial=0)
        sol = run_pipeline(prob)
        pencils.append((prob.A + prob.B @ sol.F, prob.E + prob.B @ sol.G))
    for a_c, e_c in pencils:
        got = generalized_eig_oracle(a_c, e_c, vectors=vectors)
        want = _oracle_through_the_wrappers(monkeypatch, a_c, e_c, vectors)
        assert (got.vr is None) == (not vectors) and got.vl is None
        for name, mine, theirs in zip(got._fields, got, want):
            if isinstance(mine, np.ndarray):
                assert mine.dtype == theirs.dtype and mine.strides == theirs.strides, name
                assert mine.tobytes() == theirs.tobytes(), name
            else:
                assert mine == theirs, name


def test_every_qz_call_is_the_oracle_and_the_solver_makes_none(monkeypatch):
    # one sweep-n30 op, generate -> validate -> run_pipeline -> verify, with
    # the QZ kernel wrapped in every schurpole module that binds it
    kernel = linalg_module.generalized_eig
    callers = []

    def recording(*args, **kwargs):
        frame = sys._getframe(1)
        callers.append((frame.f_globals["__name__"], frame.f_code.co_name))
        return kernel(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("schurpole") and getattr(module, "generalized_eig", None) is kernel:
            monkeypatch.setattr(module, "generalized_eig", recording)
    counts = []

    def stage(fn, *args):
        before = len(callers)
        out = fn(*args)
        counts.append(len(callers) - before)
        return out

    prob = stage(generate_random_instance, BenchConfig(n=30, rank_e=15, m=15, trials=1, seed=0), 17, 0)
    assert stage(validate_problem, prob).passed
    sol = stage(run_pipeline, prob)
    assert stage(verify_solution, prob, sol).passed
    assert counts == [1, 1, 0, 1]
    assert set(callers) == {("schurpole.metrics", "generalized_eig_oracle")}


# ---------------------------------------------------------------------------
# index / regularity


def test_index_one_pencil_passes():
    rep = index_and_regularity_check(np.diag([1.0, 2.0, 3.0]), np.diag([1.0, 1.0, 0.0]))
    assert rep.regular and rep.index_le_1
    assert len(expand_to_values(rep.spectrum.poles)) == 2
    assert rep.rank_e == 2


def test_index_two_chain_fails():
    # Nilpotent E with A = I: two infinite eigenvalues but rank(E) = 1.
    e = np.array([[0.0, 1.0], [0.0, 0.0]])
    rep = index_and_regularity_check(np.eye(2), e)
    assert rep.regular
    assert not rep.index_le_1
    assert len(expand_to_values(rep.spectrum.poles)) == 0 and rep.rank_e == 1


def test_index_singular_pencil_reported():
    a = np.array([[1.0, 0.0], [0.0, 0.0]])
    e = np.array([[1.0, 0.0], [0.0, 0.0]])
    rep = index_and_regularity_check(a, e)
    assert not rep.regular and not rep.index_le_1


def test_index_expected_count_mismatch():
    rep = index_and_regularity_check(np.diag([1.0, 2.0]), np.eye(2))
    assert rep.regular and rep.index_le_1
    assert len(expand_to_values(rep.spectrum.poles)) == 2


# ---------------------------------------------------------------------------
# precs


def test_precs_known_value():
    val = precs_metric([1.0, 2.0], [1.0, 2.0 + 2e-5])
    assert abs(val - (-5.0)) <= 1e-6


def test_precs_exact_match_floors():
    assert precs_metric([1.0, 2.0], [2.0, 1.0]) == -17.0
    assert precs_metric([], []) == -17.0


def test_precs_count_mismatch_is_inf():
    assert math.isinf(precs_metric([1.0], [1.0, 2.0]))


def test_precs_zero_pole_uses_absolute_error():
    val = precs_metric([0.0, 1.0], [1e-12, 1.0])
    assert abs(val - (-12.0)) <= 1e-6


@given(seeds, st.integers(min_value=1, max_value=6))
def test_precs_permutation_invariant(seed, n):
    rng = np.random.default_rng(seed)
    vals = [complex(x, y) for x, y in rng.standard_normal((n, 2))]
    shuffled = list(vals)
    rng.shuffle(shuffled)
    assert precs_metric(vals, shuffled) == -17.0


def _precs_by_loop(requested, computed):
    """precs_metric as an r x r loop over the pairs: the reference for its
    vectorized cost matrix."""
    req = [complex(v) for v in requested]
    comp = [complex(v) for v in computed]
    if len(req) != len(comp):
        return math.inf
    if not req:
        return -17.0
    cost = np.empty((len(req), len(comp)))
    for i, rv in enumerate(req):
        den = abs(rv)
        for k, cv in enumerate(comp):
            err = abs(rv - cv)
            cost[i, k] = err / den if den > 0 else err
    cost = np.nan_to_num(cost, nan=np.inf, posinf=np.inf)
    rows, cols = linear_sum_assignment(cost)
    worst = float(cost[rows, cols].max())
    if worst <= 1e-17:
        return -17.0
    return math.inf if math.isinf(worst) else max(math.log10(worst), -17.0)


@given(seeds, st.integers(min_value=1, max_value=8))
def test_precs_matches_the_loop(seed, n):
    # zeros (absolute error), repeats and conjugates among the values
    rng = np.random.default_rng(seed)
    req = [complex(x, y) for x, y in rng.standard_normal((n, 2))]
    req[0] = 0j
    req[-1] = req[-1].conjugate() if n > 2 else req[-1]
    comp = [v + complex(*rng.standard_normal(2)) * 10.0 ** rng.integers(-16, 1) for v in req]
    comp[rng.integers(n)] = 0j
    assert precs_metric(req, comp) == _precs_by_loop(req, comp)


def test_precs_matches_the_loop_on_the_sweep_n30_cells():
    # every cell of the benchmark's sweep-n30 round (seed 0, trial 0), with
    # the closed-loop spectrum verify_solution compares
    checked = 0
    for rank_e in (2, 15, 29):
        for m in (2, 15, 28):
            cfg = BenchConfig(n=30, rank_e=rank_e, m=m, trials=1, seed=0)
            for r in cfg.r_values:
                prob = generate_random_instance(cfg, r=r, trial=0)
                sol = run_pipeline(prob)
                idx = index_and_regularity_check(prob.A + prob.B @ sol.F, prob.E + prob.B @ sol.G)
                req, comp = expand_to_values(prob.poles), expand_to_values(idx.spectrum.poles)
                assert precs_metric(req, comp) == _precs_by_loop(req, comp) == verify_solution(prob, sol).precs
                checked += 1
    assert checked == 144


# ---------------------------------------------------------------------------
# departure measure and the block layout of (S, T)


def test_departure_zero_for_exact_normal_pair():
    s = np.diag([0.6, 1.0])
    t = np.diag([0.8, 0.0])
    assert departure_measure(s, t) == 0.0


def test_departure_counts_off_block_mass_and_penalty():
    # One real column plus one 2x2 block with delta != 1, whose D sits in T
    # (alpha-dominant) or in S (beta-dominant).
    sigma, tau, delta = 0.3, 0.5, 2.0
    dd = d_delta_block(sigma, tau, delta)
    for d_in_s in (False, True):
        s = np.eye(3)
        t = np.zeros((3, 3))
        (s if d_in_s else t)[1:, 1:] = dd
        (t if d_in_s else s)[1:, 1:] = np.eye(2)
        s[0, 1] = 2.0  # strictly-upper spillover in S
        t[0, 2] = -1.0  # and in T
        got = departure_measure(s, t)
        want = 2.0**2 + 1.0**2 + tau**2 * (delta - 1.0 / delta) ** 2
        assert np.isclose(got, want, atol=1e-14)
    assert np.isclose(tau**2 * (delta - 1.0 / delta) ** 2, 0.5625)


def _poles_from_schur(s, t):
    """Pole pairs encoded on the diagonal of a quasi-triangular pair.

    A 2x2 block starts at k exactly when S[k+1, k] or T[k+1, k] is nonzero;
    its pole is the upper eigenvalue of the 2x2 pencil (S_kk, T_kk).
    """
    out, k, n = [], 0, s.shape[0]
    while k < n:
        if k + 1 < n and (s[k + 1, k] != 0.0 or t[k + 1, k] != 0.0):
            blk = np.s_[k : k + 2, k : k + 2]
            lam = max(np.linalg.eigvals(np.linalg.solve(t[blk], s[blk])), key=lambda z: z.imag)
            out.append(PolePair.make(lam, 1.0))
            k += 2
        else:
            out.append(PolePair.make(s[k, k], t[k, k]))
            k += 1
    return out


def test_extract_poles_from_schur_round_trip():
    # one infinite pole, one real pole, and one conjugate pair on each side
    # of |lambda| = 1
    prob = make_instance(6, 3, 3, 5, trial=4)
    sol = run_pipeline(prob)
    assert np.array_equal(np.tril(sol.S, -2), np.zeros((6, 6)))
    assert np.array_equal(np.tril(sol.T, -2), np.zeros((6, 6)))
    starts = [k for k in range(5) if sol.S[k + 1, k] != 0.0 or sol.T[k + 1, k] != 0.0]
    identity_in_s = sorted(np.array_equal(sol.S[k : k + 2, k : k + 2], np.eye(2)) for k in starts)
    assert identity_in_s == [False, True]
    got = _poles_from_schur(sol.S, sol.T)
    want_inf = count_infinite(prob.poles)
    assert count_infinite(got) == want_inf
    got_vals = _sorted(expand_to_values(got))
    want_vals = _sorted(expand_to_values(prob.poles))
    for g, w in zip(got_vals, want_vals):
        assert abs(g - w) <= 1e-9 * max(1.0, abs(w))


# ---------------------------------------------------------------------------
# condition numbers


def test_frobenius_condition_known_value():
    assert np.isclose(frobenius_condition(np.diag([3.0, 1.0])), 10.0 / 3.0)
    assert frobenius_condition(np.eye(4)) == 4.0
    assert math.isinf(frobenius_condition(np.zeros((2, 2))))


def _kappa_x(a, e):
    """kappaX of (A, E) as a verification computes it."""
    idx = index_and_regularity_check(a, e)
    return eigenvector_condition(idx.spectrum, idx.null_e)


def test_eigenvector_condition_identity_case():
    # Diagonal pencil with distinct eigenvalues: eigenvector matrix is a
    # permutation of the identity, kappa_F = n.
    kappa = _kappa_x(np.diag([1.0, 2.0, 3.0]), np.eye(3))
    assert kappa is not None
    assert np.isclose(kappa, 3.0, atol=1e-9)


def test_eigenvector_condition_none_for_repeated():
    assert _kappa_x(np.eye(2), np.eye(2)) is None


@settings(max_examples=50)
@given(
    seeds,
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=2, max_value=4),
    st.booleans(),
)
def test_eigenvector_condition_orthonormalizes_the_infinite_block(seed, n_real, n_inf, pair):
    # (A, E) = (W diag(L, I) X^-1, W diag(I, 0) X^-1): the finite
    # eigenvectors are X's leading columns (x1 + i x2 for the block
    # [[a, b], [-b, a]]), the infinite ones span X's trailing columns.
    # kappaX measures the unit finite eigenvectors beside an orthonormal
    # basis of that span, not beside QZ's own infinite eigenvectors.
    rng = np.random.default_rng(seed)
    k = n_real + 2 * pair
    n = k + n_inf
    x = rng.standard_normal((n, n))
    w = rng.standard_normal((n, n))
    lam = np.zeros((n, n))
    lam[:n_real, :n_real] = np.diag(-1.0 - np.arange(n_real) - 0.3 * rng.random(n_real))
    if pair:
        re, im = rng.uniform(-2.0, 2.0), rng.uniform(0.5, 2.0)
        lam[n_real:k, n_real:k] = [[re, im], [-im, re]]
    ident = np.diag([1.0] * k + [0.0] * n_inf)
    x_inv = np.linalg.inv(x)
    a = w @ (lam + np.eye(n) - ident) @ x_inv
    e = w @ ident @ x_inv
    fin = [x[:, j].astype(complex) for j in range(n_real)]
    if pair:
        v = x[:, n_real] + 1j * x[:, n_real + 1]
        fin += [v, v.conj()]
    want = np.column_stack([c / np.linalg.norm(c) for c in fin] + [np.linalg.qr(x[:, k:])[0]])
    kappa = _kappa_x(a, e)
    assert kappa is not None
    assert abs(kappa - np.linalg.cond(want, "fro")) <= 1e-8 * kappa


# ---------------------------------------------------------------------------
# verification reports


def test_verify_solution_passes_on_pipeline_output():
    cases = [
        make_instance(6, 3, 3, 4, trial=4),
        # one requested pole at 4766: the closed loop spans a wide range
        make_instance(6, 5, 4, 4, trial=3, seed=5),
    ]
    for prob in cases:
        sol = run_pipeline(prob)
        rep = verify_solution(prob, sol)
        assert rep.passed
        assert rep.precs <= -6.0
        assert rep.infinite_count == prob.n - prob.r
        assert rep.index_ok
        assert rep.residual_a is not None and rep.residual_a <= 1e-10
        assert rep.residual_e is not None and rep.residual_e <= 1e-10
        assert rep.orth_p is not None and rep.orth_p <= 1e-12 * prob.n
    mapping = rep.to_mapping()
    assert list(mapping) == [
        "precs", "deltaF2", "normF", "normG", "kappaXGF", "kappaX",
        "residualA", "residualE", "infinite_count", "index_ok",
    ]


@settings(max_examples=30)
@given(
    st.sampled_from([(6, 3, 2, 4), (6, 3, 2, 5), (6, 4, 1, 4), (6, 5, 3, 5), (6, 2, 2, 3)]),
    st.integers(min_value=0, max_value=2),
    st.sampled_from([1e-6, 1e6]),
)
def test_verify_verdict_is_invariant_under_time_scaling(cell, trial, s):
    # A -> sA with every pole -> s*pole rescales time only.  The closed
    # loops of these scaled problems keep E_c directions near 1e-6 of its
    # norm, which the index check must not lose against the large A_c.
    prob = make_instance(*cell, trial=trial)
    poles = tuple(p if p.is_infinite else PolePair.from_value(s * p.value) for p in prob.poles)
    scaled = Problem(E=prob.E, A=s * prob.A, B=prob.B, poles=poles, r=prob.r)
    assert verify_solution(prob, run_pipeline(prob)).passed
    rep = verify_solution(scaled, run_pipeline(scaled))
    assert rep.passed and rep.index_ok


def test_verify_feedback_zero_feedback_fixed_point():
    # Prescribing the open-loop spectrum makes (0, 0) a valid feedback.
    prob = Problem(
        E=np.eye(2),
        A=np.diag([-1.0, -2.0]),
        B=np.ones((2, 1)),
        poles=(PolePair.from_value(-1.0), PolePair.from_value(-2.0)),
        r=2,
    )
    rep = verify_feedback(prob, np.zeros((1, 2)), np.zeros((1, 2)))
    assert rep.passed
    assert rep.precs == -17.0
    assert rep.delta_f2 is None  # no factors available
    assert rep.norm_f == 0.0 and rep.norm_g == 0.0


def test_verify_feedback_detects_wrong_spectrum():
    prob = Problem(
        E=np.eye(2),
        A=np.diag([-1.0, -2.0]),
        B=np.ones((2, 1)),
        poles=(PolePair.from_value(-3.0), PolePair.from_value(-4.0)),
        r=2,
    )
    rep = verify_feedback(prob, np.zeros((1, 2)), np.zeros((1, 2)))
    assert not rep.passed
    assert rep.precs > -6.0


def test_verify_feedback_rejects_bad_shapes():
    prob = make_instance(4, 2, 2, 3, trial=0)
    with pytest.raises(ValueError, match="feedback must be"):
        verify_feedback(prob, np.zeros((1, 4)), np.zeros((2, 4)))


@pytest.mark.parametrize("case", ["singular", "norm-overflow"])
def test_verify_feedback_fails_a_closed_loop_without_a_spectrum(case):
    if case == "singular":
        # E = A = diag(1, 0), B = e1 and zero feedback: det(sE - A) is 0.
        prob = Problem(
            E=np.diag([1.0, 0.0]),
            A=np.diag([1.0, 0.0]),
            B=np.array([[1.0], [0.0]]),
            poles=(PolePair.infinite(), PolePair.from_value(-1.0)),
            r=1,
        )
        f = np.zeros((1, 2))
    else:
        # Every entry of A + BF is finite but its Frobenius norm is not, so
        # the oracle's norm-scaled pencil has no spectrum to judge.
        prob = Problem(
            E=np.eye(2),
            A=np.array([[0.0, 1.0], [-2.0, -3.0]]),
            B=np.array([[1e10], [1.0]]),
            poles=(PolePair.from_value(-1.0), PolePair.from_value(-2.0)),
            r=2,
        )
        f = np.full((1, 2), 1e200)
    with np.errstate(over="ignore"):
        rep = verify_feedback(prob, f, np.zeros((1, 2)))
    assert not rep.regular and not rep.index_ok
    assert rep.precs == math.inf
    assert rep.infinite_count is None and rep.kappa_eigvec is None
    assert not rep.passed


@pytest.mark.parametrize("n", [4, 8])
def test_verify_takes_a_cancelled_e_c_as_zero(n):
    # E_c = E + B G is zero up to rounding (about 1e-15).  The oracle scaled
    # that rounding to unit norm and read finite poles from it: "infinite
    # count 1, expected 4" at n = 4 and "infinite count 2, expected 8" at
    # n = 8.
    prob = e_inside_the_input_range(n)
    sol = run_pipeline(prob)
    e_c = prob.E + prob.B @ sol.G
    assert 0.0 < np.linalg.norm(e_c) <= 1e-14
    for rep in (verify_solution(prob, sol), verify_feedback(prob, sol.F, sol.G)):
        assert rep.passed, rep.failure
        assert rep.infinite_count == n and rep.index_ok and rep.precs == -17.0
    # a G that leaves 1e-9 of E_c is refused, as before
    assert not verify_feedback(prob, sol.F, sol.G + 1e-9).passed


@pytest.mark.parametrize("damage", ["S+1e-6*I", "nan-in-P", "nan-in-X"])
def test_verify_solution_fails_on_damaged_factors(damage):
    # (F, G) stay the solver's, so only the factor residuals can fail.  A
    # NaN in X is a failed report too, not a LinAlgError from kappa_F(X).
    prob = make_instance(6, 3, 2, 4, trial=0)
    sol = run_pipeline(prob)
    if damage == "S+1e-6*I":
        bad = dataclasses.replace(sol, S=sol.S + 1e-6 * np.eye(prob.n))
    else:
        name = damage[-1]
        mat = getattr(sol, name).copy()
        mat[0, 0] = np.nan
        bad = dataclasses.replace(sol, **{name: mat})
    assert verify_feedback(prob, bad.F, bad.G).passed
    rep = verify_solution(prob, bad)
    assert not rep.passed
    # the first residual over the bound names the failure, with its value
    assert rep.failure == f"residual_a {rep.residual_a:.3g} > 1e-08"
    # with zero feedback the closed loop fails too, and is named first
    no_feedback = dataclasses.replace(bad, F=np.zeros_like(bad.F), G=np.zeros_like(bad.G))
    rep = verify_solution(prob, no_feedback)
    assert not rep.residual_a <= 1e-8
    closed_loop = verify_feedback(prob, no_feedback.F, no_feedback.G).failure
    assert closed_loop is not None and rep.failure == closed_loop
    if damage == "nan-in-X":
        assert math.isnan(rep.kappa_x_gf)


@pytest.mark.parametrize("criterion", ["not-regular", "index", "infinite-count", "precs"])
def test_verify_feedback_names_the_failing_criterion(criterion):
    # One closed loop per criterion, zero feedback: it fails that criterion
    # and passes every one before it.
    one = np.ones((2, 1))
    e, a, poles, r = {
        # det(sE - A) = 0 for every s
        "not-regular": (np.diag([1.0, 0.0]), np.diag([1.0, 0.0]), (PolePair.infinite(), PolePair.from_value(-1.0)), 1),
        # E nilpotent of index 2: both poles infinite, but rank E = 1
        "index": (np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2), (PolePair.infinite(),) * 2, 0),
        # two finite poles where one infinite is asked
        "infinite-count": (np.eye(2), np.diag([-1.0, -2.0]), (PolePair.infinite(), PolePair.from_value(-1.0)), 1),
        # the open-loop spectrum {-1, -2} where {-3, -4} is asked
        "precs": (np.eye(2), np.diag([-1.0, -2.0]), (PolePair.from_value(-3.0), PolePair.from_value(-4.0)), 2),
    }[criterion]
    prob = Problem(E=e, A=a, B=one, poles=poles, r=r)
    rep = verify_feedback(prob, np.zeros((1, 2)), np.zeros((1, 2)))
    assert not rep.passed
    assert rep.failure == {
        "not-regular": "closed loop not regular",
        "index": "index > 1",
        "infinite-count": "infinite count 0, expected 1",
        # -3 and -4 matched to -2 and -1: worst relative error 3/4
        "precs": "precs -0.125 > -6",
    }[criterion]

