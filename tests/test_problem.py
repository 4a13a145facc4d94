"""Problem/solution file formats and feasibility validation."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import schurpole.problem as problem_module
from schurpole import (
    ParseError,
    PolePair,
    Problem,
    SingularPencilError,
    parse_problem,
    parse_solution,
    serialize_problem,
    serialize_solution,
    validate_problem,
)
from schurpole.linalg import orthonormal_null_basis
from schurpole.metrics import generalized_eig_oracle
from schurpole.poles import count_infinite, expand_to_values

from conftest import make_instance


def small_problem():
    return Problem(
        E=np.array([[1.0, 0.0], [0.0, 0.0]]),
        A=np.array([[0.5, 1.0], [0.0, 1.0]]),
        B=np.array([[1.0], [1.0]]),
        poles=(PolePair.from_value(-1.0), PolePair.infinite()),
        r=1,
    )


# ---------------------------------------------------------------------------
# problem constructor validation


def test_problem_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        Problem(
            E=np.eye(2),
            A=np.eye(3),
            B=np.ones((2, 1)),
            poles=(PolePair.from_value(1.0), PolePair.infinite()),
            r=1,
        )


def test_problem_pole_count_must_match_n():
    with pytest.raises(ValueError):
        Problem(
            E=np.eye(2),
            A=np.eye(2),
            B=np.ones((2, 1)),
            poles=(PolePair.from_value(1.0),),
            r=1,
        )


def test_problem_infinite_count_must_match_r():
    with pytest.raises(ValueError):
        Problem(
            E=np.eye(2),
            A=np.eye(2),
            B=np.ones((2, 1)),
            poles=(PolePair.from_value(1.0), PolePair.from_value(2.0)),
            r=1,  # claims one infinite pole, none supplied
        )


def test_problem_complex_pair_counts_two():
    prob = Problem(
        E=np.eye(2),
        A=np.eye(2),
        B=np.ones((2, 1)),
        poles=(PolePair.from_value(1.0 + 1.0j),),
        r=2,
    )
    assert prob.n == 2 and prob.m == 1
    assert len(prob.finite_poles) == 1


def test_problem_finite_poles_follow_reassigned_poles():
    prob = make_instance(6, 3, 2, 4, trial=0)
    first = prob.finite_poles
    assert first == tuple(p for p in prob.poles if not p.is_infinite) and len(first) >= 2
    prob.poles = (PolePair.infinite(),) * 2 + (PolePair.from_value(-1.0),) * 2 + (PolePair.from_value(1j),)
    assert prob.finite_poles == (PolePair.from_value(-1.0),) * 2 + (PolePair.from_value(1j),)


def test_problem_rejects_non_finite_matrix():
    e = np.eye(2)
    e[0, 0] = np.nan
    with pytest.raises(ValueError):
        Problem(
            E=e,
            A=np.eye(2),
            B=np.ones((2, 1)),
            poles=(PolePair.from_value(1.0), PolePair.infinite()),
            r=1,
        )


# ---------------------------------------------------------------------------
# parse / serialize round trips


def test_problem_round_trip_is_exact():
    prob = small_problem()
    text = serialize_problem(prob)
    back = parse_problem(text)
    assert np.array_equal(back.E, prob.E)
    assert np.array_equal(back.A, prob.A)
    assert np.array_equal(back.B, prob.B)
    # Infinite poles are implicit in the file; the parser lists them first.
    assert Counter(back.poles) == Counter(prob.poles)
    assert all(p.is_infinite for p in back.poles[: back.n - back.r])
    assert back.r == prob.r


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_random_problem_round_trip_bit_exact(seed):
    prob = make_instance(4, 2, 2, 3, trial=seed % 7, seed=seed)
    back = parse_problem(serialize_problem(prob))
    assert np.array_equal(back.E, prob.E)
    assert np.array_equal(back.A, prob.A)
    assert np.array_equal(back.B, prob.B)
    assert Counter(back.poles) == Counter(prob.poles)


def test_serialize_uses_full_precision():
    prob = Problem(
        E=np.eye(1) * (1.0 / 3.0),
        A=np.eye(1),
        B=np.ones((1, 1)),
        poles=(PolePair.from_value(np.pi),),
        r=1,
    )
    back = parse_problem(serialize_problem(prob))
    assert back.E[0, 0] == prob.E[0, 0]
    assert back.poles[0].value == np.pi


def test_solution_round_trip():
    f = np.array([[1.0 / 3.0, -2.0], [0.0, 1e-17]])
    g = np.array([[5.0, 6.0], [7.0, np.pi]])
    f2, g2 = parse_solution(serialize_solution(f, g))
    assert np.array_equal(f, f2)
    assert np.array_equal(g, g2)


# ---------------------------------------------------------------------------
# parse errors


def test_parse_empty_file():
    with pytest.raises(ParseError, match="empty problem file"):
        parse_problem("")


def test_parse_bad_header():
    with pytest.raises(ParseError, match="header must be 'n m r'") as ei:
        parse_problem("1 2\n")
    assert ei.value.line == 1


def test_parse_truncated_matrix_reports_line():
    text = "2 1 1\n1 0\n"
    with pytest.raises(ParseError, match="unexpected end of file"):
        parse_problem(text)


def test_parse_bad_number():
    text = "1 1 1\nx\n1\n1\n1 0 1 0\n"
    with pytest.raises(ParseError, match="invalid number"):
        parse_problem(text)


def test_parse_beta_zero_pole_line():
    text = "1 1 1\n1\n1\n1\n1 0 0 0\n"
    with pytest.raises(ParseError, match="beta = 0"):
        parse_problem(text)


@pytest.mark.parametrize("pole_line", ["nan 0 1 0", "inf 0 1 0", "384111 0 2.1366838400300434e-303 0"])
def test_parse_non_finite_pole_ratio(pole_line):
    # E = I, A = diag(1, 2), B = [1; 1]; both pole lines carry a ratio
    # alpha/beta that is nan, inf, or overflows.
    text = "2 1 2\n1 0\n0 1\n1 0\n0 2\n1\n1\n" + f"{pole_line}\n" * 2
    with pytest.raises(ParseError, match="not finite") as ei:
        parse_problem(text)
    assert ei.value.line == 8


def test_parse_unpaired_complex_pole():
    # Complex pole in the final slot leaves no room for its conjugate.
    text = "2 1 2\n1 0\n0 1\n1 0\n0 1\n1\n1\n-1 0 1 0\n1 1 1 0\n"
    with pytest.raises(ParseError, match="unpaired complex pole"):
        parse_problem(text)


def test_parse_wrong_conjugate():
    text = "2 1 2\n1 0\n0 1\n1 0\n0 1\n1\n1\n1 1 1 0\n1 -2 1 0\n"
    with pytest.raises(ParseError, match="not followed by its conjugate"):
        parse_problem(text)


def test_parse_trailing_data():
    prob = small_problem()
    text = serialize_problem(prob) + "0 0 1 0\n"
    with pytest.raises(ParseError, match="trailing data"):
        parse_problem(text)


def test_parse_solution_errors():
    with pytest.raises(ParseError, match="empty solution file"):
        parse_solution("")
    with pytest.raises(ParseError, match="header must be 'n m'"):
        parse_solution("2\n")
    with pytest.raises(ParseError, match="non-finite"):
        parse_solution("1 1\nnan\n0\n")
    with pytest.raises(ParseError, match="trailing data"):
        parse_solution("1 1\n1\n2\n3\n")


def test_parse_problem_comments_blank_lines():
    # Blank lines are insignificant; content is whitespace separated.
    prob = small_problem()
    text = serialize_problem(prob).replace("\n", "\n\n")
    back = parse_problem(text)
    assert np.array_equal(back.E, prob.E)


# ---------------------------------------------------------------------------
# validation checks


def test_validate_good_instance_passes():
    cases = [
        (make_instance(5, 3, 2, 4, trial=1), 5),
        # no open-loop eigenvalue may be invented far out, where the scaled
        # probe [lambda*E - A, B] tends to [E, B] of rank q < n
        (make_instance(6, 3, 2, 4, trial=2, seed=30), 5),
    ]
    for prob, q in cases:
        rep = validate_problem(prob)
        assert rep.passed, [f"{c.name}: {c.detail}" for c in rep.failures()]
        assert rep.q == q
        assert not rep.failures()


def test_validate_rank_deficient_b():
    prob = Problem(
        E=np.eye(2),
        A=np.diag([1.0, 2.0]),
        B=np.array([[1.0, 2.0], [2.0, 4.0]]),
        poles=(PolePair.from_value(-1.0), PolePair.from_value(-2.0)),
        r=2,
    )
    rep = validate_problem(prob)
    names = [c.name for c in rep.failures()]
    assert "b-full-column-rank" in names


def test_validate_finite_pole_count_bound():
    # rank[E B] = 2 with m = 1 forces r in [1, 2]; r = 0 is infeasible.
    prob = Problem(
        E=np.eye(2),
        A=np.diag([1.0, 2.0]),
        B=np.array([[1.0], [0.0]]),
        poles=(PolePair.infinite(), PolePair.infinite()),
        r=0,
    )
    rep = validate_problem(prob)
    names = [c.name for c in rep.failures()]
    assert "finite-pole-count-bound" in names


def test_validate_uncontrollable_finite_mode():
    poles = (PolePair.from_value(-1.0), PolePair.from_value(-2.0))
    # Mode at lambda = 2 is untouched by B = e1.
    small = Problem(
        E=np.eye(2), A=np.diag([1.0, 2.0]), B=np.array([[1.0], [0.0]]), poles=poles, r=2
    )
    # Mode at lambda = 1e10 is untouched by B = e2.  QZ counts it as
    # infinite, but rank(E) = 2 leaves it to the finite-mode probes.
    huge = Problem(
        E=np.diag([1e-10, 1.0]), A=np.eye(2), B=np.array([[0.0], [1.0]]), poles=poles, r=2
    )
    # Mode at lambda = 2e200 is untouched by B = e1.  ||A||_F's plain sum
    # of squares overflows; the spectrum must still reach the probes.
    overflow = Problem(
        E=np.eye(2), A=np.diag([1e200, 2e200]), B=np.array([[1.0], [0.0]]), poles=poles, r=2
    )
    # the first failing probe and its detail string are part of the verdict
    for prob, lam in ((small, "2+0j"), (huge, "1e+10+0j"), (overflow, "2e+200+0j")):
        rep = validate_problem(prob)
        assert [c.name for c in rep.failures()] == ["finite-pole-controllability"]
        assert rep.failures()[0].detail == f"rank([lambda*E - A, B])=1 at lambda={lam}"


def test_validate_uncontrollable_at_infinity():
    # E singular with A*null(E) and B unable to complete the range.
    prob = Problem(
        E=np.array([[1.0, 0.0], [0.0, 0.0]]),
        A=np.array([[1.0, 0.0], [0.0, 1.0]]),
        B=np.array([[1.0], [0.0]]),
        poles=(PolePair.from_value(-1.0), PolePair.infinite()),
        r=1,
    )
    # A * null(E) = e2 does complete the range here, so craft A to map the
    # null space of E back into range(E) instead.
    prob2 = Problem(
        E=np.array([[1.0, 0.0], [0.0, 0.0]]),
        A=np.array([[0.0, 1.0], [0.0, 0.0]]),
        B=np.array([[1.0], [0.0]]),
        poles=(PolePair.from_value(-1.0), PolePair.infinite()),
        r=1,
    )
    assert validate_problem(prob).passed
    names = [c.name for c in validate_problem(prob2).failures()]
    assert "infinite-pole-controllability" in names


def test_validate_huge_finite_eigenvalue_probe_is_scale_free():
    # Open-loop eigenvalue near 1e17, finite for QZ beside the one at 1e12:
    # the naive probe rank([lam*E - A, B]) drowns B below the tolerance; the
    # homogeneous probe must pass.
    prob = Problem(
        E=np.diag([1e-17, 1.0]),
        A=np.diag([1.0, 1e12]),
        B=np.eye(2),
        poles=(PolePair.from_value(-1.0), PolePair.from_value(-2.0)),
        r=2,
    )
    rep = validate_problem(prob)
    assert rep.passed, [f"{c.name}: {c.detail}" for c in rep.failures()]
    assert rep.checks[-1].detail == "full row rank at all probes"


def _five_state_plant(blind_rows=()):
    # Open-loop spectrum: 1 +- 2i, +-i*sqrt(2) and 3, two couples and one
    # real eigenvalue, each on its own block of rows; B is zero on
    # ``blind_rows``, so the modes of those rows are uncontrollable.
    a = np.zeros((5, 5))
    a[:2, :2] = [[1.0, 2.0], [-2.0, 1.0]]
    a[2:4, 2:4] = [[0.0, 1.0], [-2.0, 0.0]]
    a[4, 4] = 3.0
    b = np.arange(10.0).reshape(5, 2) ** 0.5
    b[list(blind_rows)] = 0.0
    return Problem(
        E=np.eye(5),
        A=a,
        B=b,
        poles=tuple(PolePair.from_value(-v) for v in (1.0, 2.0, 3.0, 4.0, 5.0)),
        r=5,
    )


def test_validate_probes_only_the_eigenvalues_the_pbh_screen_cannot_pass(monkeypatch):
    # Checks (a), (b/c) and (d) take one rank each; check (e) probes only an
    # eigenvalue whose left eigenvector w has w^H B near zero, a couple once
    # at its member with positive imaginary part, a real one in real
    # arithmetic.  A regular pencil takes no fixed probe.
    seen = []
    original = problem_module.numerical_rank

    def recording(m):
        seen.append(np.asarray(m).copy())
        return original(m)

    monkeypatch.setattr(problem_module, "numerical_rank", recording)
    cases = (
        ((), "full row rank at all probes", []),
        ((0, 1), "rank([lambda*E - A, B])=4 at lambda=1+2j", ["c"]),
        ((4,), "rank([lambda*E - A, B])=4 at lambda=3+0j", ["f"]),
    )
    for blind_rows, detail, kinds in cases:
        prob = _five_state_plant(blind_rows)
        seen.clear()
        check_e = validate_problem(prob).checks[-1]
        assert (check_e.passed, check_e.detail) == (not blind_rows, detail)
        probes = seen[3:]
        assert [probe.dtype.kind for probe in probes] == kinds
        for probe in probes:
            # a*I - b*A is singular at the eigenvalue, beside B
            assert abs(np.linalg.det(probe[:, :5])) <= 1e-12
            assert np.array_equal(probe[:, 5:], prob.B)
        if kinds == ["c"]:
            assert probes[0][0, 0].imag > 0


def test_validate_probes_a_double_eigenvalue_and_an_input_below_the_cutoff():
    # E = I, A = I, B = [1; 1]: every vector is a left eigenvector at
    # lambda = 1, and the one QZ returns may well see B; only the cluster
    # rule sends the double eigenvalue to the probe.  B = 1e-17 [1; 1] has
    # w^H B far from zero relative to ||B||, but lies below the probe's
    # cutoff beside A and E.
    poles = (PolePair.from_value(-1.0), PolePair.from_value(-2.0))
    for a, b in ((np.eye(2), np.ones((2, 1))), (np.diag([1.0, 2.0]), np.full((2, 1), 1e-17))):
        check_e = validate_problem(Problem(E=np.eye(2), A=a, B=b, poles=poles, r=2)).checks[-1]
        assert not check_e.passed
        assert check_e.detail == "rank([lambda*E - A, B])=1 at lambda=1+0j"


def _check_e_by_the_probe_loop(prob):
    """Check (e) as a rank probe at every eigenvalue decides it: the
    verdict, the detail and the singular-pencil warning.  The oracle's
    finite eigenvalues, then the excess infinite-counted ones as
    reciprocals of the reversed pencil's eigenvalues (each couple once),
    then 8 fixed values."""
    k_d = orthonormal_null_basis(prob.E).shape[1]
    probes, warnings = [], []
    try:
        spectrum = generalized_eig_oracle(prob.A, prob.E)
        probes += [(pole.value, 1.0) for pole in spectrum if not pole.is_infinite]
        k_inf = count_infinite(spectrum)
        if k_inf > k_d:
            mus = sorted(expand_to_values(generalized_eig_oracle(prob.E, prob.A)), key=abs)[k_d:k_inf]
            probes += [(1.0, mu) for i, mu in enumerate(mus) if mu.conjugate() not in mus[:i]]
    except SingularPencilError:
        warnings.append("open-loop pencil is singular; eigenvalue probes skipped")
    probes += [(lam, 1.0) for lam in problem_module._FIXED_PROBES]
    for a, b, rk in problem_module._probe_ranks(prob, probes):
        if rk != prob.n:
            return False, f"rank([lambda*E - A, B])={rk} at lambda={a / b:g}", warnings
    return True, "full row rank at all probes", warnings


def _block(kind, value, omega):
    """(E block, A block) of one part of a block-diagonal plant."""
    if kind == "real":
        return np.eye(1), np.array([[value]])
    if kind == "couple":
        return np.eye(2), np.array([[value, omega], [-omega, value]])
    if kind == "double":  # semisimple
        return np.eye(2), value * np.eye(2)
    if kind == "jordan":
        return np.eye(2), np.array([[value, 1.0], [0.0, value]])
    if kind == "huge":  # lambda = 1e10, which QZ counts as infinite
        return np.array([[1e-10]]), np.array([[1.0]])
    if kind == "infinite":  # a singular E
        return np.zeros((1, 1)), np.eye(1)
    return np.zeros((1, 1)), np.zeros((1, 1))  # "singular": a singular pencil


_grid = st.integers(min_value=-8, max_value=8).map(lambda k: k / 4)
_parts = st.tuples(st.sampled_from(["real", "couple", "infinite"]), _grid, _grid.filter(bool))


@settings(max_examples=150, deadline=None)
# an exactly singular pencil that QZ does not flag: lambda = 0 has a left
# null space of dimension 2 and m = 1, while each computed w sees B
@example(0, [("infinite", 0.0, 0.25), ("real", 0.0, 0.25), ("real", 0.5, 0.25)], "singular", [(0.0, 0.25, False)], 1)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.lists(_parts, min_size=1, max_size=5),
    st.sampled_from(["real", "couple", "double", "jordan", "huge", "infinite", "singular"]),
    st.lists(st.tuples(_grid, _grid.filter(bool), st.booleans()), min_size=1, max_size=2),
    st.integers(min_value=1, max_value=3),
)
def test_check_e_decides_as_the_probe_loop(seed, base, kind, injected, m):
    # U blockdiag V^T plants: a controllable base of real modes, couples
    # and infinite ones, and one or two injected blocks of one kind, each
    # with B blind to it or not.  Eigenvalues on a grid of quarters either
    # coincide or are well apart.  The screen may spare probes, never
    # change the verdict, the first failing eigenvalue or the warning.
    rng = np.random.default_rng(seed)
    blocks = [(*_block(k, v, w), False) for k, v, w in base]
    blocks += [(*_block(kind, v, w), blind) for v, w, blind in injected]
    e = scipy.linalg.block_diag(*(be for be, _, _ in blocks))
    a = scipy.linalg.block_diag(*(ba for _, ba, _ in blocks))
    n = e.shape[0]
    b = rng.standard_normal((n, m))
    row = 0
    for be, _, blind in blocks:
        if blind:  # the block's left eigenvectors then miss B
            b[row : row + be.shape[0]] = 0.0
        row += be.shape[0]
    u = np.linalg.qr(rng.standard_normal((n, n)))[0]
    v = np.linalg.qr(rng.standard_normal((n, n)))[0]
    prob = Problem(E=u @ e @ v.T, A=u @ a @ v.T, B=u @ b, poles=(PolePair.infinite(),) * n, r=0)
    rep = validate_problem(prob)
    check_e = rep.checks[-1]
    want_ok, want_detail, want_warnings = _check_e_by_the_probe_loop(prob)
    assert check_e.passed == want_ok
    assert [w for w in rep.warnings if "singular" in w] == want_warnings
    if want_ok or want_warnings:
        assert check_e.detail == want_detail
        return
    if kind == "singular":
        # QZ did not flag the singular pencil: its computed eigenvalues are
        # then arbitrary, and a QZ call with eigenvectors returns others
        # than one without, so the first failing one may differ
        return
    # the same rank at the same eigenvalue.  Its printed 6 digits may differ
    # at an eigenvalue near 0, and where QZ counts it as infinite: 1/lambda
    # = beta/alpha is then known to an absolute n*eps, about 1e-6 relative
    # at lambda = 1e10, from either QZ call.
    (rank, lam), (want_rank, want_lam) = (_probe_failure(d) for d in (check_e.detail, want_detail))
    assert rank == want_rank
    assert abs(lam - want_lam) <= 1e-5 * max(1.0, abs(want_lam))


def _probe_failure(detail):
    """(rank, lambda) of a failing check (e) detail."""
    head, lam = detail.split(" at lambda=")
    prefix = "rank([lambda*E - A, B])="
    assert head.startswith(prefix), detail
    return int(head[len(prefix) :]), complex(lam)


def test_validate_multiplicity_warning():
    # A double pole above m = 1, then one within m = 2 (it still comes out
    # defective, to about eps**(1/2)), then a double complex couple and a
    # triple real pole: every repeated pole is named once, with its
    # multiplicity and the accuracy of a defective eigenvalue.
    def warnings_for(values, m):
        poles = tuple(PolePair.from_value(v) for v in values)
        n = sum(2 if complex(v).imag else 1 for v in values)
        b = np.vander(np.arange(1.0, n + 1), m)
        prob = Problem(E=np.eye(n), A=np.diag(np.arange(1.0, n + 1)), B=b, poles=poles, r=n)
        return validate_problem(prob).warnings

    (w,) = warnings_for([-3.0, -3.0], 1)
    assert "-3+0j has multiplicity 2 > m=1" in w and "eps**(1/2) = 1.5e-08" in w
    (w,) = warnings_for([-3.0, -3.0], 2)
    assert "-3+0j has multiplicity 2;" in w and "eps**(1/2)" in w
    w1, w2 = warnings_for([-1.0 + 1.0j, -2.0, -1.0 + 1.0j, -2.0, -2.0], 2)
    assert "-1+1j has multiplicity 2;" in w1
    assert "-2+0j has multiplicity 3 > m=2" in w2 and "eps**(1/3) = 6.1e-06" in w2
    assert warnings_for([-1.0, -2.0, -1.0 - 1e-6], 1) == ()
