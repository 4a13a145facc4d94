"""Homogeneous pole pairs, canonical forms, and the blocks they become."""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from schurpole.assign import assign_complex_pair, assign_infinite_block, assign_real_pole
from schurpole.poles import PoleKind, PolePair, count_infinite, expand_to_values

from conftest import make_instance

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
nonzero_floats = finite_floats.filter(lambda v: abs(v) > 1e-6)


def _equivalent(p: PolePair, q: PolePair, rtol: float) -> bool:
    """Same pole in homogeneous coordinates: alpha1*beta2 == alpha2*beta1."""
    lhs = p.alpha * q.beta
    rhs = q.alpha * p.beta
    return abs(lhs - rhs) <= rtol * (abs(lhs) + abs(rhs))


# ---------------------------------------------------------------------------
# canonical forms


def test_make_infinite_canonical():
    p = PolePair.make(3.5, 0.0)
    assert p == PolePair.infinite()
    assert p.alpha == 1.0 and p.beta == 0.0
    assert p.kind is PoleKind.INFINITE
    assert p.is_infinite
    with pytest.raises(ValueError):
        p.value  # noqa: B018 - property access is the assertion


def test_make_real_canonical():
    p = PolePair.make(-2.0, -1.0)
    assert p.kind is PoleKind.FINITE_REAL
    assert p.alpha == 2.0 and p.beta == 1.0
    assert p.value == 2.0


def test_make_complex_upper_half_plane():
    p = PolePair.make(1.0 - 2.0j, 1.0)
    assert p.kind is PoleKind.FINITE_COMPLEX
    assert p.value == 1.0 + 2.0j  # stored representative has Im > 0


def test_make_zero_pair_rejected():
    with pytest.raises(ValueError):
        PolePair.make(0.0, 0.0)


@example(a=2.2250738585e-313, b=1.0, c=0.25)  # c*a rounds in the subnormal range
@given(finite_floats, nonzero_floats, nonzero_floats)
def test_make_is_scale_invariant(a, b, c):
    p = PolePair.make(a, b)
    q = PolePair.make(c * a, c * b)
    # Rounding in (c*a)/(c*b) can differ from a/b by an ulp, so equality of
    # the canonical pairs is only approximate; homogeneous equivalence holds.
    # A subnormal c*a already carries an absolute rounding of up to 2**-1074.
    rtol = 1e-12
    if 0.0 < abs(c * a) < sys.float_info.min:
        rtol += 2.0**-1074 / abs(c * a)
    assert p.kind is q.kind
    assert _equivalent(p, q, rtol=rtol)


@given(
    finite_floats.filter(lambda v: v == 0.0 or abs(v) > 1e-280),
    st.sampled_from([2.0**k for k in range(-20, 21)]),
)
def test_make_exact_under_power_of_two_scaling(a, c):
    # Exactness needs both a and c*a in the normal floating-point range.
    p = PolePair.make(a, 1.0)
    assert p == PolePair.make(c * a, c)


@given(finite_floats, finite_floats, nonzero_floats, nonzero_floats)
def test_complex_scale_invariance(re, im, cr, ci):
    assume(abs(im) > 1e-6)
    lam = complex(re, im)
    c = complex(cr, ci)
    p = PolePair.make(lam, 1.0)
    q = PolePair.make(c * lam, c)
    assert p.kind is PoleKind.FINITE_COMPLEX
    assert _equivalent(p, q, rtol=1e-12)
    assert abs(p.value - q.value) <= 1e-9 * abs(p.value)


def test_from_value_round_trip():
    assert PolePair.from_value(-3.0).value == -3.0
    assert PolePair.from_value(2.0 + 1.0j).value == 2.0 + 1.0j


# ---------------------------------------------------------------------------
# normalization: the diagonal block an assignment step writes into (S, T)


def _assigned_block(pole: PolePair):
    """The diagonal blocks of S and T that one assignment step writes for
    ``pole``, appended to the infinite block of a 6-state instance."""
    prob = make_instance(6, 3, 2, 4)
    state = assign_infinite_block(prob)
    j = state.j  # the step writes the state in place and raises j
    step = assign_complex_pair if pole.kind is PoleKind.FINITE_COMPLEX else assign_real_pole
    grown = step(state, pole)
    return grown.S[j:, j:], grown.T[j:, j:]


def test_normalize_real_pole_unit_pair():
    s, t = _assigned_block(PolePair.make(-1.0, 1.0))
    assert s.shape == t.shape == (1, 1)
    assert np.isclose(s[0, 0], -1.0 / np.sqrt(2.0))
    assert np.isclose(t[0, 0], 1.0 / np.sqrt(2.0))


def test_normalize_complex_alpha_dominant():
    # lambda = 1 + i: |lambda| >= 1, so S gets the identity and T gets D with
    # sigma + i*tau = conj(lambda)/|lambda|^2 = (1 - i)/2.
    s, t = _assigned_block(PolePair.make(1.0 + 1.0j, 1.0))
    assert np.array_equal(s, np.eye(2))
    assert t[0, 0] == t[1, 1] and np.isclose(t[0, 0], 0.5)
    assert np.isclose(t[0, 1] * t[1, 0], -0.25) and t[0, 1] < 0.0


def test_normalize_complex_beta_dominant():
    # lambda = (1 + i)/4 has |lambda| < 1: T gets the identity, S gets D
    # with sigma + i*tau = lambda.
    s, t = _assigned_block(PolePair.make(0.25 + 0.25j, 1.0))
    assert np.array_equal(t, np.eye(2))
    assert s[0, 0] == s[1, 1] and np.isclose(s[0, 0], 0.25)
    assert np.isclose(s[0, 1] * s[1, 0], -0.0625) and s[0, 1] > 0.0


@given(finite_floats, finite_floats)
def test_normalize_real_is_unit_and_ratio_preserving(a, b):
    assume(abs(a) + abs(b) > 1e-6)
    assume(b != 0.0 and math.isfinite(a / b))
    pair = PolePair.make(a, b)
    s, t = _assigned_block(pair)
    e1, e2 = s[0, 0], t[0, 0]
    assert np.isclose(e1 * e1 + e2 * e2, 1.0, atol=1e-12)
    # Same homogeneous pole: e1 * beta == alpha * e2.
    lhs, rhs = e1 * pair.beta.real, pair.alpha.real * e2
    assert abs(lhs - rhs) <= 1e-12 * (abs(lhs) + abs(rhs))


def test_normalize_real_survives_huge_ratio():
    # A pole near infinity must not overflow the unit normalization.
    s, t = _assigned_block(PolePair.make(1.0, 1e-210))
    assert np.isclose(s[0, 0], 1.0)
    assert t[0, 0] == pytest.approx(1e-210, rel=1e-15)


@example(re=0.6, im=0.8)  # |lambda| == 1.0 exactly: alpha-dominant
@given(finite_floats, finite_floats)
def test_normalize_complex_dominant_component_is_one(re, im):
    assume(abs(im) > 1e-6 * (1.0 + abs(re)))
    lam = PolePair.make(complex(re, im), 1.0).value
    s, t = _assigned_block(PolePair.make(lam, 1.0))
    alpha_dom = abs(lam) >= 1.0
    assert np.array_equal(s, np.eye(2)) is alpha_dom
    assert np.array_equal(t, np.eye(2)) is not alpha_dom
    d = t if alpha_dom else s
    gamma = lam.conjugate() / abs(lam) ** 2 if alpha_dom else lam
    # D = [[sigma, delta*tau], [-tau/delta, sigma]] with |sigma + i*tau| <= 1
    assert d[0, 0] == d[1, 1]
    assert d[0, 0] ** 2 - d[0, 1] * d[1, 0] <= 1.0 + 1e-12
    assert abs(d[0, 0] - gamma.real) <= 1e-12 * abs(gamma)
    assert abs(-d[0, 1] * d[1, 0] - gamma.imag**2) <= 1e-12 * abs(gamma) ** 2


# ---------------------------------------------------------------------------
# sequence helpers


def test_expand_to_values_appends_conjugates_and_skips_infinite():
    poles = (
        PolePair.infinite(),
        PolePair.from_value(-1.0),
        PolePair.from_value(2.0 + 3.0j),
    )
    vals = expand_to_values(poles)
    assert vals == [-1.0 + 0.0j, 2.0 + 3.0j, 2.0 - 3.0j]
    assert count_infinite(poles) == 1


def test_count_infinite_empty():
    assert count_infinite(()) == 0
