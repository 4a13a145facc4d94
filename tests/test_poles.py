"""Homogeneous pole pairs, canonical forms, and normalization."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from schurpole.poles import (
    NormalizedPole,
    PoleCase,
    PoleKind,
    PolePair,
    count_infinite,
    expand_to_values,
    normalize_pole,
)

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


@given(finite_floats, nonzero_floats, nonzero_floats)
def test_make_is_scale_invariant(a, b, c):
    p = PolePair.make(a, b)
    q = PolePair.make(c * a, c * b)
    # Rounding in (c*a)/(c*b) can differ from a/b by an ulp, so equality of
    # the canonical pairs is only approximate; homogeneous equivalence holds.
    assert p.kind is q.kind
    assert _equivalent(p, q, rtol=1e-12)


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
# normalization into assignment data


def test_normalize_real_pole_unit_pair():
    npole = normalize_pole(PolePair.make(-1.0, 1.0))
    assert npole.case is PoleCase.REAL
    assert np.isclose(npole.eps1.real, -1.0 / np.sqrt(2.0))
    assert np.isclose(npole.eps2.real, 1.0 / np.sqrt(2.0))
    assert npole.eps1.imag == 0.0 and npole.eps2.imag == 0.0


def test_normalize_infinite_pole_embeds_as_real_case():
    npole = normalize_pole(PolePair.infinite())
    assert npole.case is PoleCase.REAL
    assert npole.eps1 == 1.0 and npole.eps2 == 0.0


def test_normalize_complex_alpha_dominant():
    # lambda = 1 + i: |alpha| = sqrt(2) >= |beta| = 1, so the alpha part is
    # normalized to one and conj(alpha)*beta/|alpha|^2 = (1 - i)/2 remains.
    npole = normalize_pole(PolePair.make(1.0 + 1.0j, 1.0))
    assert npole.case is PoleCase.COMPLEX_ALPHA_DOMINANT
    assert npole.eps1 == 1.0
    assert np.isclose(npole.sigma, 0.5)
    assert np.isclose(npole.tau, -0.5)


def test_normalize_complex_beta_dominant():
    # lambda = (1 + i)/4 has |alpha| < |beta| after canonicalization.
    npole = normalize_pole(PolePair.make(0.25 + 0.25j, 1.0))
    assert npole.case is PoleCase.COMPLEX_BETA_DOMINANT
    assert npole.eps2 == 1.0
    assert np.isclose(npole.sigma, 0.25)
    assert np.isclose(npole.tau, 0.25)


@given(finite_floats, finite_floats)
def test_normalize_real_is_unit_and_ratio_preserving(a, b):
    assume(abs(a) + abs(b) > 1e-6)
    pair = PolePair.make(a, b)
    assume(pair.kind is not PoleKind.FINITE_COMPLEX)
    npole = normalize_pole(pair)
    e1, e2 = npole.eps1.real, npole.eps2.real
    assert np.isclose(e1 * e1 + e2 * e2, 1.0, atol=1e-12)
    # Same homogeneous pole.
    assert _equivalent(PolePair.make(e1, e2), pair, rtol=1e-12)


def test_normalize_real_survives_huge_ratio():
    # A pole near infinity must not overflow the unit normalization.
    npole = normalize_pole(PolePair.make(1.0, 1e-210))
    assert np.isclose(npole.eps1.real, 1.0)
    assert np.isclose(npole.eps2.real, 1e-210)


@given(finite_floats, finite_floats)
def test_normalize_complex_dominant_component_is_one(re, im):
    assume(abs(im) > 1e-6 * (1.0 + abs(re)))
    npole = normalize_pole(PolePair.make(complex(re, im), 1.0))
    gamma = complex(npole.sigma, npole.tau)
    assert abs(gamma) <= 1.0 + 1e-12
    if npole.case is PoleCase.COMPLEX_ALPHA_DOMINANT:
        assert npole.eps1 == 1.0
        assert npole.eps2 == gamma
    else:
        assert npole.eps2 == 1.0
        assert npole.eps1 == gamma


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
