"""Pole values as homogeneous pairs (alpha, beta) and their normalization.

A pole of a matrix pencil is the ratio lambda = alpha/beta of an ordered
pair; beta = 0 encodes an infinite pole.  Two pairs describe the same pole
exactly when alpha1*beta2 == alpha2*beta1.  Pairs are kept in a canonical
form so that equality of ``PolePair`` objects is plain field equality:

* infinite poles are stored as (1, 0);
* finite real poles as (lambda, 1) with real lambda;
* finite complex poles as (lambda, 1) with Im(lambda) > 0, one stored pair
  standing for the conjugate couple.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

__all__ = [
    "PoleKind",
    "PoleCase",
    "PolePair",
    "NormalizedPole",
    "normalize_pole",
    "expand_to_values",
    "count_infinite",
]


class PoleKind(enum.Enum):
    INFINITE = "infinite"
    FINITE_REAL = "real"
    FINITE_COMPLEX = "complex"


class PoleCase(enum.Enum):
    """Which normalization applies to a pole during assignment."""

    REAL = "real"
    COMPLEX_ALPHA_DOMINANT = "complex-alpha"
    COMPLEX_BETA_DOMINANT = "complex-beta"


@dataclass(frozen=True)
class PolePair:
    alpha: complex
    beta: complex
    kind: PoleKind

    @classmethod
    def make(cls, alpha, beta) -> "PolePair":
        """Canonicalize an arbitrary (alpha, beta) pair.

        Only an exactly real, finite ratio is real; one that overflows
        stays complex.
        """
        a = complex(alpha)
        b = complex(beta)
        if a == 0 and b == 0:
            raise ValueError("pole pair (0, 0) is undefined")
        if b == 0:
            return cls(complex(1.0), complex(0.0), PoleKind.INFINITE)
        lam = a / b
        if lam.imag == 0 and math.isfinite(lam.real):
            return cls(complex(lam.real), complex(1.0), PoleKind.FINITE_REAL)
        if lam.imag < 0:
            lam = lam.conjugate()
        return cls(lam, complex(1.0), PoleKind.FINITE_COMPLEX)

    @classmethod
    def infinite(cls) -> "PolePair":
        return cls(complex(1.0), complex(0.0), PoleKind.INFINITE)

    @classmethod
    def from_value(cls, lam) -> "PolePair":
        return cls.make(lam, 1.0)

    @property
    def is_infinite(self) -> bool:
        return self.kind is PoleKind.INFINITE

    @property
    def value(self) -> complex:
        """Finite pole value lambda = alpha/beta."""
        if self.is_infinite:
            raise ValueError("infinite pole has no finite value")
        return self.alpha / self.beta


@dataclass(frozen=True)
class NormalizedPole:
    """Assignment-ready form of a pole.

    For a real pair (a, b) the unit diagonal entries are
    eps1 = a/sqrt(a^2+b^2), eps2 = b/sqrt(a^2+b^2).  For a complex pair the
    dominant component is normalized to 1 and the other becomes
    sigma + i*tau:  alpha-dominant (|a| >= |b|) uses
    sigma + i*tau = conj(a)*b / |a|^2, beta-dominant uses
    sigma + i*tau = conj(b)*a / |b|^2.
    """

    case: PoleCase
    eps1: complex
    eps2: complex
    sigma: float = 0.0
    tau: float = 0.0


def normalize_pole(pole: PolePair) -> NormalizedPole:
    """Compute the diagonal-block data used when assigning ``pole``.

    Infinite poles map onto the real case with (eps1, eps2) = (1, 0), the
    continuous extension of the real-case formulas to beta = 0.
    """
    if pole.is_infinite:
        return NormalizedPole(PoleCase.REAL, complex(1.0), complex(0.0))
    a, b = pole.alpha, pole.beta
    if pole.kind is PoleKind.FINITE_REAL:
        h = math.hypot(a.real, b.real)  # overflow-safe even for huge ratios
        return NormalizedPole(PoleCase.REAL, complex(a.real / h), complex(b.real / h))
    if abs(a) >= abs(b):
        # Two-stage scaling keeps every intermediate below |b/a| <= 1.
        mag = abs(a)
        ratio = (a.conjugate() / mag) * (b / mag)
        return NormalizedPole(
            PoleCase.COMPLEX_ALPHA_DOMINANT,
            complex(1.0),
            ratio,
            sigma=ratio.real,
            tau=ratio.imag,
        )
    mag = abs(b)
    ratio = (b.conjugate() / mag) * (a / mag)
    return NormalizedPole(
        PoleCase.COMPLEX_BETA_DOMINANT,
        ratio,
        complex(1.0),
        sigma=ratio.real,
        tau=ratio.imag,
    )


def expand_to_values(poles) -> list[complex]:
    """Finite pole values counting conjugates of stored complex pairs."""
    vals: list[complex] = []
    for p in poles:
        if p.is_infinite:
            continue
        v = p.value
        vals.append(v)
        if p.kind is PoleKind.FINITE_COMPLEX:
            vals.append(v.conjugate())
    return vals


def count_infinite(poles) -> int:
    return sum(1 for p in poles if p.is_infinite)
