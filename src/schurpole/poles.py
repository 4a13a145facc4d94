"""Pole values as homogeneous pairs (alpha, beta).

A pole of a matrix pencil is the ratio lambda = alpha/beta of an ordered
pair; beta = 0 encodes an infinite pole.  Two pairs describe the same pole
exactly when alpha1*beta2 == alpha2*beta1.  Pairs are kept in a canonical
form so that equality of ``PolePair`` objects is plain field equality:

* infinite poles are stored as (1, 0);
* finite real poles as (lambda, 1) with real lambda;
* finite complex poles as (lambda, 1) with Im(lambda) > 0, one stored pair
  standing for the conjugate couple.

The assignment steps in :mod:`schurpole.assign` turn a pair into the
diagonal block it occupies in (S, T); nothing here knows that layout.
"""

from __future__ import annotations

import cmath
import enum
from dataclasses import dataclass

__all__ = [
    "PoleKind",
    "PolePair",
    "expand_to_values",
    "count_infinite",
]


class PoleKind(enum.Enum):
    INFINITE = "infinite"
    FINITE_REAL = "real"
    FINITE_COMPLEX = "complex"


@dataclass(frozen=True)
class PolePair:
    alpha: complex
    beta: complex
    kind: PoleKind

    @classmethod
    def make(cls, alpha, beta) -> "PolePair":
        """Canonicalize an arbitrary (alpha, beta) pair.

        A ratio alpha/beta with imaginary part exactly zero is real.  A
        finite pole whose ratio is not finite (nan, inf, or alpha/beta
        overflowing) raises ValueError.
        """
        a = complex(alpha)
        b = complex(beta)
        if a == 0 and b == 0:
            raise ValueError("pole pair (0, 0) is undefined")
        if b == 0:
            return cls(complex(1.0), complex(0.0), PoleKind.INFINITE)
        lam = a / b
        if not cmath.isfinite(lam):
            raise ValueError(f"pole ratio alpha/beta = {lam} is not finite")
        if lam.imag == 0:
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
