"""Exception types shared across the package."""

from __future__ import annotations


class SchurPoleError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(SchurPoleError):
    """Malformed problem or solution file.

    Carries the 1-based line number of the offending line when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DegenerateStepError(SchurPoleError):
    """An assignment step hit a rank/feasibility condition that must hold
    for S-controllable inputs.  Raised instead of silently producing a
    meaningless factor column.

    Carries what is known about the failing step, None where unknown:
    ``step``, its kind as in ``StepRecord.kind``; ``pole_index``, the
    1-based position of its pole among the finite poles in processing
    order; ``null_dim`` and ``needed``, the null-space dimension the step
    found and the one it needs, set when that dimension fell short, or,
    when Xi = Q2^T X lost rank, the dimension null(Xi) reached and the one
    full rank leaves.
    """

    def __init__(
        self,
        message: str,
        *,
        step: str | None = None,
        pole_index: int | None = None,
        null_dim: int | None = None,
        needed: int | None = None,
    ):
        super().__init__(message)
        self.step = step
        self.pole_index = pole_index
        self.null_dim = null_dim
        self.needed = needed


class SingularPencilError(SchurPoleError):
    """det(A - lambda*E) vanishes identically; the pencil has no spectrum."""
