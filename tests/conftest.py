"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import schurpole.assign as assign_module
from schurpole import BenchConfig, PolePair, Problem, generalized_eig_oracle, generate_random_instance, run_pipeline

# Numerical tests can be slow on loaded CI boxes; wall-clock deadlines only
# produce flaky failures there.
settings.register_profile(
    "numeric",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("numeric")


def make_instance(n, rank_e, m, r, trial=0, seed=0):
    """Deterministic random problem with the benchmark generator."""
    cfg = BenchConfig(n=n, rank_e=rank_e, m=m, trials=max(trial + 1, 1), seed=seed)
    return generate_random_instance(cfg, r=r, trial=trial)


def solve_recording(prob, name):
    """Solve ``prob`` with ``schurpole.assign.<name>`` wrapped in a recorder.

    Returns the Solution and the ``(args, result)`` pair of every call of
    that function, in call order.  A step's null-space basis
    (``_step_null_basis``) or its complex-pair choice data
    (``_complex_pair_core``) is scratch the solver does not keep, so tests
    that inspect it record it here.
    """
    calls = []
    original = getattr(assign_module, name)

    def recording(*args):
        out = original(*args)
        calls.append((args, out))
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(assign_module, name, recording)
        sol = run_pipeline(prob)
    return sol, calls


def unsolvable_instance():
    """A validated instance on which ``run_pipeline`` raises DegenerateStepError.

    n = 100, m = 2, r = 62, with E = U V a product of Gaussian factors
    (100 x 60 times 60 x 100) and the 62 finite poles drawn as the spectrum
    of a random 62 x 62 pencil.  ``validate_problem`` passes it, but the
    solver loses accuracy on product-factor E at n >= 60: the P-share of
    the complex steps falls about tenfold per pair, and the complex step
    for pole 33 of 36 finds its direction matrix Z1 vanished (largest
    singular value 6e-14), with three poles still to go.  It is the
    exit-code-2 case of the CLI contract: if a solver change makes it
    solvable, that check needs a new instance, not its removal.
    """
    rng = np.random.default_rng([0, 60, 2, 62])
    e = rng.standard_normal((100, 60)) @ rng.standard_normal((60, 100))
    a = rng.standard_normal((100, 100))
    b = rng.standard_normal((100, 2))
    spectrum = generalized_eig_oracle(rng.standard_normal((62, 62)), rng.standard_normal((62, 62)))
    finite = tuple(p for p in spectrum if not p.is_infinite)
    return Problem(E=e, A=a, B=b, poles=(PolePair.infinite(),) * 38 + finite, r=62)


def rng_matrix(seed, rows, cols, scale=1.0):
    """Reproducible dense Gaussian matrix keyed by an integer seed."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, rows, cols]))
    return scale * rng.standard_normal((rows, cols))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
