"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import copy
import types

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
    (``_step_null_basis``) or its complex-pair choice (``_complex_pair_core``)
    is scratch the solver does not keep, so tests that inspect it record it
    here.  The steps write the ``AssignState`` in place, so the arguments
    are recorded as deep copies taken at the call: a recorded state is the
    one the call saw.
    """
    calls = []
    original = getattr(assign_module, name)

    def recording(*args):
        seen = copy.deepcopy(args)
        out = original(*args)
        calls.append((seen, out))
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(assign_module, name, recording)
        sol = run_pipeline(prob)
    return sol, calls


def rank1_quadratic(args, choice):
    """The quadratic a rank-1 complex step minimizes, recomputed from the
    recorded ``_complex_pair_core`` call ``args`` = (z1, zv, c_s, c_t,
    tau_pen) and its returned ``choice``.

    With psi1 = U[:, 0] of z1's SVD, (c, s) the rotation that makes Re and
    Im of (c + i s) psi1 orthogonal, ``vs`` the norms of those parts, ``w``
    the top column's v-part and ``W`` the v-parts of the other d - 1 mapped
    columns and of the j free directions, coefficients g of W give the
    v-column x = (c + i s)(w / nu1 + W g), and the added mass
    ||Re x||^2 / vs1^2 + ||Im x||^2 / vs2^2 is ||M y + b||^2 in the real
    coordinates y = (Re g, Im g): ``H`` = M^T M, ``h`` = 2 M^T b.  The
    chosen ``y`` is read back from the returned columns, which the
    orthonormal basis [[z1 V, 0], [zv V, free]] maps one to one onto their
    coefficients.
    """
    z1, zv, c_s, c_t, _ = args
    u, nus, vh = np.linalg.svd(z1)
    v = vh.conj().T
    c, s, *vs = assign_module._psi_rotation(u[:, 0])
    zvv = zv @ v
    free = assign_module._free_directions(c_s, c_t, zv.shape[0] // 2)
    w, big_w = zvv[:, 0], np.hstack([zvv[:, 1:], free])
    coef = np.concatenate([(z1 @ v).conj().T @ choice.p + zvv.conj().T @ choice.v, free.conj().T @ choice.v])
    rot = c + 1j * s
    assert abs(coef[0] - rot / nus[0]) <= 1e-10 / nus[0]
    g = coef[1:] / rot
    wr, wi = big_w.real, big_w.imag
    m_re = np.hstack([c * wr - s * wi, -c * wi - s * wr]) / vs[0]
    m_im = np.hstack([s * wr + c * wi, -s * wi + c * wr]) / vs[1]
    b = np.concatenate([(c * w.real - s * w.imag) / vs[0], (s * w.real + c * w.imag) / vs[1]]) / nus[0]
    mmat = np.vstack([m_re, m_im])
    return types.SimpleNamespace(
        H=mmat.T @ mmat,
        h=2.0 * mmat.T @ b,
        y=np.concatenate([g.real, g.imag]),
        w=w,
        W=big_w,
        c=c,
        s=s,
        vs=vs,
        nu1=float(nus[0]),
    )


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


def e_inside_the_input_range(n):
    """E = B W with r = 0: every pole infinite, and G can cancel E exactly."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, 2))
    e = b @ rng.standard_normal((2, n))
    return Problem(E=e, A=a, B=b, poles=(PolePair.infinite(),) * n, r=0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
