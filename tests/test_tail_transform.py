"""Adaptive sums: the Euler-Abel tail transform against mpmath.besselj.

mpmath.besselj at 40 digits is independent of this package's own
power-series reference and of its term kernels.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from besselseries import (EvalOptions, SeriesFamily, SeriesSpec,
                          eval_j0_variant, eval_series)
from besselseries.engine import _weighted_terms

SQRT3_2 = math.sqrt(3.0) / 2.0
OPTS = EvalOptions(mode="adaptive", k_max=10**6, tol=1e-10)


def _besselj(n, x):
    with mpmath.workdps(40):
        return float(mpmath.besselj(n, mpmath.mpf(x)))


def _criterion_1_specs():
    for fam in ("A", "B", "C"):
        for n in range(6):
            for b in (0.25, 0.5, SQRT3_2, 1.0):
                for x in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
                    if fam in ("A", "B") and n == 0:
                        continue
                    yield SeriesSpec(fam, n, b, x)


def test_criterion_1_grid_converges_within_tol():
    failures = []
    for spec in _criterion_1_specs():
        res = eval_series(spec, OPTS)
        err = abs(res.bessel_value - _besselj(spec.n, spec.b * spec.x))
        if not (res.converged and res.terms_used <= 2 * 10**4 and err <= OPTS.tol):
            failures.append(f"{spec}: converged={res.converged} "
                            f"terms={res.terms_used} err={err:.2e}")
    assert not failures, "\n".join(failures)


def _rounding_floor(spec, res):
    # A few ulps of the summed term magnitudes, carried into J space: the
    # families A and C recover J_n by dividing by b^n (2.6e-6 at b = 0.2,
    # n = 8), B only shrinks errors.  No truncation rule can go below it.
    scale = 1.0 if spec.family is SeriesFamily.B else spec.b**spec.n
    total = math.fsum(np.abs(_weighted_terms(spec, 1, res.terms_used + 1)))
    return 32 * 2.0**-52 * total / scale


@given(st.sampled_from("ABC"), st.integers(min_value=0, max_value=8),
       st.floats(min_value=0.2, max_value=1.0),
       st.floats(min_value=-20.0, max_value=20.0))
@settings(max_examples=100, deadline=None)
def test_adaptive_error_within_tol(family, n, b, x):
    assume(not (family == "B" and n == 0))
    assume(not (family == "A" and n == 0 and b == 1.0))
    spec = SeriesSpec(family, n, b, x)
    res = eval_series(spec, OPTS)
    assert res.converged
    assert res.tail_bound <= OPTS.tol
    err = abs(res.bessel_value - _besselj(n, b * x))
    assert err <= OPTS.tol + _rounding_floor(spec, res)


@pytest.mark.parametrize("k_max", [1, 50, 111, 112, 175, 176, 1000])
def test_k_max_caps_terms_including_window(k_max):
    # the transform settles at K0 = 128 (after K0 = 64) and reads a 48-term
    # window past it: 176 terms; any smaller k_max gives the raw partial sum
    spec = SeriesSpec(SeriesFamily.C, 3, 0.5, 20.0)
    res = eval_series(spec, EvalOptions(k_max=k_max, tol=1e-10))
    assert res.converged == (k_max >= 176)
    assert res.terms_used == min(k_max, 176)
    if not res.converged:
        fixed = eval_series(spec, EvalOptions(mode="fixed_k", k_max=k_max, tol=1e-10))
        assert (res.value, res.tail_bound) == (fixed.value, fixed.tail_bound)


@pytest.mark.parametrize("x", [0.0, 1.0, -3.0, 10.0, 19.5])
def test_j0_variant_adaptive(x):
    res = eval_j0_variant(x, OPTS)
    assert res.converged and res.terms_used <= 2 * 10**4
    assert abs(res.value - _besselj(0, x)) <= OPTS.tol


@pytest.mark.parametrize("n", [7, 8])
def test_order_above_six_at_origin(n):
    # every term of the window at phi = k pi exactly, where j_0 vanishes
    res = eval_series(SeriesSpec(SeriesFamily.C, n, 0.2, 0.0), OPTS)
    assert res.converged and res.bessel_value == 0.0


@pytest.mark.parametrize("x", [0.0, 2.0, -7.5])
def test_family_c_at_b0_is_exact(x):
    # b^n J_n(b x) at b = 0: J_0(0) = 1, and 0 for n >= 1
    for n, want in ((0, 1.0), (3, 0.0)):
        res = eval_series(SeriesSpec(SeriesFamily.C, n, 0.0, x), OPTS)
        assert (res.bessel_value, res.terms_used, res.converged) == (want, 0, True)
