"""The one input contract of the public numeric entry points: numpy
integer and float scalars act as the equal Python scalars, np.float32 is
widened to a Python float before any arithmetic, and bool, NaN, +-inf and
non-numbers raise DomainError."""

import dataclasses
import math

import numpy as np
import pytest

import besselseries
from besselseries import (DomainError, EvalOptions, HalfOrderIndex, OracleConfig,
                          QuadratureOptions, SeriesFamily, SeriesSpec, asymptotic_term,
                          bessel_j, bessel_j_half, bessel_j_power_series,
                          check_fourier_coefficient, check_integral_identity, cos_series,
                          decay_ratio_study, eps, eval_at_b1, eval_j0_variant, g_a, g_bc,
                          log_gamma, phi, sin_series_1, sin_series_2, spherical_jn,
                          tail_bound, term_a, term_b, term_c, terms_to_tolerance,
                          uniform_convergence_proxy)
from besselseries.engine import _weighted_terms

FAST = EvalOptions("fixed_k", 16, 1e-3)
SPEC = SeriesSpec("A", 1, 1.0, 1.3)

# (entry point, valid arguments, integer positions, real positions)
ENTRY_POINTS = [
    (SeriesSpec, ("C", 1, 0.5, 1.3), (1,), (2, 3)),
    (EvalOptions, ("fixed_k", 16, 1e-3), (1,), (2,)),
    (phi, (1.3, 2), (1,), (0,)),
    (eps, (2,), (0,), ()),
    (g_a, (0.5, 2), (1,), (0,)),
    (g_bc, (0.5, 2), (1,), (0,)),
    (term_a, (1, 1.3, 2), (0, 2), (1,)),
    (term_b, (1, 1.3, 2), (0, 2), (1,)),
    (term_c, (1, 1.3, 2), (0, 2), (1,)),
    (eval_at_b1, (2, 1.3, FAST), (0,), (1,)),
    (eval_j0_variant, (1.3, FAST), (), (0,)),
    (bessel_j, (1, 1.3, "C", 0.5, FAST), (0,), (1, 3)),
    (asymptotic_term, ("C", 1, 1.3, 2), (1, 3), (2,)),
    (tail_bound, (SPEC, 50), (1,), ()),
    (HalfOrderIndex, (2,), (0,), ()),
    (OracleConfig, (1e-12, 100), (1,), (0,)),
    (spherical_jn, (2, 1.3), (0,), (1,)),
    (bessel_j_half, (2, 1.3), (0,), (1,)),
    (log_gamma, (1.3,), (), (0,)),
    (bessel_j_power_series, (1.5, 1.3), (), (0, 1)),
    (cos_series, (1.3, 16), (1,), (0,)),
    (sin_series_1, (1.3, 16), (1,), (0,)),
    (sin_series_2, (1.3, 16), (1,), (0,)),
    (QuadratureOptions, (16, 2, 1e-9, 6), (0, 1, 3), (2,)),
    (check_integral_identity, ("C", 0.5, 0.7, 1.3), (), (1, 2, 3)),
    (check_fourier_coefficient, ("C", 0.5, 0.7, 2), (3,), (1, 2)),
    (terms_to_tolerance, (SPEC, 1e-4, 10**4), (2,), (1,)),
    (decay_ratio_study, ("C", 1, 1.3, [10, 20]), (1,), (2,)),
    (uniform_convergence_proxy, ("A", 1, 1.3, [0.5, 1.0], [8, 16]), (1,), (2,)),
]
IDS = [fn.__name__ for fn, *_ in ENTRY_POINTS]
BAD = [True, False, np.True_, math.nan, math.inf, -math.inf, "1", None]


def _with(args, pos, value):
    return args[:pos] + (value,) + args[pos + 1:]


def test_table_covers_every_numeric_entry_point():
    # eval_series and sweep take specs and options only; the rest of
    # __all__ are types, constants and exceptions
    numeric = {name for name in besselseries.__all__
               if callable(getattr(besselseries, name))
               and not isinstance(getattr(besselseries, name), type)}
    numeric |= {"SeriesSpec", "EvalOptions", "HalfOrderIndex", "OracleConfig",
                "QuadratureOptions"}
    assert numeric - set(IDS) == {"eval_series", "sweep"}


@pytest.mark.parametrize("fn,args,ints,reals", ENTRY_POINTS, ids=IDS)
def test_numpy_scalars_act_as_python_scalars(fn, args, ints, reals):
    cases = [(p, conv(args[p]), args[p]) for p in ints
             for conv in (np.int64, np.int32, np.uint16)]
    cases += [(p, conv(args[p]), float(conv(args[p]))) for p in reals
              for conv in (np.float64, np.float32)]
    cases += [(p, np.int64(1), 1) for p in reals]
    for pos, np_value, py_value in cases:
        got = fn(*_with(args, pos, np_value))
        assert got == fn(*_with(args, pos, py_value)), (pos, np_value)
        if dataclasses.is_dataclass(fn):
            stored = getattr(got, dataclasses.fields(fn)[pos].name)
            assert type(stored) is (int if pos in ints else float), (pos, np_value)


@pytest.mark.parametrize("fn,args,ints,reals", ENTRY_POINTS, ids=IDS)
def test_bool_nonfinite_and_nonnumbers_rejected(fn, args, ints, reals):
    for pos in ints + reals:
        for bad in BAD:
            with pytest.raises(DomainError):
                fn(*_with(args, pos, bad))


REJECTED = [
    (check_integral_identity, ("A", 0.0, 0.5, math.inf)),
    (OracleConfig, ("a",)),
    (terms_to_tolerance, (SPEC, "x")),
    (EvalOptions, ("adaptive", 10**6, math.inf)),
    (OracleConfig, (math.inf,)),
    (QuadratureOptions, (32, 2, math.inf)),
    (cos_series, (True, 10)),
    (SeriesSpec, ("C", 1, 0.5, True)),
    (eval_j0_variant, (True,)),
    (log_gamma, (True,)),
    (term_c, (True, 1.0, 3)),
]

# (entry point, arguments with numpy scalars, the equal Python arguments)
ACCEPTED = [
    (eval_at_b1, (np.int64(2), 1.0), (2, 1.0)),
    (term_c, (1, 1.0, np.int64(3)), (1, 1.0, 3)),
    (spherical_jn, (np.int64(2), 1.0), (2, 1.0)),
    (tail_bound, (SPEC, np.int64(5)), (SPEC, 5)),
    (cos_series, (1.0, np.int64(10)), (1.0, 10)),
    (cos_series, (np.float32(1.0), 10), (1.0, 10)),
    (check_fourier_coefficient, ("C", 0.0, 0.5, np.int64(1)), ("C", 0.0, 0.5, 1)),
]


def _call_id(fn, args):
    return f"{fn.__name__}{args!r}"


@pytest.mark.parametrize("fn,args", REJECTED, ids=[_call_id(*c) for c in REJECTED])
def test_rejected_inputs(fn, args):
    with pytest.raises(DomainError):
        fn(*args)


@pytest.mark.parametrize("fn,args,same_as", ACCEPTED,
                         ids=[_call_id(fn, args) for fn, args, _ in ACCEPTED])
def test_accepted_inputs(fn, args, same_as):
    assert fn(*args) == fn(*same_as)


@pytest.mark.parametrize("family,n", [("A", 1), ("B", 1), ("B", 2), ("C", 0)])
def test_proxy_equals_per_k_partial_sums(family, n):
    x, b_grid, k_list = 5.0, [0.3, 0.7, 1.0], [100, 7, 5000, 7]
    cfg = OracleConfig(tol=1e-14)
    want = []
    for K in k_list:
        worst = 0.0
        for b in b_grid:
            spec = SeriesSpec(family, n, b, x)
            j = bessel_j_power_series(n, b * x, cfg)
            if spec.family is SeriesFamily.B:
                limit = j / b if n % 2 == 1 else (2.0 * n) / (b * b) * j
            else:
                limit = b**n * j
            worst = max(worst, abs(math.fsum(_weighted_terms(spec, 1, K + 1)) - limit))
        want.append(worst)
    assert uniform_convergence_proxy(family, n, x, b_grid, k_list, cfg) == want
