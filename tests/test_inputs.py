"""The one input contract of the public numeric entry points: numpy
integer and float scalars act as the equal Python scalars, np.float32 is
widened to a Python float before any arithmetic, and bool, NaN, +-inf and
non-numbers raise DomainError."""

import dataclasses
import math

import numpy as np
import pytest

import besselseries
from besselseries import (SERIES_X_MAX, DomainError, EvalOptions, OracleConfig, SeriesFamily,
                          SeriesSpec, asymptotic_term, bessel_j, bessel_j_power_series,
                          check_fourier_coefficient, check_integral_identity, cos_series,
                          decay_ratio_study, eps, eval_at_b1, eval_j0_variant, eval_series,
                          g_a, g_bc, phi, sin_series_1, sin_series_2, spherical_jn,
                          tail_bound, term_a, term_b, term_c, terms_to_tolerance,
                          uniform_convergence_proxy)
from besselseries.engine import _weighted_terms
from besselseries.verify import fourier_parity_residual

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
    (OracleConfig, (1e-12, 100), (1,), (0,)),
    (spherical_jn, (2, 1.3), (0,), (1,)),
    (bessel_j_power_series, (1.5, 1.3), (), (0, 1)),
    (cos_series, (1.3, 16), (1,), (0,)),
    (sin_series_1, (1.3, 16), (1,), (0,)),
    (sin_series_2, (1.3, 16), (1,), (0,)),
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
    numeric |= {"SeriesSpec", "EvalOptions", "OracleConfig"}
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
    (cos_series, (True, 10)),
    (SeriesSpec, ("C", 1, 0.5, True)),
    (eval_j0_variant, (True,)),
    (term_c, (True, 1.0, 3)),
    (fourier_parity_residual, ("C", 0.0, 0.5, True)),
    (fourier_parity_residual, ("C", 0.0, 0.5, -1)),
    (fourier_parity_residual, ("C", 0.0, 0.0, 1)),
    (fourier_parity_residual, ("C", math.nan, 0.5, 1)),
    # the integrands' power series for J_nu(b s) stops at b s = 8
    (check_integral_identity, ("C", 0.0, 8.5, 1.0)),
    (check_fourier_coefficient, ("B", 1.0, 8.5, 1)),
    (fourier_parity_residual, ("A", 0.5, 8.5, 2)),
    (SeriesSpec, ("C", 1, 0.5, 1e200)),
    (SeriesSpec, ("A", 2, 0.5, -1e200)),
    (eval_at_b1, (2, 1e200)),
    (eval_j0_variant, (1e200,)),
    (bessel_j, (1, 1e200, "C", 0.5)),
    (term_a, (1, 1e200, 3)),
    (term_b, (1, 1e200, 3)),
    (term_c, (1, 1e200, 3)),
    (cos_series, (1e200, 10)),
    (sin_series_1, (-1e200, 10)),
    (sin_series_2, (1e200, 10)),
    (asymptotic_term, ("A", 5, 1e70, 1)),
    (asymptotic_term, ("B", 9, 1e60, 1)),
    (asymptotic_term, ("C", 4, 1e100, 1)),
    (asymptotic_term, ("B", 2, 1e200, 1)),
    (asymptotic_term, ("C", 0, 1e200, 1)),
    (asymptotic_term, ("A", 1, 1e200, 3)),
    (decay_ratio_study, ("A", 1, 0.0, [5])),
    (decay_ratio_study, ("C", 2, 0.0, [5])),
    (decay_ratio_study, ("C", 0, 0.0, [5])),
    # family B's limit divides by b, and the proxy's x is >= 0
    (uniform_convergence_proxy, ("B", 1, 5.0, [0.0], [8])),
    (uniform_convergence_proxy, ("B", 2, 5.0, [0.5, -0.0], [8])),
    # ... and for even n by b * b, which underflows to 0 below about 1.5e-162
    (uniform_convergence_proxy, ("B", 2, 5.0, [1e-170], [8])),
    (uniform_convergence_proxy, ("A", 1, -2.5, [0.5], [8])),
    (uniform_convergence_proxy, ("C", 0, -0.5, [], [8])),
    # the proxy's limit takes J_n(bx) from the power series, bx <= 50
    (uniform_convergence_proxy, ("C", 1, 60.0, [0.9], [8])),
    # bessel_j runs the series at x / b, which must stay within SERIES_X_MAX
    (bessel_j, (1, 2.0, "C", 1e-300)),
    (bessel_j, (1, 1e99, "B", 1e-300)),
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


@pytest.mark.parametrize("x", [SERIES_X_MAX, -SERIES_X_MAX])
def test_largest_argument_gives_finite_sums(x):
    # every series term stays finite up to |x| = SERIES_X_MAX (the suite
    # turns an overflow warning into an error)
    values = [eval_series(SeriesSpec(f, n, b, x), EvalOptions("fixed_k", k)).value
              for f, n, b in [("A", 3, 0.5), ("B", 5, 0.7), ("B", 6, 0.3), ("C", 8, 0.9)]
              for k in (1, 64)]
    values += [eval_j0_variant(x, EvalOptions("fixed_k", 64)).value,
               cos_series(x, 64), sin_series_1(x, 64), sin_series_2(x, 64)]
    values += [t(2, abs(x), 3) for t in (term_a, term_b, term_c)]
    assert all(math.isfinite(v) for v in values)


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


def test_b_limit_is_named():
    with pytest.raises(DomainError, match=r"0 < b <= 8.*got 8\.5"):
        check_integral_identity("C", 0.0, 8.5, 1.0)
    assert check_integral_identity("C", 0.0, 8.0, 1.0).residual < 1e-10


def test_proxy_edges_are_named():
    # the messages name the proxy's own arguments, not the internal b x
    with pytest.raises(DomainError, match=r"family B requires every b in b_grid > 0, got 0\.0"):
        uniform_convergence_proxy("B", 1, 5.0, [0.0], [8])
    with pytest.raises(DomainError, match=r"uniform_convergence_proxy requires x >= 0, got -2\.5"):
        uniform_convergence_proxy("A", 1, -2.5, [0.5], [8])


def test_bessel_j_range_is_named():
    # the messages name the caller's x and b, not the series argument x / b
    with pytest.raises(DomainError, match=r"bessel_j requires \|x / b\| <= 1e\+100, "
                       r"got x = 2\.0, b = 1e-300"):
        bessel_j(1, 2.0, "C", 1e-300)
    with pytest.raises(DomainError, match=r"got x = 1e\+99, b = 1e-300"):
        bessel_j(1, 1e99, "B", 1e-300)


def test_proxy_power_series_range_is_named():
    with pytest.raises(DomainError, match=r"uniform_convergence_proxy requires b x <= 50\.0 "
                       r"for its power-series limit, got x = 60\.0, b = 0\.9"):
        uniform_convergence_proxy("C", 1, 60.0, [0.5, 0.9, 0.7], [8])
    assert len(uniform_convergence_proxy("C", 1, 50.0, [1.0], [0])) == 1


@pytest.mark.parametrize("family,n", [("A", 1), ("B", 2), ("C", 0)])
def test_proxy_edge_lists(family, n):
    # K = 0 sums no term, so the sup is the largest |limit|; no b, no sup
    cfg = OracleConfig(tol=1e-14)
    b_grid = [0.3, 0.7]
    limits = []
    for b in b_grid:
        j = bessel_j_power_series(n, b * 5.0, cfg)
        if family == "B":
            limits.append((2.0 * n) / (b * b) * j)
        else:
            limits.append(b**n * j)
    assert uniform_convergence_proxy(family, n, 5.0, b_grid, [0], cfg) == [max(map(abs, limits))]
    assert uniform_convergence_proxy(family, n, 5.0, [], [0, 64], cfg) == [0.0, 0.0]
