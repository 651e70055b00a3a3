"""Tests for the elementary building blocks.

Reference values are frozen from independent 40-digit computations
(brute-force Maclaurin sums, closed forms in extended precision); they do
not depend on the code under test.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besselseries import (DomainError, HalfOrderIndex, NoConvergenceError,
                          OracleConfig, bessel_j_half, bessel_j_power_series,
                          log_gamma, spherical_jn)
from besselseries.special import _bessel_j_series_vec, _spherical_jn_vec

# j_m(z) frozen at 22 digits
SPHERICAL_REFS = [
    (0, 1000000.0, -3.499935021712929521177e-7),
    (1, 0.5, 0.1625370306360665688606),
    (2, 0.3, 0.005961524868620217718673),
    (3, 1000000.0, 9.367542274801065275333e-7),
    (5, 0.7, 1.58661155125683264693e-5),
    (5, 4.0, 0.05176553975736346141538),
    (10, 3.2, 6.541250506097200319993e-6),
    (12, 0.45, 8.689055746655945313601e-18),
    (25, 12.5, 1.949216051545070670922e-7),
    (40, 17.0, 4.31637007400057409595e-13),
    (64, 30.0, 4.732295973400671449293e-17),
    (64, 100.0, 0.008898732227125486407843),
    (7, 7.9, 0.1190771899391207540614),
    (2, 2.9, 0.2932878414758207857648),
]

LOG_GAMMA_REFS = [
    (0.001, 6.907178885383853682512),
    (0.07, 2.622753760603215492585),
    (0.3, 1.095797994818075521677),
    (0.5, 0.5723649429247000870717),
    (1.5, -0.1207822376352452223455),
    (3.7, 1.428072326665387921872),
    (8.470391993327773, 9.487734700623605547248),
    (13.0, 19.98721449566188614952),
    (25.5, 56.38916764371994674445),
    (92.61801501251041, 325.4567499028105078837),
    (120.25, 454.220987383358199682),
    (170.0, 701.4372638087370853465),
]


class TestSphericalJn:
    def test_j0_at_pi_is_zero(self):
        assert abs(spherical_jn(0, math.pi)) < 1e-16

    def test_j0_at_zero_limit(self):
        assert spherical_jn(0, 0.0) == 1.0

    def test_jm_at_zero(self):
        for m in (1, 2, 7):
            assert spherical_jn(m, 0.0) == 0.0

    def test_j1_half(self):
        # brute-force Maclaurin of j_1 cross-checked against
        # (sin z / z^2 - cos z / z) at 40 digits
        assert spherical_jn(1, 0.5) == pytest.approx(0.1625370306360665688606, rel=1e-14)

    @pytest.mark.parametrize("m,z,ref", SPHERICAL_REFS)
    def test_reference_grid(self, m, z, ref):
        assert spherical_jn(m, z) == pytest.approx(ref, rel=1e-13)

    def test_recurrence_self_consistency(self):
        # j_{m+1}(z) = (2m+1)/z j_m(z) - j_{m-1}(z) on an m, z grid
        for m in range(1, 12):
            for z in np.geomspace(0.1, 100.0, 25):
                z = float(z)
                lhs = spherical_jn(m + 1, z)
                rhs = (2 * m + 1) / z * spherical_jn(m, z) - spherical_jn(m - 1, z)
                scale = max(abs(lhs), abs(spherical_jn(m, z)) * (2 * m + 1) / z)
                assert abs(lhs - rhs) <= 1e-10 * max(scale, 1e-300)

    def test_small_argument_taylor(self):
        # j_1(z)/z -> 1/3
        assert abs(spherical_jn(1, 1e-4) / 1e-4 - 1.0 / 3.0) < 1e-8

    def test_branch_agreement(self):
        # Miller and upward regions must join smoothly around z = m + 1
        for m in (3, 8):
            lo = _spherical_jn_vec(m, np.array([m + 0.999]))
            hi = _spherical_jn_vec(m, np.array([m + 1.001]))
            assert np.isfinite(lo[0]) and np.isfinite(hi[0])
            assert abs(lo[0] - hi[0]) < 0.01 * max(abs(lo[0]), abs(hi[0]))

    @pytest.mark.parametrize("m", [3, 5, 8, 9])
    def test_miller_near_zeros_of_j0(self, m):
        # the downward recurrence is normalized against j_0 = sin z / z,
        # which vanishes at z = k pi; 40-digit mpmath references
        import mpmath
        for k in range(1, 4):
            for z in (k * math.pi - 1e-3, k * math.pi, k * math.pi + 1e-6):
                if not 0.5 <= z < m + 1:
                    continue
                with mpmath.workdps(40):
                    ref = float(mpmath.sqrt(mpmath.pi / (2 * z)) * mpmath.besselj(m + 0.5, z))
                assert spherical_jn(m, z) == pytest.approx(ref, rel=1e-13)
            # sin z passed in as exactly 0 at z = k pi, as the term kernels
            # do at x = 0
            if k * math.pi < m + 1:
                got = _spherical_jn_vec(m, np.array([k * math.pi]), np.array([0.0]),
                                        np.array([(-1.0) ** k]))[0]
                assert got == pytest.approx(spherical_jn(m, k * math.pi), rel=1e-13)

    def test_invalid_arguments(self):
        with pytest.raises(DomainError):
            spherical_jn(-1, 1.0)
        with pytest.raises(DomainError):
            spherical_jn(0, -1.0)
        with pytest.raises(DomainError):
            spherical_jn(0, float("nan"))

    @given(st.integers(min_value=0, max_value=20),
           st.floats(min_value=0.0, max_value=1000.0))
    @settings(max_examples=60, deadline=None)
    def test_magnitude_bound(self, m, z):
        # |j_m| <= 1 everywhere
        assert abs(spherical_jn(m, z)) <= 1.0 + 1e-12


class TestBesselJHalf:
    def test_simple_values(self):
        assert bessel_j_half(0, math.pi / 2) == pytest.approx(2.0 / math.pi, rel=1e-14)
        assert abs(bessel_j_half(0, math.pi)) < 1e-16
        assert bessel_j_half(0, 0.0) == 0.0
        assert bessel_j_half(3, 0.0) == 0.0

    @pytest.mark.parametrize("m,z,ref", [
        (0, 0.5, 0.5409737899345280913309),
        (2, 3.0, 0.4127100322097159934375),
        (4, 11.0, -0.1519424818382104584126),
    ])
    def test_reference_values(self, m, z, ref):
        assert bessel_j_half(m, z) == pytest.approx(ref, rel=1e-13)

    def test_half_order_index(self):
        idx = HalfOrderIndex(2)
        assert idx.order == 2.5
        assert bessel_j_half(idx, 3.0) == bessel_j_half(2, 3.0)
        with pytest.raises(DomainError):
            HalfOrderIndex(-1)

    def test_power_series_agreement(self):
        # same function through two unrelated code paths
        for m in range(0, 11):
            for z in (0.1, 0.9, 2.7, 8.3, 17.0, 30.0):
                ps = bessel_j_power_series(m + 0.5, z, OracleConfig(tol=1e-16))
                assert abs(bessel_j_half(m, z) - ps) < 1e-11


class TestLogGamma:
    def test_trivial_values(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
        assert log_gamma(2.0) == pytest.approx(0.0, abs=1e-15)
        assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), abs=1e-14)

    @pytest.mark.parametrize("a,ref", LOG_GAMMA_REFS)
    def test_reference_grid(self, a, ref):
        assert abs(log_gamma(a) - ref) <= 1e-13

    def test_dense_absolute_error(self):
        # recurrence Gamma(a+1) = a Gamma(a) as an internal consistency net
        for a in np.linspace(0.05, 84.5, 173):
            a = float(a)
            assert abs(log_gamma(a + 1.0) - log_gamma(a) - math.log(a)) < 2e-13

    def test_invalid(self):
        for bad in (0.0, -1.5, float("nan")):
            with pytest.raises(DomainError):
                log_gamma(bad)


class TestBesselJPowerSeries:
    def test_at_zero(self):
        assert bessel_j_power_series(0, 0.0) == 1.0
        assert bessel_j_power_series(1, 0.0) == 0.0
        assert bessel_j_power_series(0.5, 0.0) == 0.0

    def test_j0_of_one(self):
        # value independently confirmed by quadrature of
        # (1/pi) int_0^pi cos(sin t) dt
        v = bessel_j_power_series(0, 1.0, OracleConfig(tol=1e-16))
        assert v == pytest.approx(0.7651976865579666, abs=1e-15)

    @pytest.mark.parametrize("nu,x,ref", [
        (2.5, 3.0, 0.4127100322097159934375),
        (0.5, 1.0, 0.6713967071418030904164),
        (3, 7.5, -0.2580609131934603116627),
        (4, 2.0, 0.03399571980756843414576),
    ])
    def test_reference_values(self, nu, x, ref):
        assert bessel_j_power_series(nu, x) == pytest.approx(ref, abs=2e-15)

    def test_large_argument_accuracy(self):
        # the cancellation-heavy end of the documented range
        assert bessel_j_power_series(0, 50.0, OracleConfig(tol=1e-14)) == pytest.approx(
            0.05581232766925181, abs=1e-13)

    def test_no_convergence(self):
        with pytest.raises(NoConvergenceError):
            bessel_j_power_series(0, 30.0, OracleConfig(tol=1e-15, max_terms=5))

    def test_range_errors(self):
        with pytest.raises(DomainError):
            bessel_j_power_series(-1.0, 1.0)
        with pytest.raises(DomainError):
            bessel_j_power_series(0, 51.0)
        with pytest.raises(DomainError):
            bessel_j_power_series(0, -0.5)
        with pytest.raises(DomainError):
            OracleConfig(tol=-1e-10)
        with pytest.raises(DomainError):
            OracleConfig(max_terms=0)

    def test_vectorized_matches_scalar(self):
        xs = np.linspace(0.0, 6.0, 41)
        for nu in (0.0, 0.5, 1.0, 2.5):
            vec = _bessel_j_series_vec(nu, xs)
            for xi, vi in zip(xs, vec):
                assert vi == pytest.approx(
                    bessel_j_power_series(nu, float(xi), OracleConfig(tol=1e-17)),
                    abs=1e-14)
