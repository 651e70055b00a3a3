"""Tests for the elementary building blocks.

Reference values are frozen from independent 40-digit computations
(brute-force Maclaurin sums, closed forms in extended precision); they do
not depend on the code under test.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import besselseries
from besselseries import (DomainError, NoConvergenceError, OracleConfig,
                          bessel_j_power_series, spherical_jn)
from besselseries import special
from besselseries.special import (_MILLER_FLOAT_MAX, _MILLER_RESCALE_M, _bessel_j_series_vec,
                                  _miller_start, _spherical_jn_vec)

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
        assert spherical_jn(1, 0.5) == pytest.approx(0.1625370306360665688606, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("m,z,ref", SPHERICAL_REFS)
    def test_reference_grid(self, m, z, ref):
        assert spherical_jn(m, z) == pytest.approx(ref, rel=1e-13, abs=0.0)

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
                assert spherical_jn(m, z) == pytest.approx(ref, rel=1e-13, abs=0.0)
            # sin z passed in as exactly 0 at z = k pi, as the term kernels
            # do at x = 0
            if k * math.pi < m + 1:
                got = _spherical_jn_vec(m, np.array([k * math.pi]), np.array([0.0]),
                                        np.array([(-1.0) ** k]))[0]
                assert got == pytest.approx(spherical_jn(m, k * math.pi), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("m", [57, 58, 64])
    @pytest.mark.parametrize("z", [0.5, 0.75, 1.0, 2.0])
    def test_miller_rescale_branch(self, m, z):
        # the overflow rescale of the downward recurrence first fires at
        # m = 58 for z = 0.5 (and at m = 64 only for z = 0.5 of these);
        # both sides of that order against 40-digit mpmath
        import mpmath
        with mpmath.workdps(40):
            ref = float(mpmath.sqrt(mpmath.pi / (2 * z)) * mpmath.besselj(m + 0.5, z))
        assert spherical_jn(m, z) == pytest.approx(ref, rel=1e-13, abs=0.0)

    def test_miller_rescale_order_is_tight(self):
        # below _MILLER_RESCALE_M the growth bound keeps the unscaled
        # recurrence under 1e250 and the overflow scan is skipped; at it,
        # z = 0.5 (the smallest Miller argument) does pass 1e250
        def peak(m, z):
            gp, g, top = 0.0, 1e-30, 1e-30
            for l in range(_miller_start(m), 0, -1):
                gp, g = g, (2 * l + 1) / z * g - gp
                top = max(top, abs(g))
            return top
        m = _MILLER_RESCALE_M
        assert m == 58
        assert peak(m - 1, 0.5) < 1e250 < peak(m, 0.5)
        assert max(peak(k, z) for k in range(m) for z in (0.5, 0.75, 3.0)) < 1e250

    @pytest.mark.parametrize("size", [1, _MILLER_FLOAT_MAX, _MILLER_FLOAT_MAX + 1])
    def test_miller_float_path_matches_array_path(self, monkeypatch, size):
        # the recurrence on Python floats and on numpy arrays rounds alike:
        # every order below the rescaling order, z across [0.5, m + 1) with
        # the zeros of j_0 in range, subsets on both sides of the switch
        rng = np.random.default_rng(size)
        for m in range(1, _MILLER_RESCALE_M):
            zeros = [k * math.pi for k in range(1, m // 3 + 2) if k * math.pi < m + 1]
            z = np.concatenate(([0.5], zeros, rng.uniform(0.5, m + 1, size)))[:size]
            s, c = np.sin(z), np.cos(z)
            default = special._jn_miller(m, z, s, c)
            paths = []
            for cap in (0, size):  # all arrays, all floats
                monkeypatch.setattr(special, "_MILLER_FLOAT_MAX", cap)
                paths.append(special._jn_miller(m, z, s, c))
            monkeypatch.undo()
            assert [v.hex() for v in paths[0]] == [v.hex() for v in paths[1]]
            assert [v.hex() for v in default] == [v.hex() for v in paths[0]]

    @pytest.mark.parametrize("size", [1, _MILLER_FLOAT_MAX, _MILLER_FLOAT_MAX + 1])
    def test_float_path_matches_array_path(self, monkeypatch, size):
        # every branch on Python floats against the same branch on arrays:
        # orders 0 .. 57, arguments from the Maclaurin, Miller and upward
        # ranges and the zeros of j_0, on both sides of the size switch
        rng = np.random.default_rng(size)
        for m in range(_MILLER_RESCALE_M):
            zeros = [k * math.pi for k in range(1, 4)]
            z = np.concatenate(([0.0], zeros, rng.uniform(0.0, 0.5, size),
                                rng.uniform(0.5, m + 1, size), rng.uniform(m + 1, m + 60, size)))
            z = rng.permutation(z)[:size] if size > 1 else z[[m % 4]]
            s, c = np.sin(z), np.cos(z)
            default = _spherical_jn_vec(m, z, s, c)
            monkeypatch.setattr(special, "_MILLER_FLOAT_MAX", 0)
            arrays = _spherical_jn_vec(m, z, s, c)
            monkeypatch.undo()
            assert [v.hex() for v in default] == [v.hex() for v in arrays]

    def test_maclaurin_keeps_twelve_term_bits(self):
        # the early stop leaves the bits of the full twelve-term sum, on
        # floats and on arrays
        rng = np.random.default_rng(7)
        z = np.concatenate(([0.0, 1e-300, 0.49999999999999994], rng.uniform(0.0, 0.5, 400)))
        for m in range(_MILLER_RESCALE_M):
            acc, t = np.zeros_like(z), np.ones_like(z)
            for i in range(12):
                acc += t
                t = t * (-z * z / 2.0) / ((i + 1) * (2 * m + 2 * i + 3))
            want = z**m / math.prod(range(1, 2 * m + 2, 2), start=1.0) * acc
            floats = [special._jn_maclaurin(m, v) for v in z.tolist()]
            assert [v.hex() for v in special._jn_maclaurin(m, z)] == [v.hex() for v in want]
            assert [float(v).hex() for v in floats] == [v.hex() for v in want]

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


def _j_half(m, z):
    # J_{m+1/2}(z) = sqrt(2z/pi) j_m(z)
    return math.sqrt(2.0 * z / math.pi) * spherical_jn(m, z)


class TestBesselJHalf:
    """Half-integer-order J through spherical_jn."""

    def test_simple_values(self):
        assert _j_half(0, math.pi / 2) == pytest.approx(2.0 / math.pi, rel=1e-14, abs=0.0)
        assert abs(_j_half(0, math.pi)) < 1e-16
        assert _j_half(0, 0.0) == 0.0
        assert _j_half(3, 0.0) == 0.0

    @pytest.mark.parametrize("m,z,ref", [
        (0, 0.5, 0.5409737899345280913309),
        (2, 3.0, 0.4127100322097159934375),
        (4, 11.0, -0.1519424818382104584126),
    ])
    def test_reference_values(self, m, z, ref):
        assert _j_half(m, z) == pytest.approx(ref, rel=1e-13, abs=0.0)

    def test_power_series_agreement(self):
        # same function through two unrelated code paths
        for m in range(0, 11):
            for z in (0.1, 0.9, 2.7, 8.3, 17.0, 30.0):
                ps = bessel_j_power_series(m + 0.5, z, OracleConfig(tol=1e-16))
                assert abs(_j_half(m, z) - ps) < 1e-11


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

    @pytest.mark.parametrize("nu", [0, 1, 2, 3])
    def test_vectorized_series_normalisation(self, nu):
        # at x = 1e-8 the series is its leading term (x/2)^nu / Gamma(nu + 1)
        assert _bessel_j_series_vec(nu, [1e-8])[0] == (0.5e-8) ** nu / math.gamma(nu + 1)

    def test_vectorized_matches_scalar(self):
        xs = np.linspace(0.0, 6.0, 41)
        for nu in (0.0, 0.5, 1.0, 2.5):
            vec = _bessel_j_series_vec(nu, xs)
            for xi, vi in zip(xs, vec):
                assert vi == pytest.approx(
                    bessel_j_power_series(nu, float(xi), OracleConfig(tol=1e-17)),
                    abs=1e-14)


def test_import_leaves_mpmath_unloaded():
    # mpmath is imported on first use, so a fixed-K caller never loads it
    src = os.path.dirname(os.path.dirname(besselseries.__file__))
    code = ("import sys, besselseries, besselseries.cli\n"
            "sys.exit('mpmath' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0
