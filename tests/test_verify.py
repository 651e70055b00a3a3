"""Tests for the quadrature-based verification stack."""

import math

import mpmath
import pytest

from besselseries import (BoundNotApplicableError, DomainError, EvalOptions,
                          NoConvergenceError, engine, SeriesFamily, SeriesSpec, check_fourier_coefficient,
                          check_integral_identity, decay_ratio_study, sweep,
                          terms_to_tolerance, uniform_convergence_proxy)
from besselseries import verify
from besselseries.special import _bessel_j_series_vec
from besselseries.verify import _panel_quad, _reference_j, fourier_parity_residual


class TestQuadratureCore:
    def test_polynomial_exactness(self):
        # 16-node Gauss is exact for degree-31 polynomials
        val = _panel_quad(lambda t: t**7 - 3 * t**2 + 1.0, 0.0, 2.0, 16, 1)
        assert val == pytest.approx(2.0**8 / 8 - 8.0 + 2.0, rel=1e-14)
        # a complex integrand comes back as a Python complex, just as exact
        val = _panel_quad(lambda t: (1 + 2j) * t**5 - 3j * t**2 + (0.5 - 1j), 0.0, 2.0, 16, 1)
        assert isinstance(val, complex)
        assert val == pytest.approx(35.0 / 3.0 + 34.0j / 3.0, rel=1e-14)

    def test_panel_doubling_self_consistency(self):
        a = _panel_quad(lambda t: (t * t + 0.5) ** -1.0, 0.0, 1.0, 24, 4)
        b = _panel_quad(lambda t: (t * t + 0.5) ** -1.0, 0.0, 1.0, 24, 8)
        assert abs(a - b) < 1e-12

    def test_refinement_failure_raises(self, monkeypatch):
        from besselseries import QuadratureError
        for name, value in [("_QUAD_NODES", 8), ("_QUAD_PANELS", 1), ("_QUAD_TOL", 1e-30),
                            ("_QUAD_MAX_REFINEMENTS", 2)]:
            monkeypatch.setattr(f"besselseries.verify.{name}", value)
        with pytest.raises(QuadratureError):
            check_integral_identity("C", 0.5, 1.0, 5.0)

    # float.hex of lhs and residual at the defaults of the former
    # QuadratureOptions (32 nodes, 2 panels, target 1e-11, 12 refinements);
    # at nu = 0.25 the integrand is not smooth, so the target decides how
    # many times the panels double
    @pytest.mark.parametrize("check,args,lhs,residual", [
        (check_integral_identity, ("A", 0.25, 0.7, 1.3),
         "0x1.cc32263585e49p-3", "0x1.17a4000000000p-40"),
        (check_integral_identity, ("B", 0.25, 0.7, 1.3),
         "0x1.69c2c3bd888a6p-1", "0x1.8280000000000p-43"),
        (check_integral_identity, ("C", 0.25, 1.0, 1.0),
         "0x1.32db6d3f30fc1p-1", "0x1.56e0000000000p-41"),
        (check_fourier_coefficient, ("A", 1.0, 0.7, 2),
         "-0x1.22f3c724550fbp-6", "0x1.94c583ada5b53p-55"),
        (check_fourier_coefficient, ("B", 0.25, 1.0, 2),
         "0x1.7bb98e6531560p-2", "0x1.4be800062ba07p-41"),
        (check_fourier_coefficient, ("C", 0.25, 1.0, 2),
         "-0x1.cf7c9c1f7aa32p-5", "0x1.c0b40001241cfp-42"),
    ], ids=["identity-A", "identity-B", "identity-C", "fourier-A", "fourier-B", "fourier-C"])
    def test_quadrature_goldens(self, check, args, lhs, residual):
        r = check(*args)
        assert (r.lhs.hex(), r.residual.hex()) == (lhs, residual)

    def test_parity_golden(self):
        assert fourier_parity_residual("C", 0.25, 0.7, 2).hex() == "0x1.0000000000000p-54"

    @pytest.mark.parametrize("group,args,panel_counts", [
        (verify._identity_checks, ("C", 0.5, 1.0, (0.0, 1.0, math.pi, 5.0)), 3),
        (verify._fourier_checks, ("B", 1.0, 0.7, range(9)), 12),
    ], ids=["identity", "fourier"])
    def test_one_series_call_per_panel_count(self, monkeypatch, group, args, panel_counts):
        # J_nu(b s) does not depend on y: each y refines on its own, but the
        # group evaluates the series once per distinct panel count
        sizes = []

        def counted(nu, x):
            sizes.append(len(x))
            return _bessel_j_series_vec(nu, x)

        monkeypatch.setattr(verify, "_bessel_j_series_vec", counted)
        verify._rule.cache_clear()
        group(*args)
        assert len(sizes) == len(set(sizes)) == panel_counts
        assert verify._rule.cache_info().misses == panel_counts

    # the suite grids of cli._verify_identity and cli._verify_fourier
    @pytest.mark.parametrize("group,check,nus,bs,points", [
        (verify._identity_checks, check_integral_identity, (0.0, 0.5, 1.0, 2.5),
         (0.5, 1.0, 2.0), (0.0, 1.0, math.pi, 5.0)),
        (verify._fourier_checks, check_fourier_coefficient, (0.0, 1.0, 2.5),
         (0.3, 0.7, 1.0), range(9)),
    ], ids=["identity", "fourier"])
    def test_groups_match_single_checks(self, group, check, nus, bs, points):
        for fam in ("A", "B", "C"):
            for nu in nus:
                for b in bs:
                    for r, p in zip(group(fam, nu, b, points), points, strict=True):
                        one = check(fam, nu, b, p)
                        assert (r.lhs.hex(), r.residual.hex()) == (one.lhs.hex(),
                                                                   one.residual.hex())


class TestIntegralIdentities:
    def test_c_family_trivial_point(self):
        r = check_integral_identity("C", 0.0, 1.0, 0.0)
        assert r.residual < 1e-10
        # the y = 0 right side collapses to sqrt(pi/2) J_{1/2}(1) = sin(1)
        assert r.rhs == pytest.approx(math.sin(1.0), rel=1e-12)

    def test_a_family_zero_at_y0(self):
        r = check_integral_identity("A", 0.0, 1.0, 0.0)
        assert r.lhs == 0.0 and r.rhs == 0.0 and r.residual == 0.0

    def test_b_family_example(self):
        r = check_integral_identity("B", 1.0, 2.0, math.pi)
        assert r.residual < 1e-8

    @pytest.mark.parametrize("family", ["A", "B", "C"])
    @pytest.mark.parametrize("nu", [0.0, 0.5, 2.5])
    def test_spot_grid(self, family, nu):
        r = check_integral_identity(family, nu, 1.0, 1.0)
        assert r.residual < 1e-9

    @pytest.mark.parametrize("family, nu", [("A", 0.0), ("C", 1.0)])
    def test_rhs_does_not_use_the_engine_j_m(self, monkeypatch, family, nu):
        # the half-integer orders J_{nu+3/2}, J_{nu+1/2} come from mpmath,
        # not from the package's own spherical Bessel code
        def refuse(*args, **kwargs):
            raise AssertionError("the reference called _spherical_jn_vec")

        monkeypatch.setattr("besselseries.special._spherical_jn_vec", refuse)
        b, y = 0.5, 1.0
        r = check_integral_identity(family, nu, b, y)
        with mpmath.workdps(40):
            B = mpmath.sqrt(mpmath.mpf(b) ** 2 + y**2)
            if family == "A":
                want = (mpmath.sqrt(mpmath.pi / 2) * y * b**nu * B ** (-nu - 1.5)
                        * mpmath.besselj(nu + 1.5, B))
            else:
                want = (mpmath.sqrt(mpmath.pi / 2) * b**nu * B ** (-nu - 0.5)
                        * mpmath.besselj(nu + 0.5, B))
            assert abs(r.rhs - want) <= 1e-15
        assert r.residual < 1e-9

    def test_validation(self):
        with pytest.raises(DomainError):
            check_integral_identity("A", -1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            check_integral_identity("A", 0.0, 0.0, 0.0)


class TestFourierCoefficients:
    def test_a_family_k0_trivial(self):
        r = check_fourier_coefficient("A", 0.0, 0.5, 0)
        assert r.lhs == pytest.approx(0.0, abs=1e-14)
        assert r.rhs == 0.0

    def test_c_family_example(self):
        assert check_fourier_coefficient("C", 0.0, 1.0, 1).residual < 1e-9

    def test_b_family_example(self):
        assert check_fourier_coefficient("B", 2.0, 0.7, 3).residual < 1e-9

    def test_parity_doubling(self):
        # extending the integration interval from [0,1] to [-1,1] exactly
        # doubles each coefficient
        for family in ("A", "B", "C"):
            assert fourier_parity_residual(family, 1.0, 0.7, 2) < 1e-9

    def test_validation(self):
        with pytest.raises(DomainError):
            check_fourier_coefficient("C", 0.0, 1.0, -1)


class TestDecayRatioStudy:
    def test_c_ratios_approach_one(self):
        ratios = dict(decay_ratio_study("C", 0, 1.0, [100, 1000, 10000]))
        assert abs(ratios[10000] - 1.0) < 0.01
        assert abs(ratios[10000] - 1.0) <= abs(ratios[100] - 1.0) + 1e-9

    def test_a_x0_exact(self):
        for k, ratio in decay_ratio_study("A", 0, 0.0, [3, 50, 999]):
            assert ratio == pytest.approx(1.0, rel=1e-12)

    def test_b_example(self):
        (_, ratio), = decay_ratio_study("B", 3, 2.0, [10**4])
        assert ratio == pytest.approx(1.0, abs=0.01)


class TestTermsToTolerance:
    def test_x0_needs_no_terms_beyond_k0(self):
        spec = SeriesSpec(SeriesFamily.C, 0, 1.0, 0.0)
        assert terms_to_tolerance(spec, 1e-12) == 0

    def test_scaling_with_tolerance(self):
        # order-0 family C: bound ~ x^2/(k pi)^2, so K ~ x/(pi sqrt(tol))
        spec = SeriesSpec(SeriesFamily.C, 0, 1.0, 10.0)
        k = terms_to_tolerance(spec, 1e-8)
        predicted = 10.0 / (math.pi * math.sqrt(1e-8))
        assert predicted / 2 <= k <= predicted * 2

    def test_a_family_reported(self):
        spec = SeriesSpec(SeriesFamily.A, 1, 1.0, 5.0)
        k = terms_to_tolerance(spec, 1e-8)
        assert k > 0
        from besselseries import tail_bound
        assert tail_bound(spec, k) <= 1e-8
        assert tail_bound(spec, k - 1) > 1e-8

    def test_not_applicable_below_b1(self):
        with pytest.raises((BoundNotApplicableError, NoConvergenceError)):
            terms_to_tolerance(SeriesSpec(SeriesFamily.C, 0, 0.5, 1.0), 1e-8, k_cap=10**4)


class TestSweep:
    def test_three_point_grid(self):
        grid = [SeriesSpec(SeriesFamily.C, 0, 1.0, 1.0),
                SeriesSpec(SeriesFamily.B, 1, 0.5, 2.0),
                SeriesSpec(SeriesFamily.A, 1, 1.0, 1.0)]
        records = sweep(grid, EvalOptions(tol=1e-10))
        assert len(records) == 3
        assert [r.family for r in records] == [s.family for s in grid]
        for r in records:
            assert r.error is None
            assert r.abs_error is not None and r.abs_error < 1e-7

    def test_empty_grid(self):
        assert sweep([]) == []

    def test_oracle_range_error_is_recorded(self):
        # mpmath.besselj gives up on J_50000(50000), even at maxprec 100000
        rec, = sweep([SeriesSpec(SeriesFamily.C, 5 * 10**4, 1.0, 5e4)],
                     EvalOptions(mode="fixed_k", k_max=10, tol=1e-6))
        assert rec.error is not None and "oracle" in rec.error
        assert rec.oracle is None

    def test_reference_at_large_order(self):
        # past mpmath's default precision cap, within maxprec; scipy.special.jv
        # gives 0.02076216527720079
        assert _reference_j(10**4, 1e4) == 0.020762165277200786

    def test_reference_failure_is_one_line(self, monkeypatch):
        # mpmath's convergence messages can span lines (J_10000(10000)
        # without maxprec gave three); the forwarded message keeps one
        def fail(*args, **kwargs):
            raise mpmath.libmp.NoConvergence("hypsum() failed\n  to converge\n")
        monkeypatch.setattr(mpmath, "besselj", fail)
        with pytest.raises(NoConvergenceError) as info:
            _reference_j(3, 1.5)
        assert str(info.value).endswith("failed in mpmath: hypsum() failed to converge")

    def test_oracle_at_negative_argument(self):
        rec, = sweep([SeriesSpec(SeriesFamily.C, 1, 1.0, -60.0)],
                     EvalOptions(mode="fixed_k", k_max=100))
        assert rec.error is None
        with mpmath.workdps(40):
            want = -float(mpmath.besselj(1, 60))
        assert want < 0.0 and rec.oracle == want

    def test_oracle_independent_of_global_mpmath_precision(self):
        grid = [SeriesSpec(SeriesFamily.C, 0, 1.0, 60.0),
                SeriesSpec(SeriesFamily.B, 3, 0.7, 2.5)]
        opts = EvalOptions(mode="fixed_k", k_max=50)
        before = [r.oracle for r in sweep(grid, opts)]
        saved = mpmath.mp.dps
        try:
            mpmath.mp.dps = 5
            after = [r.oracle for r in sweep(grid, opts)]
        finally:
            mpmath.mp.dps = saved
        assert after == before


class TestUniformConvergenceProxy:
    def test_family_a_sup_error_decays(self):
        bgrid = [0.1 * i for i in range(1, 10)]
        sups = uniform_convergence_proxy("A", 1, 5.0, bgrid, [2**6, 2**8, 2**10])
        assert sups[0] > sups[1] > sups[2]
        assert sups[2] < 1e-5

    @pytest.mark.parametrize("family,n", [("A", 1), ("B", 1), ("B", 2), ("C", 0)])
    def test_one_kernel_pass_for_every_b(self, monkeypatch, family, n):
        # the unmodulated terms do not depend on b, so nine b share one pass
        fam = SeriesFamily(family)
        kernel = engine._TERM_VEC[fam]
        calls = []

        def counted(*args):
            calls.append(len(args[2]))
            return kernel(*args)

        monkeypatch.setitem(engine._TERM_VEC, fam, counted)
        bgrid = [0.1 * i for i in range(1, 10)]
        uniform_convergence_proxy(family, n, 5.0, bgrid, [2**6, 2**10, 7])
        assert calls == [2**10]
