"""Evaluation-level engine tests: summation, truncation semantics, limit
cases, parity, tail bounds, and term asymptotics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besselseries import (BoundNotApplicableError, DomainError, EvalOptions,
                          SeriesFamily, SeriesSpec, asymptotic_term, bessel_j,
                          eval_at_b1, eval_j0_variant, eval_series,
                          tail_bound, term_a)

SQRT3_2 = math.sqrt(3.0) / 2.0

# frozen 40-digit references
J0_1 = 0.7651976865579666
J1_1 = 0.4400505857449335
J1_2 = 0.5767248077568734
J2_5 = 0.04656511627775222
J0_3 = -0.2600519549019334
J2_3 = 0.4860912605858911


class TestSpecValidation:
    def test_divergent_a_b1_n0(self):
        with pytest.raises(DomainError, match="diverges"):
            SeriesSpec(SeriesFamily.A, 0, 1.0, 1.0)

    def test_family_b_needs_n1(self):
        with pytest.raises(DomainError):
            SeriesSpec(SeriesFamily.B, 0, 0.5, 1.0)

    def test_family_a_needs_positive_b(self):
        with pytest.raises(DomainError):
            SeriesSpec(SeriesFamily.A, 1, 0.0, 1.0)

    def test_b_range(self):
        with pytest.raises(DomainError):
            SeriesSpec(SeriesFamily.C, 0, 1.0001, 1.0)
        with pytest.raises(DomainError):
            SeriesSpec(SeriesFamily.C, 0, -0.1, 1.0)

    def test_valid_combinations(self):
        SeriesSpec(SeriesFamily.A, 0, 0.5, 1.0)      # n=0 fine for b<1
        SeriesSpec(SeriesFamily.A, 1, 1.0, 1.0)      # b=1 fine for n>=1
        SeriesSpec(SeriesFamily.C, 0, 0.0, 1.0)      # C allows b=0 at n=0
        SeriesSpec("c", 0, 1.0, -3.0)                # case-insensitive, x<0 ok

    def test_options_validation(self):
        with pytest.raises(DomainError):
            EvalOptions(mode="bogus")
        with pytest.raises(DomainError):
            EvalOptions(k_max=0)
        with pytest.raises(DomainError):
            EvalOptions(tol=0.0)


class TestInputEdges:
    def test_numpy_integer_order(self):
        spec = SeriesSpec("C", np.int64(2), 0.5, 1.0)
        assert type(spec.n) is int and spec.n == 2
        assert eval_series(spec).bessel_value == eval_series(
            SeriesSpec("C", 2, 0.5, 1.0)).bessel_value
        assert bessel_j(np.int32(1), 2.0, "C") == bessel_j(1, 2.0, "C")

    def test_bool_order_rejected(self):
        with pytest.raises(DomainError):
            SeriesSpec("C", True, 0.5, 1.0)
        with pytest.raises(DomainError):
            bessel_j(False, 1.0, "C")

    def test_bool_scale_rejected(self):
        with pytest.raises(DomainError):
            SeriesSpec("C", 0, True, 1.0)
        with pytest.raises(DomainError):
            bessel_j(1, 1.0, "C", b=True)

    def test_k_max_numpy_integer_and_bool(self):
        opts = EvalOptions(k_max=np.int64(100))
        assert type(opts.k_max) is int and opts.k_max == 100
        with pytest.raises(DomainError):
            EvalOptions(k_max=True)
        with pytest.raises(DomainError):
            EvalOptions(k_max=100.0)


class TestEvalSeries:
    def test_c_at_origin(self):
        res = eval_series(SeriesSpec(SeriesFamily.C, 0, 1.0, 0.0),
                          EvalOptions(tol=1e-12))
        assert res.value == 1.0
        assert res.bessel_value == 1.0
        assert res.converged

    def test_b_limit_at_b0(self):
        # exact analytic limit lim_{b->0} J_1(bx)/b = x/2
        res = eval_series(SeriesSpec(SeriesFamily.B, 1, 0.0, 2.0))
        assert res.converged and res.terms_used == 0
        assert res.bessel_value == 1.0

    def test_b_limit_at_b0_higher_odd(self):
        # lim J_3(bx)/b = 0
        res = eval_series(SeriesSpec(SeriesFamily.B, 3, 0.0, 2.0))
        assert res.bessel_value == 0.0

    def test_b_limit_at_b0_even(self):
        # lim (4/b^2) J_2(bx) = x^2/2
        res = eval_series(SeriesSpec(SeriesFamily.B, 2, 0.0, 3.0))
        assert res.bessel_value == 4.5

    def test_b0_limit_is_series_limit(self):
        # the returned limit is what the b = 0 series itself sums to:
        # partial sums of eps_k (-1)^k f_n^B(x, k pi) approach it at O(1/K)
        import numpy as np
        from besselseries.engine import _weighted_terms
        spec = SeriesSpec(SeriesFamily.B, 1, 0.0, 2.0)
        partial = math.fsum(_weighted_terms(spec, 1, 20001))
        assert partial == pytest.approx(1.0, abs=1e-4)

    def test_c_trivial_zero(self):
        res = eval_series(SeriesSpec(SeriesFamily.C, 2, 0.0, 5.0))
        assert res.value == 0.0 and res.bessel_value == 0.0
        assert res.terms_used == 0 and res.converged

    def test_c_fixed_k_reference(self):
        res = eval_series(SeriesSpec(SeriesFamily.C, 0, 1.0, 1.0),
                          EvalOptions(mode="fixed_k", k_max=10**5, tol=1e-7))
        assert res.bessel_value == pytest.approx(J0_1, abs=1e-7)
        assert res.terms_used == 10**5

    def test_adaptive_examples(self):
        res = eval_series(SeriesSpec(SeriesFamily.C, 0, 1.0, 1.0))
        assert res.converged and res.tail_bound <= 1e-10
        assert res.bessel_value == pytest.approx(J0_1, abs=1e-7)
        res = eval_series(SeriesSpec(SeriesFamily.B, 2, 1.0, 3.0))
        assert res.bessel_value == pytest.approx(J2_3, abs=1e-7)

    def test_converged_implies_tail_below_tol(self):
        for spec in (SeriesSpec(SeriesFamily.C, 1, 0.5, 2.0),
                     SeriesSpec(SeriesFamily.A, 2, SQRT3_2, 5.0),
                     SeriesSpec(SeriesFamily.B, 1, 0.25, 1.0)):
            res = eval_series(spec, EvalOptions(tol=1e-9))
            assert res.converged
            assert res.tail_bound <= 1e-9

    def test_nonconvergence_is_flagged_not_raised(self):
        res = eval_series(SeriesSpec(SeriesFamily.C, 0, 1.0, 5.0),
                          EvalOptions(k_max=50, tol=1e-12))
        assert not res.converged
        assert res.terms_used == 50

    def test_determinism(self):
        spec = SeriesSpec(SeriesFamily.C, 2, SQRT3_2, 7.0)
        a = eval_series(spec)
        b = eval_series(spec)
        assert a.value == b.value and a.bessel_value == b.bessel_value
        assert a.terms_used == b.terms_used and a.tail_bound == b.tail_bound

    def test_parity_applied_internally(self):
        odd = eval_series(SeriesSpec(SeriesFamily.C, 1, 1.0, -2.0))
        assert odd.bessel_value == pytest.approx(-J1_2, abs=1e-8)
        even = eval_series(SeriesSpec(SeriesFamily.C, 2, 1.0, -3.0))
        assert even.bessel_value == pytest.approx(J2_3, abs=1e-8)

    def test_condition_warning(self):
        res = eval_series(SeriesSpec(SeriesFamily.C, 5, 0.05, 1.0))
        assert res.condition_warning
        res = eval_series(SeriesSpec(SeriesFamily.C, 5, 0.25, 1.0))
        assert not res.condition_warning


class TestEvalAtB1:
    def test_order_zero_rejected(self):
        with pytest.raises(DomainError):
            eval_at_b1(0, 1.0)

    def test_j1_at_zero(self):
        res = eval_at_b1(1, 0.0)
        assert res.value == 0.0 and res.converged

    def test_reference_values(self):
        opts = EvalOptions(mode="fixed_k", k_max=10**4, tol=1e-6)
        assert eval_at_b1(1, 1.0, opts).bessel_value == pytest.approx(J1_1, abs=1e-6)
        assert eval_at_b1(2, 5.0, opts).bessel_value == pytest.approx(J2_5, abs=1e-6)


class TestJ0Variant:
    def test_at_zero(self):
        res = eval_j0_variant(0.0, EvalOptions(mode="fixed_k", k_max=10**4, tol=1e-3))
        assert res.value == pytest.approx(1.0, abs=1e-3)

    def test_reference_values(self):
        opts = EvalOptions(mode="fixed_k", k_max=10**5, tol=1e-3)
        assert eval_j0_variant(1.0, opts).value == pytest.approx(J0_1, abs=1e-4)
        assert eval_j0_variant(10.0, opts).value == pytest.approx(-0.2459357644513483, abs=1e-3)

    def test_even_in_x(self):
        opts = EvalOptions(mode="fixed_k", k_max=2000, tol=1e-3)
        assert eval_j0_variant(-3.0, opts).value == eval_j0_variant(3.0, opts).value


class TestBesselJ:
    def test_parity_examples(self):
        assert bessel_j(1, -2.0, "C", 1.0) == pytest.approx(-J1_2, abs=1e-8)
        assert bessel_j(0, 3.0, "C", 1.0) == pytest.approx(J0_3, abs=1e-8)
        assert bessel_j(2, -3.0, "A", 0.5) == pytest.approx(J2_3, abs=1e-8)

    def test_scale_maps_argument(self):
        # evaluating at scale b targets J_n(x) itself, not J_n(bx)
        assert bessel_j(0, 1.0, "C", SQRT3_2) == pytest.approx(J0_1, abs=1e-8)

    def test_b_zero_rejected(self):
        with pytest.raises(DomainError):
            bessel_j(1, 1.0, "B", 0.0)


class TestAsymptoticTerm:
    def test_a_even_example(self):
        for k in (3, 10):
            assert asymptotic_term("A", 0, 2.0, k) == pytest.approx(
                2.0 * (-1.0) ** (k + 1), rel=1e-15)

    def test_c_examples(self):
        k = 7
        x = 2.0
        assert asymptotic_term("C", 0, x, k) == pytest.approx(
            (-1.0) ** k * x * x / (k * math.pi) ** 2, rel=1e-15)
        assert asymptotic_term("C", 1, x, k) == pytest.approx(
            2.0 * (-1.0) ** (k + 1) * (x / (k * math.pi)) / (k * math.pi), rel=1e-15)

    def test_b_n0_rejected(self):
        with pytest.raises(DomainError):
            asymptotic_term("B", 0, 1.0, 10)

    @pytest.mark.parametrize("family,n", [("A", n) for n in range(6)]
                             + [("B", n) for n in range(1, 6)]
                             + [("C", n) for n in range(6)])
    def test_ratio_tends_to_one(self, family, n):
        from besselseries import term_a, term_b, term_c
        term = {"A": term_a, "B": term_b, "C": term_c}[family]
        x = 2.0
        k = 10**4
        assert term(n, x, k) / asymptotic_term(family, n, x, k) == pytest.approx(
            1.0, abs=1e-2)

    def test_divergence_probe(self):
        # order-0 family A terms approach +-2: the series cannot converge
        for x in (1.0, 5.0, 20.0):
            assert abs(term_a(0, x, 10**4)) == pytest.approx(2.0, abs=0.02)


class TestTailBound:
    def test_direct_term_value(self):
        # K is the last included index: the bound after summing through
        # k = 100 is the k = 101 term, |2 sin(phi_101)/phi_101|
        spec = SeriesSpec(SeriesFamily.C, 0, 1.0, 1.0)
        expected = abs(2.0 * math.sin(math.hypot(1.0, 101 * math.pi))
                       / math.hypot(1.0, 101 * math.pi))
        assert tail_bound(spec, 100) == pytest.approx(expected, rel=1e-10)

    def test_zero_window_at_x0(self):
        assert tail_bound(SeriesSpec(SeriesFamily.C, 0, 1.0, 0.0), 5) == 0.0

    def test_not_applicable_below_b1(self):
        for b in (0.25, 0.5, SQRT3_2):
            with pytest.raises(BoundNotApplicableError):
                tail_bound(SeriesSpec(SeriesFamily.C, 0, b, 1.0), 100)

    def test_bound_dominates_partial_sum_moves(self):
        from besselseries.engine import _weighted_terms
        spec = SeriesSpec(SeriesFamily.C, 1, 1.0, 5.0)
        K = 100
        bound = tail_bound(spec, K)
        # term number i holds index k = i - 1 for family C
        terms = _weighted_terms(spec, 1, 4 * K + 2)
        for Kp in (2 * K, 3 * K, 4 * K):
            move = abs(math.fsum(terms[K + 1:Kp + 1]))
            assert move <= bound

    def test_matches_asymptote_scale(self):
        spec = SeriesSpec(SeriesFamily.C, 0, 1.0, 10.0)
        K = 1000
        assert tail_bound(spec, K) == pytest.approx(
            abs(asymptotic_term("C", 0, 10.0, K)), rel=0.1)


class TestFourierIdentityAtX0:
    def test_partial_sums_converge_like_one_over_k(self):
        # order-0 family A at x = 0: terms are exactly 2 (-1)^(k+1) gA(b,k),
        # summing conditionally to 1 with error O(1/K)
        import numpy as np
        for b in (0.3, 0.6, 0.9):
            c = math.sqrt(1 - b * b)
            for K in (10**3, 10**4, 10**5):
                ks = np.arange(1, K + 1)
                args = ks * (math.pi * c)
                terms = 2.0 * (-1.0) ** (ks + 1) * np.sin(args) / args
                err = abs(math.fsum(terms) - 1.0)
                assert err <= 10.0 / K


class TestCrossFamilyAgreement:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("b", [0.5, SQRT3_2, 1.0])
    def test_pairwise(self, n, b):
        x = 4.0
        opts = EvalOptions(tol=1e-10)
        results = {}
        for fam in (SeriesFamily.A, SeriesFamily.B, SeriesFamily.C):
            results[fam] = eval_series(SeriesSpec(fam, n, b, x), opts)
        vals = [(r.bessel_value, r.tail_bound) for r in results.values()]
        for i in range(3):
            for j in range(i + 1, 3):
                allowance = 2.0 * (vals[i][1] + vals[j][1]) + 1e-12
                assert abs(vals[i][0] - vals[j][0]) <= max(allowance, 1e-9)


@given(st.integers(min_value=0, max_value=4),
       st.floats(min_value=-15.0, max_value=15.0))
@settings(max_examples=25, deadline=None)
def test_parity_property(n, x):
    spec_pos = SeriesSpec(SeriesFamily.C, n, 1.0, abs(x))
    spec_neg = SeriesSpec(SeriesFamily.C, n, 1.0, -abs(x))
    opts = EvalOptions(mode="fixed_k", k_max=500, tol=1e-6)
    a = eval_series(spec_pos, opts).bessel_value
    b = eval_series(spec_neg, opts).bessel_value
    assert b == pytest.approx((-1.0) ** n * a, abs=1e-12)
