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

    def test_family_b_even_order_where_b_squared_underflows(self):
        # b * b = 0: the value per unit J is inf, so the threshold scale stays 1
        res = eval_series(SeriesSpec(SeriesFamily.B, 2, 1e-170, 1.0), EvalOptions("fixed_k", 10))
        assert math.isfinite(res.value) and res.bessel_value == 0.0
        assert not res.condition_warning

    @pytest.mark.parametrize("family", ["A", "C"])
    def test_underflowing_power_is_named(self, family):
        # b^8 = 1e-400 underflows to 0, so J_n(bx) = value / b^n cannot be formed
        with pytest.raises(DomainError, match=r"got n = 8, b = 1e-50"):
            eval_series(SeriesSpec(family, 8, 1e-50, 1.0), EvalOptions("fixed_k", 10))
        # adaptive: raised before any term is summed, not after k_max of them
        with pytest.raises(DomainError, match=r"b\^n underflows to 0"):
            bessel_j(8, 1e-49, family, 1e-50)


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


# asymptotic_term values of the hand-written n mod 2 / n mod 4 case table,
# as float.hex at (x, k) in (0.3, 3), (0.3, 10^4), (13.7, 3), (13.7, 10^4)
ASYMPTOTIC_GOLDENS = {
    ("A", 0): ("0x1.0000000000000p+1", "-0x1.0000000000000p+1",
              "0x1.0000000000000p+1", "-0x1.0000000000000p+1"),
    ("A", 1): ("0x1.50fd48e267ac7p-6", "-0x1.fcd64214be2abp-30",
              "0x1.ddf9b01f8637cp+4", "-0x1.68dbfb2ad3117p-19"),
    ("A", 2): ("-0x1.099b7ece30ecdp-9", "0x1.910dc296061f2p-33",
              "-0x1.0e76af7fb603ap+2", "0x1.9862ea1a20c2ep-22"),
    ("A", 3): ("-0x1.2059742f1e821p-14", "0x1.48b5f3e4e48f8p-61",
              "-0x1.0ebd7ebb175e3p+6", "0x1.34a2ff9989de2p-41"),
    ("A", 4): ("0x1.13934af9adc92p-19", "-0x1.3a260e2bab28fp-66",
              "0x1.1dbe9137a5fb4p+3", "-0x1.45bdb835ad411p-44"),
    ("A", 5): ("0x1.39646cc45778bp-23", "-0x1.0db8b28e13b2ep-93",
              "0x1.3c55edf1c4298p+7", "-0x1.104133c2876bfp-63"),
    ("A", 6): ("-0x1.1deadb4b4e292p-29", "0x1.ec267eea0fdf4p-100",
              "-0x1.2de376e372ae1p+4", "0x1.03d21d0b5d00cp-66"),
    ("A", 7): ("-0x1.167469df21cb9p-32", "0x1.69dcf134c0795p-126",
              "-0x1.79dbfe97111b1p+8", "0x1.eb0b170381bc8p-86"),
    ("A", 8): ("0x1.28a5c7d39c10fp-39", "-0x1.8181606b55a00p-133",
              "0x1.3ef1dd31c88bep+5", "-0x1.9e7b4251cdb63p-89"),
    ("A", 9): ("0x1.b93129dd610fdp-42", "-0x1.b0dcbc74448b6p-159",
              "0x1.c99f8d486224bp+9", "-0x1.c0fbb500c8b37p-108"),
    ("A", 10): ("-0x1.33c7cb2a901f8p-49", "0x1.2df8304ffe556p-166",
               "-0x1.50f6f56ce96c2p+6", "0x1.4a9a4bf45dacdp-111"),
    ("A", 11): ("-0x1.4481fd1aca0e5p-51", "0x1.e0bd3cb04086bp-192",
               "-0x1.1717eb4562554p+11", "0x1.9d75e5bcd6edbp-130"),
    ("A", 12): ("0x1.3f54c3bb4d8c7p-59", "-0x1.d911fececcb51p-200",
               "0x1.6400afaeea413p+7", "-0x1.07b2d338a81fbp-133"),
    ("B", 1): ("-0x1.3eba982aa11c3p-14", "0x1.e143b64da0f23p-38",
              "-0x1.cf2b3fbde7b2fp+2", "0x1.5dae4ba65f407p-21"),
    ("B", 2): ("-0x1.fdf759ddce938p-17", "0x1.8102f83e1a5b4p-40",
              "-0x1.08646bda45540p+6", "0x1.8f380dd5687aap-18"),
    ("B", 3): ("0x1.a8f8cae3817afp-16", "-0x1.40d7cede6b4c1p-39",
              "0x1.34c77fd3efccbp+1", "-0x1.d23dba3329ab4p-23"),
    ("B", 4): ("0x1.fdf759ddce938p-18", "-0x1.8102f83e1a5b5p-41",
              "0x1.08646bda45540p+5", "-0x1.8f380dd5687a9p-19"),
    ("B", 5): ("0x1.0a8957776db7bp-28", "-0x1.2fd83641955dep-75",
              "0x1.972625d7be3b6p+3", "-0x1.d0239f65b9187p-44"),
    ("B", 6): ("0x1.3f80ef3a50033p-30", "-0x1.6c39ca604b4e7p-77",
              "0x1.2dcfa55847ddbp+7", "-0x1.580e8555f61b1p-40"),
    ("B", 7): ("-0x1.224070ac296fap-38", "0x1.4ae11aafc768cp-85",
              "-0x1.b559dd09cdbcap+0", "0x1.f2919322ef04bp-47"),
    ("B", 8): ("-0x1.5c4d5401cb52dp-40", "0x1.8d0e2006227dcp-87",
              "-0x1.767b5876cb5cap+4", "0x1.aae63f95e9757p-43"),
    ("B", 9): ("-0x1.4f5ba0a89e345p-50", "0x1.20a0506c05246p-120",
              "-0x1.6d4cfac11c321p+2", "0x1.3a65825a67fbcp-68"),
    ("B", 10): ("-0x1.9258ed7f3607ep-52", "0x1.5a47e1a80889bp-122",
               "-0x1.21594d3b1a000p+6", "0x1.f20e90c5d7d8fp-65"),
    ("B", 11): ("0x1.1856946832300p-62", "-0x1.e28bffc0dfb60p-133",
               "0x1.b6003981d98c7p-2", "-0x1.78f74d252954bp-72"),
    ("B", 12): ("0x1.5067e549d5d33p-64", "-0x1.2187330d5306dp-134",
               "0x1.7709cad72f139p+2", "-0x1.42c6f3a7d1ca2p-68"),
    ("C", 0): ("-0x1.099b7ece30eccp-10", "0x1.910dc296061f3p-34",
              "-0x1.0e76af7fb6038p+1", "0x1.9862ea1a20c2ep-23"),
    ("C", 1): ("0x1.baadd357a6e00p-8", "-0x1.4e362227afc4ap-31",
              "0x1.3bdeb2cd35bd3p-2", "-0x1.dcf296134d80ap-26"),
    ("C", 2): ("0x1.235d109aa668ap-14", "-0x1.4c2591a62ba20p-61",
              "0x1.26e1040a239d7p+2", "-0x1.50277d4194d71p-45"),
    ("C", 3): ("-0x1.cb4ad24acc4f3p-18", "0x1.05ca612463f77p-64",
              "-0x1.4db751c5a98e1p-1", "0x1.7c6d741950e18p-48"),
    ("C", 4): ("-0x1.f29e3d1953a3cp-23", "0x1.ad22e6713448ep-93",
              "-0x1.4e0eb05ce4b10p+3", "0x1.1f81c522f1652p-67"),
    ("C", 5): ("0x1.dc876d7d82449p-28", "-0x1.9a20146db7e4cp-98",
              "0x1.60920f84f60cbp+0", "-0x1.2f70b768d5425p-70"),
    ("C", 6): ("0x1.0ef617b0c962dp-31", "-0x1.602001e75fb61p-125",
              "0x1.8650eb3e26b05p+4", "-0x1.fb3b397b5d47dp-90"),
    ("C", 7): ("-0x1.ee69a260aec6fp-38", "0x1.414125aec75abp-131",
              "-0x1.747d81651e893p+1", "0x1.e410e2f149f0ep-93"),
    ("C", 8): ("-0x1.e182115816794p-41", "0x1.d86ac7952564ap-158",
              "-0x1.d23a66f4848edp+5", "0x1.c96cf791e6416p-112"),
    ("C", 9): ("0x1.007bd3f8cd6f9p-47", "-0x1.f7485085528e4p-165",
              "0x1.89890fade95e8p+2", "-0x1.821af96822a84p-115"),
    ("C", 10): ("0x1.7d753a5e0c7f4p-50", "-0x1.1a8dc317eee7fp-190",
               "0x1.1a52b56a2d4c7p+7", "-0x1.a23ebcd9f34abp-134"),
    ("C", 11): ("-0x1.0a1bf8716b4a6p-57", "0x1.8a39a9ac5541ap-198",
               "-0x1.9fc5017faaceep+3", "0x1.33f81672c09cap-137"),
    ("C", 12): ("-0x1.1892635f45a4cp-59", "0x1.39ce469e3529cp-223",
               "-0x1.585d382ac07e1p+8", "0x1.8127818046d70p-156"),
}


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

    @pytest.mark.parametrize("family,n", list(ASYMPTOTIC_GOLDENS))
    def test_matches_case_table_goldens(self, family, n):
        points = [(x, k) for x in (0.3, 13.7) for k in (3, 10**4)]
        for (x, k), want in zip(points, ASYMPTOTIC_GOLDENS[family, n]):
            want = float.fromhex(want)
            assert abs(asymptotic_term(family, n, x, k) - want) <= 4e-15 * abs(want)

    def test_b1_at_x0_is_zero(self):
        # x j_0(u-) j_0(u+) at x = 0: the leading term is exactly 0
        for k in (1, 2):
            assert asymptotic_term("B", 1, 0.0, k) == 0.0


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

    @pytest.mark.parametrize("family,k0", [("A", 1), ("B", 0), ("C", 0)])
    def test_index_map_matches_fixed_k(self, family, k0):
        # the sum through index K holds K + 1 - k0 terms, so the bound is
        # the fixed_k result's first omitted term, bit for bit
        probes = [(0.7, 3), (0.7, 40), (0.7, 200), (3.3, 40), (3.3, 200), (9.1, 40), (9.1, 200)]
        for n in range(0 if family == "C" else 1, 6):
            for x, K in probes:
                spec = SeriesSpec(family, n, 1.0, x)
                want = eval_series(spec, EvalOptions("fixed_k", K + 1 - k0)).tail_bound
                assert tail_bound(spec, K) == want, (n, x, K)

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
