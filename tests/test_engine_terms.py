"""Term-level tests for the series engine: the phi/eps/g building blocks
and the three term generators against frozen extended-precision values
and closed elementary forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besselseries import (DomainError, SeriesSpec, eps, g_a, g_bc, phi, term_a, term_b,
                          term_c)
from besselseries.engine import _phase, _weighted_terms

SQRT3_2 = math.sqrt(3.0) / 2.0


class TestPhi:
    def test_examples(self):
        assert phi(0.0, 3) == pytest.approx(3 * math.pi, rel=1e-15)
        assert phi(1.0, 0) == 1.0
        assert phi(2.0, 1) == pytest.approx(math.sqrt(4 + math.pi**2), rel=1e-15)

    @given(st.floats(min_value=0, max_value=100), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=60, deadline=None)
    def test_monotone(self, x, k):
        assert phi(x + 0.5, k) > phi(x, k)
        assert phi(x, k + 1) > phi(x, k)


class TestEps:
    def test_values(self):
        assert eps(0) == 0.5
        assert eps(1) == 1.0
        assert eps(7) == 1.0

    def test_invalid(self):
        with pytest.raises(DomainError):
            eps(-1)


class TestGFactors:
    def test_g_a_sinc_limit_at_b1(self):
        for k in (1, 2, 10, 999):
            assert g_a(1.0, k) == 1.0

    def test_g_a_examples(self):
        # sqrt(1 - 3/4) = 1/2 makes the k=1 argument pi/2
        assert g_a(SQRT3_2, 1) == pytest.approx(2.0 / math.pi, rel=1e-14)
        assert g_a(0.5, 2) == pytest.approx(-0.13706676420458308572, rel=1e-14)
        assert g_a(0.5, 1) == pytest.approx(0.15017325550213874759, rel=1e-14)

    def test_g_bc_examples(self):
        for k in (0, 1, 5):
            assert g_bc(1.0, k) == 1.0
            assert g_bc(0.0, k) == pytest.approx((-1.0) ** k, abs=1e-12)
        assert g_bc(SQRT3_2, 1) == pytest.approx(0.0, abs=1e-15)

    def test_range_errors(self):
        with pytest.raises(DomainError):
            g_a(0.0, 1)
        with pytest.raises(DomainError):
            g_a(1.5, 1)
        with pytest.raises(DomainError):
            g_a(0.5, 0)
        with pytest.raises(DomainError):
            g_bc(-0.1, 1)
        with pytest.raises(DomainError):
            g_bc(1.2, 1)

    @given(st.floats(min_value=1e-6, max_value=1.0), st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=80, deadline=None)
    def test_bounds(self, b, k):
        assert abs(g_a(b, k)) <= 1.0 + 1e-15
        assert abs(g_bc(b, k)) <= 1.0


def test_scalar_blocks_are_the_summed_terms():
    # g(b, k) times the term, and phi_k, equal bit for bit what the series
    # sum: index k is term number k + 1 - lo, with lo = 1 for A, 0 for B, C
    rng = np.random.default_rng(20261020)
    misses = []
    for i in range(3000):
        fam = "ABC"[i % 3]
        b = 1.0 if i % 100 < 3 else 1.0 - rng.random()  # (0, 1], c = 0 at b = 1
        n = int(rng.integers(1 if fam == "B" or b == 1.0 else 0, 7))
        x = 20.0 * rng.random()
        lo = 1 if fam == "A" else 0
        k = int(rng.integers(lo, 301))
        if fam == "A":
            got = g_a(b, k) * term_a(n, x, k)
        else:
            got = eps(k) * g_bc(b, k) * (term_b if fam == "B" else term_c)(n, x, k)
        i_term = k + 1 - lo
        want = _weighted_terms(SeriesSpec(fam, n, b, x), i_term, i_term + 1)[0]
        ph = _phase(x, np.array([float(k)]))[1][0]
        if got != want or phi(x, k) != ph:
            misses.append((fam, n, b, x, k))
    assert misses == []


class TestTermA:
    def test_x_zero_exact(self):
        # j_1(k pi) = -cos(k pi)/(k pi) makes the term exactly 2 (-1)^(k+1)
        for k in (1, 2, 3, 17, 1000):
            assert term_a(0, 0.0, k) == pytest.approx(2.0 * (-1.0) ** (k + 1), rel=1e-13)
        assert term_a(1, 0.0, 5) == 0.0
        assert term_a(4, 0.0, 2) == 0.0

    def test_frozen_value(self):
        # 2 pi^2 j_1(sqrt(1+pi^2)) / sqrt(1+pi^2) at 40 digits
        assert term_a(0, 1.0, 1) == pytest.approx(1.7089336944276646554, rel=1e-14)

    def test_invalid(self):
        with pytest.raises(DomainError):
            term_a(0, 1.0, 0)
        with pytest.raises(DomainError):
            term_a(-1, 1.0, 1)
        with pytest.raises(DomainError):
            term_a(0, -1.0, 1)


class TestTermB:
    def test_x_zero(self):
        for n in (1, 2, 3, 5):
            assert term_b(n, 0.0, 3) == 0.0

    def test_k_zero_closed_form(self):
        # phi_0 = x collapses both arguments to x/2:
        # f_1(x, 0) = (2/x)(1 - cos x)
        for x in (0.7, 2.0, 9.3):
            assert term_b(1, x, 0) == pytest.approx(2.0 / x * (1 - math.cos(x)), rel=1e-13)

    def test_frozen_values(self):
        # half-integer-order product form at 40 digits
        assert term_b(2, 1.0, 1) == pytest.approx(-0.016256243093114172264, rel=1e-12)
        assert term_b(1, 2.0, 1) == pytest.approx(-0.16496455634132692949, rel=1e-13)

    def test_n_zero_rejected(self):
        with pytest.raises(DomainError):
            term_b(0, 1.0, 1)


class TestTermC:
    def test_examples(self):
        assert term_c(0, 0.0, 1) == pytest.approx(0.0, abs=1e-16)
        assert term_c(0, 0.0, 0) == 2.0
        # 2 (sin phi - phi cos phi)/phi^3 at phi = sqrt(1 + pi^2)
        assert term_c(1, 1.0, 1) == pytest.approx(0.17315118468568415163, rel=1e-14)

    def test_k_zero_is_2jn(self):
        # f_n(x, 0) = 2 j_n(x)
        from besselseries import spherical_jn
        for n in (0, 1, 4):
            for x in (0.3, 2.0, 11.0):
                assert term_c(n, x, 0) == pytest.approx(2 * spherical_jn(n, x), rel=1e-13)


class TestLiteralFormEquivalence:
    """The generic generators against the published closed forms for
    orders 0..2 (these same comparisons run at acceptance scale in
    test_acceptance.py)."""

    @staticmethod
    def _phi(x, k):
        return math.hypot(x, k * math.pi)

    def test_term_a_order0(self):
        for k in (1, 2, 9):
            for x in (0.5, 3.0):
                p = self._phi(x, k)
                lit = 2 * (k * math.pi) ** 2 * (math.sin(p) - p * math.cos(p)) / p**3
                assert term_a(0, x, k) == pytest.approx(lit, abs=1e-12)

    def test_term_b_order2(self):
        for k in (0, 1, 6):
            for x in (0.5, 3.0):
                p = self._phi(x, k)
                lit = (4.0 / x**2) * ((-1.0) ** k * (2 + x * x)
                                      - 2 * (p * math.sin(p) + math.cos(p)))
                assert term_b(2, x, k) == pytest.approx(lit, abs=1e-12)

    def test_term_c_order2(self):
        for k in (0, 3):
            for x in (0.5, 3.0):
                p = self._phi(x, k)
                lit = 2 * x * x * ((3 - p * p) * math.sin(p) - 3 * p * math.cos(p)) / p**5
                assert term_c(2, x, k) == pytest.approx(lit, abs=1e-12)


class TestScalarVectorConsistency:
    def test_block_equals_scalar(self):
        # the scalar wrappers call the block kernels; spot-check the
        # identity holds bitwise on a mixed grid
        from besselseries.engine import _term_a_vec, _term_b_vec, _term_c_vec
        ks = np.array([1.0, 2.0, 7.0, 100.0])
        for n in (0, 1, 3):
            va = _term_a_vec(n, 2.5, ks)
            for i, k in enumerate(ks):
                assert term_a(n, 2.5, int(k)) == va[i]
        ks0 = np.array([0.0, 1.0, 5.0, 64.0])
        for n in (1, 2, 4, 5):
            vb = _term_b_vec(n, 2.5, ks0)
            vc = _term_c_vec(n, 2.5, ks0)
            for i, k in enumerate(ks0):
                assert term_b(n, 2.5, int(k)) == vb[i]
                assert term_c(n, 2.5, int(k)) == vc[i]
