"""Kernel tests: canonical forms, ring laws, series, limits, evaluation, grammar."""

from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modfutaki import (Dual, EvalAtPole, ExpPoly, ExpPolyParseError,
                       LaurentPoly, PoleAtZero)

from conftest import CUBIC_F, CUBIC_I00, CUBIC_I01


def expterm(mu, terms):
    return ExpPoly({F(mu): LaurentPoly({e: F(c) for e, c in terms.items()})})


class TestCanonicalForm:
    def test_zero_plus_p_is_p(self):
        p = expterm(2, {0: 3, -1: F(1, 2)})
        assert ExpPoly.zero() + p == p

    def test_cancellation_to_canonical_zero(self):
        p = expterm(2, {0: 1}) + expterm(2, {0: -1})
        assert p == ExpPoly.zero()
        assert p.terms == {}

    def test_disjoint_frequencies(self):
        p = expterm(1, {-1: 1}) + expterm(-1, {-1: 1})
        assert sorted(p.terms) == [F(-1), F(1)]

    def test_zero_coefficients_never_stored(self):
        lp = LaurentPoly({0: F(0), 2: F(1)})
        assert 0 not in lp.terms
        assert ExpPoly({F(1): LaurentPoly()}).is_zero()


class TestArithmetic:
    def test_frequency_addition(self):
        a, b = F(2, 3), F(-1, 6)
        assert (ExpPoly.exponential(a) * ExpPoly.exponential(b)
                == ExpPoly.exponential(a + b))

    def test_inverse_pair(self):
        p = ExpPoly({F(1): LaurentPoly({1: F(1)})})
        q = ExpPoly({F(-1): LaurentPoly({-1: F(1)})})
        assert p * q == ExpPoly.const(1)

    def test_absorbing_zero(self):
        p = expterm(3, {-2: 5}) + expterm(0, {0: 1})
        assert p * ExpPoly.zero() == ExpPoly.zero()


class TestDerivative:
    def test_exponential_rule(self):
        mu = F(5, 7)
        p = ExpPoly.exponential(mu)
        assert p.t_derivative() == p.mul_scalar(mu)

    def test_product_rule(self):
        p = ExpPoly({F(5): LaurentPoly({-3: F(1)})})
        expected = ExpPoly({F(5): LaurentPoly({-4: F(-3), -3: F(5)})})
        assert p.t_derivative() == expected

    def test_scaling_derivative_connects_moments(self):
        got = CUBIC_I00.t_derivative().mul_laurent(LaurentPoly.t_power(1))
        assert got == CUBIC_I01


class TestSeries:
    def test_exp_taylor(self):
        s = ExpPoly.exponential(1).series(2)
        assert s == LaurentPoly({0: F(1), 1: F(1), 2: F(1, 2)})

    def test_golden_f_constant_term(self):
        # all pole coefficients cancel and the constant is the normalization
        s = CUBIC_F.series(0)
        assert all(e >= 0 for e in s.terms)
        assert s.terms[0] == F(-1)

    def test_golden_f_linear_term(self):
        s = CUBIC_F.series(1)
        assert s == LaurentPoly({0: F(-1), 1: F(-8, 3)})

    def test_linear_term_against_central_difference(self):
        h = F(1, 1000)
        with mpmath.workprec(300):
            diff = (CUBIC_F.evaluate(h, 256) - CUBIC_F.evaluate(-h, 256)) \
                / (2 * mpmath.mpf(h.numerator) / mpmath.mpf(h.denominator))
        assert abs(diff - F(-8, 3)) < 1e-4


class TestLimit:
    def test_plain_exponential(self):
        assert ExpPoly.exponential(3).limit_at_zero() == 1

    def test_removable_singularity(self):
        p = ExpPoly({F(1): LaurentPoly({-1: F(1)}),
                     F(0): LaurentPoly({-1: F(-1)})})
        assert p.limit_at_zero() == 1

    def test_pole_detected(self):
        with pytest.raises(PoleAtZero):
            ExpPoly({F(0): LaurentPoly({-1: F(1)})}).limit_at_zero()


class TestEvaluate:
    def test_exp_at_one(self):
        v = ExpPoly.exponential(1).evaluate(1, 128)
        with mpmath.workprec(160):
            assert abs(v - mpmath.e) < mpmath.mpf(2) ** -125

    def test_zero_everywhere(self):
        assert ExpPoly.zero().evaluate(F(3, 7), 64) == 0

    def test_golden_f_quarter(self):
        v = CUBIC_F.evaluate(F(1, 4), 256)
        with mpmath.workprec(320):
            expected = -16 * (mpmath.exp(-1) / 48 + mpmath.exp(2) / 24
                              - mpmath.exp(1) / 16)
            assert abs(v - expected) < mpmath.mpf(2) ** -240

    def test_eval_at_zero_uses_limit(self):
        assert CUBIC_F.evaluate(0, 128) == -1

    def test_eval_at_pole(self):
        with pytest.raises(EvalAtPole):
            ExpPoly({F(2): LaurentPoly({-1: F(1)})}).evaluate(0, 128)


class TestDual:
    def test_multiplication_law(self):
        x = Dual(F(2), F(3))
        y = Dual(F(5), F(7))
        assert x * y == Dual(F(10), F(2) * 7 + F(3) * 5)

    def test_division_inverts(self):
        x = Dual(F(2), F(3))
        assert (x / x) == Dual(F(1), F(0))
        assert x * (1 / x) == Dual(F(1), F(0))

    def test_exp(self):
        with mpmath.workprec(100):
            d = Dual(mpmath.mpf(1), mpmath.mpf(2)).exp()
            assert abs(d.value - mpmath.e) < mpmath.mpf(2) ** -90
            assert abs(d.derivative - 2 * mpmath.e) < mpmath.mpf(2) ** -88

    def test_plain_comparison(self):
        assert Dual(F(3), F(0)) == F(3)
        assert Dual(F(3), F(1)) != F(3)

    def test_shift_floors_every_slot(self):
        x = Dual(Dual(13, -13), Dual(-1, 1024))
        assert x >> 3 == Dual(Dual(1, -2), Dual(-1, 128))


_small_fraction = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@st.composite
def exppolys(draw):
    n_terms = draw(st.integers(0, 3))
    terms = {}
    for _ in range(n_terms):
        mu = draw(_small_fraction)
        n_coeffs = draw(st.integers(1, 3))
        lp = {draw(st.integers(-3, 3)): draw(_small_fraction)
              for _ in range(n_coeffs)}
        terms[mu] = LaurentPoly(lp)
    return ExpPoly(terms)


class TestRingProperties:
    @settings(max_examples=60, deadline=None)
    @given(exppolys(), exppolys(), exppolys())
    def test_ring_axioms(self, p, q, r):
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r

    @settings(max_examples=30, deadline=None)
    @given(exppolys())
    def test_roundtrip_grammar(self, p):
        assert ExpPoly.parse(p.to_string()) == p

    @settings(max_examples=15, deadline=None)
    @given(exppolys())
    def test_derivative_matches_finite_difference(self, p):
        t0 = F(1, 3)
        with mpmath.workprec(360):
            exact = p.t_derivative().evaluate(t0, 300)
            estimates = []
            for h in (F(1, 10**4), F(1, 10**5)):
                hh = mpmath.mpf(h.numerator) / mpmath.mpf(h.denominator)
                estimates.append(
                    (p.evaluate(t0 + h, 300) - p.evaluate(t0 - h, 300)) / (2 * hh))
            rich = (100 * estimates[1] - estimates[0]) / 99
            scale = 1 + abs(exact)
            assert abs(rich - exact) / scale < mpmath.mpf("1e-12")

    @settings(max_examples=20, deadline=None)
    @given(exppolys(), st.integers(0, 4))
    def test_series_truncation_error(self, p, order):
        t = F(1, 100)

        def exact_mpf(q):
            q = F(q)
            return mpmath.mpf(q.numerator) / mpmath.mpf(q.denominator)

        with mpmath.workprec(300):
            full = p.evaluate(t, 256)
            trunc = exact_mpf(sum((c * t ** e for e, c in
                                   p.series(order).terms.items()), F(0)))
            # tail bound: what series() drops from c t^e exp(mu t) is below
            # |c| t^e (|mu| t)^j / j! * e^(|mu| t) with j = order - e + 1,
            # and the whole term when e > order
            bound = mpmath.mpf(0)
            for mu, lp in p.terms.items():
                x = exact_mpf(abs(mu) * t)
                for e, c in lp.terms.items():
                    piece = exact_mpf(abs(c)) * exact_mpf(t) ** e
                    if e <= order:
                        j = order - e + 1
                        piece *= x ** j / mpmath.factorial(j)
                    bound += piece * mpmath.exp(x)
            assert abs(full - trunc) <= bound + mpmath.mpf("1e-60")

    @settings(max_examples=40, deadline=None)
    @given(exppolys())
    def test_limit_matches_series(self, p):
        expansion = p.series(0)
        has_pole = any(e < 0 for e in expansion.terms)
        if has_pole:
            with pytest.raises(PoleAtZero):
                p.limit_at_zero()
        else:
            assert p.limit_at_zero() == expansion.terms.get(0, F(0))


class TestGrammar:
    def test_golden_expression_string(self):
        text = CUBIC_F.to_string()
        assert text == ("-(1/48)*t^-2*exp(-4*t) + (1/16)*t^-2*exp(4*t)"
                        " + -(1/24)*t^-2*exp(8*t)")
        assert ExpPoly.parse(text) == CUBIC_F

    def test_zero_roundtrip(self):
        assert ExpPoly.zero().to_string() == "0"
        assert ExpPoly.parse("0") == ExpPoly.zero()

    def test_fractional_frequency(self):
        p = ExpPoly.exponential(F(-3, 2), LaurentPoly({2: F(5, 3)}))
        text = p.to_string()
        assert text == "(5/3)*t^2*exp((-3/2)*t)"
        assert ExpPoly.parse(text) == p

    def test_malformed_input(self):
        with pytest.raises(ExpPolyParseError):
            ExpPoly.parse("exp(t) + 1")
