"""Functional assembly, directional derivatives, numeric twin."""

import random
from fractions import Fraction as F

import mpmath
import pytest

from modfutaki import (CompleteIntersectionSpec, DiagonalField, Dual, ExpPoly,
                       InadmissibleDirection, LaurentPoly, PrecisionNotReached,
                       derive_weights, expand_integrand, f_function,
                       f_function_via_recursion, f_numeric, fut_derivative)
from modfutaki import exactalg
from modfutaki.geometry import ValidationError
from modfutaki.soliton import admissible_torus

from conftest import (CUBIC, CUBIC_F, CUBIC_FIELD, QUADRICS, QUADRICS_F,
                      QUADRICS_FIELD)


def random_fano(rng, max_dim=9, max_codim=3):
    while True:
        n = rng.randint(2, max_dim)
        s = rng.randint(0, min(max_codim, n))
        degrees = [rng.randint(1, 3) for _ in range(s)]
        if sum(degrees) <= n:
            return CompleteIntersectionSpec.create(n, degrees)


def random_field(rng, ci):
    lam = [F(rng.randint(-6, 6), rng.randint(1, 3))
           for _ in range(ci.ambient_dim)]
    lam.append(-sum(lam, F(0)))
    weights = [F(rng.randint(-6, 6), rng.randint(1, 3))
               for _ in range(ci.codim)]
    return DiagonalField.create(lam, weights)


def torus_field(ci, coeffs):
    torus = admissible_torus(ci)
    lam = tuple(sum((c * vec[i] for c, vec in zip(coeffs, torus.basis)), F(0))
                for i in range(ci.ambient_dim + 1))
    return DiagonalField(lam, derive_weights(ci, lam))


class TestExpandIntegrand:
    def test_cubic_single_factor(self):
        mixed = expand_integrand(CUBIC, CUBIC_FIELD)
        assert mixed[(1, 0)] == LaurentPoly.const(F(3))
        assert mixed[(0, 1)] == LaurentPoly.const(F(3))
        assert mixed[(0, 0)] == LaurentPoly.t_power(1, F(-3))

    def test_empty_product(self):
        ci = CompleteIntersectionSpec.create(2, [])
        mixed = expand_integrand(ci, DiagonalField.zero(ci))
        assert mixed == {(0, 0): LaurentPoly.one()}

    def test_quadrics_product(self):
        mixed = expand_integrand(QUADRICS, QUADRICS_FIELD)
        assert mixed[(2, 0)] == LaurentPoly.const(F(4))
        assert mixed[(1, 1)] == LaurentPoly.const(F(8))
        assert mixed[(0, 2)] == LaurentPoly.const(F(4))
        assert mixed[(1, 0)] == LaurentPoly.t_power(1, F(-4))
        assert mixed[(0, 1)] == LaurentPoly.t_power(1, F(-4))
        assert mixed[(0, 0)] == LaurentPoly({2: F(-24)})

    def test_degree_bound(self):
        rng = random.Random(1)
        for _ in range(5):
            ci = random_fano(rng, max_dim=6)
            field = random_field(rng, ci)
            mixed = expand_integrand(ci, field)
            s = ci.codim
            for (j, l), c in mixed.items():
                assert j + l <= s
                assert max(c.terms, default=0) <= s - j - l


class TestFunctional:
    def test_cubic_exact(self):
        assert f_function(CUBIC, CUBIC_FIELD) == CUBIC_F

    def test_quadrics_exact(self):
        assert f_function(QUADRICS, QUADRICS_FIELD) == QUADRICS_F

    def test_zero_field_normalization(self):
        rng = random.Random(2)
        for _ in range(8):
            ci = random_fano(rng)
            assert f_function(ci, DiagonalField.zero(ci)) == ExpPoly.const(-1)

    def test_two_paths_agree(self):
        assert f_function(CUBIC, CUBIC_FIELD) == \
            f_function_via_recursion(CUBIC, CUBIC_FIELD)
        assert f_function(QUADRICS, QUADRICS_FIELD) == \
            f_function_via_recursion(QUADRICS, QUADRICS_FIELD)
        rng = random.Random(3)
        for _ in range(6):
            ci = random_fano(rng, max_dim=6)
            field = random_field(rng, ci)
            assert f_function(ci, field) == f_function_via_recursion(ci, field)

    def test_scaling_covariance(self):
        base = f_function(CUBIC, CUBIC_FIELD)
        for c in (F(2), F(-1), F(1, 3)):
            assert f_function(CUBIC, CUBIC_FIELD.scaled(c)) == base.scale_t(c)

    def test_limit_is_minus_one(self):
        assert f_function(CUBIC, CUBIC_FIELD).limit_at_zero() == -1
        assert f_function(QUADRICS, QUADRICS_FIELD).limit_at_zero() == -1
        rng = random.Random(6)
        for _ in range(6):
            ci = random_fano(rng, max_dim=6)
            field = random_field(rng, ci)
            assert f_function(ci, field).limit_at_zero() == -1


class TestDirectionalDerivative:
    def test_self_direction_is_scaling_derivative(self):
        for ci, field in ((CUBIC, CUBIC_FIELD), (QUADRICS, QUADRICS_FIELD)):
            fut = fut_derivative(ci, field, field)
            expected = f_function(ci, field).t_derivative() \
                .mul_laurent(LaurentPoly.t_power(1))
            assert fut == expected

    def test_zero_by_zero(self):
        zero = DiagonalField.zero(CUBIC)
        assert fut_derivative(CUBIC, zero, zero) == ExpPoly.zero()

    def test_classical_pairing_coefficient(self):
        zero = DiagonalField.zero(CUBIC)
        fut = fut_derivative(CUBIC, zero, CUBIC_FIELD)
        assert fut == ExpPoly({F(0): LaurentPoly({1: F(-8, 3)})})

    def test_linearity(self):
        w1 = torus_field(QUADRICS, [F(1), F(2)])
        w2 = torus_field(QUADRICS, [F(-1, 2), F(1, 3)])
        total = DiagonalField(
            tuple(a + b for a, b in zip(w1.eigenvalues, w2.eigenvalues)),
            tuple(a + b for a, b in zip(w1.weights, w2.weights)))
        v = QUADRICS_FIELD
        assert fut_derivative(QUADRICS, v, total) == \
            fut_derivative(QUADRICS, v, w1) + fut_derivative(QUADRICS, v, w2)

    def test_inadmissible_direction(self):
        bad = DiagonalField.create([1, 0, 0, -1], [0])
        with pytest.raises(InadmissibleDirection):
            fut_derivative(CUBIC, CUBIC_FIELD, bad)

    def test_direction_splitting_a_repeated_eigenvalue(self):
        # the base field has an accidental triple eigenvalue (6, 6, 6 in
        # slots 1, 3, 4) and the direction breaks it apart; the derivative
        # must still match finite differences of the numeric pipeline
        v = DiagonalField.create([-14, 6, -4, 6, 6], [-8, 12])
        w = DiagonalField.create([0, 0, 0, 6, -6], [0, 0])
        t = F(1, 4)
        exact = fut_derivative(QUADRICS, v, w).evaluate(t, 256)

        def g(s):
            lam = [(r + s * mu) * t
                   for r, mu in zip(v.eigenvalues, w.eigenvalues)]
            wts = [(a + s * b) * t for a, b in zip(v.weights, w.weights)]
            return f_numeric(QUADRICS, lam, wts, 256)

        with mpmath.workprec(340):
            estimates = []
            for h in (F(1, 10 ** 5), F(1, 10 ** 6)):
                hh = mpmath.mpf(h.numerator) / mpmath.mpf(h.denominator)
                estimates.append((g(h) - g(-h)) / (2 * hh))
            rich = (100 * estimates[1] - estimates[0]) / 99
            assert abs(exact - rich) < mpmath.mpf("1e-20")

    def test_matches_central_differences(self):
        rng = random.Random(4)
        t = F(1, 4)
        for _ in range(3):
            v = torus_field(QUADRICS, [F(rng.randint(-2, 2), 2) for _ in range(2)])
            w = torus_field(QUADRICS, [F(rng.randint(-2, 2), 2) for _ in range(2)])
            exact = fut_derivative(QUADRICS, v, w).evaluate(t, 256)

            def g(s):
                lam = [(r + s * mu) * t
                       for r, mu in zip(v.eigenvalues, w.eigenvalues)]
                wts = [(a + s * b) * t for a, b in zip(v.weights, w.weights)]
                return f_numeric(QUADRICS, lam, wts, 256)

            with mpmath.workprec(340):
                receipts = []
                for h in (F(1, 10 ** 5), F(1, 10 ** 6)):
                    hh = mpmath.mpf(h.numerator) / mpmath.mpf(h.denominator)
                    receipts.append((g(h) - g(-h)) / (2 * hh))
                rich = (100 * receipts[1] - receipts[0]) / 99
                assert abs(exact - rich) < mpmath.mpf("1e-20")


class TestNumericTwin:
    def test_zero_is_minus_one(self):
        out = f_numeric(CUBIC, [0, 0, 0, 0], [0], 128)
        assert abs(out + 1) < mpmath.mpf(2) ** -100

    def test_agreement_with_symbolic(self):
        cases = [(CUBIC, CUBIC_FIELD, F(1, 4)), (QUADRICS, QUADRICS_FIELD, F(1, 10))]
        for ci, field, t in cases:
            sym = f_function(ci, field).evaluate(t, 256)
            num = f_numeric(ci, [r * t for r in field.eigenvalues],
                            [a * t for a in field.weights], 256)
            assert abs(sym - num) <= abs(sym) * mpmath.mpf(2) ** -(256 - 16)

    def test_dual_input_gives_directional_derivative(self):
        t = F(1, 4)
        v, w = CUBIC_FIELD, CUBIC_FIELD.scaled(F(1, 2))
        exact = fut_derivative(CUBIC, v, w).evaluate(t, 256)
        with mpmath.workprec(300):
            lam = [Dual(mpmath.mpf(((r * t).numerator)) / ((r * t).denominator),
                        mpmath.mpf(((mu * t).numerator)) / ((mu * t).denominator))
                   for r, mu in zip(v.eigenvalues, w.eigenvalues)]
            wts = [Dual(mpmath.mpf(((a * t).numerator)) / ((a * t).denominator),
                        mpmath.mpf(((b * t).numerator)) / ((b * t).denominator))
                   for a, b in zip(v.weights, w.weights)]
            num = f_numeric(CUBIC, lam, wts, 256).derivative
        assert abs(exact - num) < mpmath.mpf(2) ** -220 * (1 + abs(exact))

    @pytest.mark.parametrize("dual", [False, True])
    def test_heavy_cancellation_takes_a_second_guard_pass(self, dual):
        # zero eigenvalues and a weight 2^-100 away from d N / m = 9: the
        # pieces of the final sum cancel to about 100 bits, so the first pass
        # at 64 + 64 bits keeps fewer than 48 and the guard must be raised
        ci = CompleteIntersectionSpec.create(3, [3])
        field = DiagonalField.create([0, 0, 0, 0], [F(9) + F(1, 2 ** 100)])
        direction = DiagonalField.create([1, -1, 0, 0], [F(1, 3)])
        exact = f_function(ci, field).evaluate(1, 256)
        tangent = fut_derivative(ci, field, direction).evaluate(1, 256)
        with mpmath.workprec(256):
            lam = [mpmath.mpf(0)] * 4
            wts = [mpmath.mpf(9) + mpmath.mpf(2) ** -100]
            if dual:
                lam = [Dual(x, mpmath.mpf(d)) for x, d in zip(lam, [1, -1, 0, 0])]
                wts = [Dual(wts[0], mpmath.mpf(1) / 3)]
        num = f_numeric(ci, lam, wts, 64)
        if dual:
            assert abs(num.derivative - tangent) <= abs(tangent) * mpmath.mpf(2) ** -48
            num = num.value
        assert abs(num - exact) <= abs(exact) * mpmath.mpf(2) ** -48

    @staticmethod
    def nested_quadrics_eigenvalues():
        # Dual(Dual(x, u), Dual(v, 0)), as the Newton Hessian seeds them
        return [Dual(Dual(mpmath.mpf(x), mpmath.mpf(u)),
                     Dual(mpmath.mpf(v), mpmath.mpf(0)))
                for x, u, v in zip((-7, 3, -2, 5, 1), (1, -1, 0, 2, -2),
                                   (0, 1, -1, 0, 0))]

    def test_plain_weights_are_lifted_to_the_nested_depth(self, monkeypatch):
        calls = []
        fallback = mpmath.mp._convert_fallback

        def counting(x, strings):
            calls.append(type(x).__name__)
            return fallback(x, strings)

        monkeypatch.setattr(mpmath.mp, "_convert_fallback", counting)
        lam = self.nested_quadrics_eigenvalues()
        plain = f_numeric(QUADRICS, lam, [mpmath.mpf(-4), mpmath.mpf(6)], 64)
        assert calls == []
        nested = [Dual(Dual(mpmath.mpf(a), mpmath.mpf(0)),
                       Dual(mpmath.mpf(0), mpmath.mpf(0))) for a in (-4, 6)]
        assert plain == f_numeric(QUADRICS, lam, nested, 64)

    def test_mixed_dual_depths_are_refused(self):
        lam = self.nested_quadrics_eigenvalues()
        wts = [Dual(mpmath.mpf(-4), mpmath.mpf(1)), Dual(mpmath.mpf(6), mpmath.mpf(0))]
        with pytest.raises(ValidationError, match="mixed depths"):
            f_numeric(QUADRICS, lam, wts, 64)

    def test_concavity_along_directions(self):
        rng = random.Random(5)
        for _ in range(3):
            v = torus_field(QUADRICS, [F(rng.randint(-2, 2), 3) for _ in range(2)])
            w = torus_field(QUADRICS, [F(rng.randint(-2, 2) or 1, 3)
                                       for _ in range(2)])

            def g(s):
                lam = [r + s * mu for r, mu in zip(v.eigenvalues, w.eigenvalues)]
                wts = [a + s * b for a, b in zip(v.weights, w.weights)]
                return f_numeric(QUADRICS, lam, wts, 192)

            with mpmath.workprec(220):
                h = F(1, 100)
                hh = mpmath.mpf(h.numerator) / mpmath.mpf(h.denominator)
                for base in (F(0), F(1, 4), F(-1, 4), F(1, 2), F(-1, 2)):
                    second = (g(base + h) - 2 * g(base) + g(base - h)) / hh ** 2
                    assert second <= mpmath.mpf("1e-20")


class TestPrecisionGuard:
    def test_zero_sum_raises(self):
        # F is exactly 0 at weight d N / m = 9 and zero eigenvalues: the sum
        # cancels to rounding noise on every pass and never meets the rule
        with pytest.raises(PrecisionNotReached) as exc:
            f_numeric(CompleteIntersectionSpec.create(3, [3]),
                      [0, 0, 0, 0], [9], 64)
        assert (exc.value.requested_bits, exc.value.achieved_bits) == (64, 0)

    def test_last_pass_raises(self, monkeypatch):
        # the terms cancel about 30 bits at t = 1e-5, more than the 16 that
        # evaluate's first guard of 32 bits allows, so one pass cannot do
        value = f_function(CUBIC, CUBIC_FIELD)
        assert value.evaluate(F(1, 100000), 256) < 0
        monkeypatch.setattr(exactalg, "_MAX_GUARD_PASSES", 1)
        with pytest.raises(PrecisionNotReached) as exc:
            value.evaluate(F(1, 100000), 256)
        assert exc.value.requested_bits == 256
        assert exc.value.achieved_bits < 256
