"""Fixed-point integrals: exact residue form, numeric bidiagonal form, recursion."""

import random
from fractions import Fraction as F

import mpmath
import pytest

from modfutaki import (CompleteIntersectionSpec, DiagonalField, ExpPoly,
                       LaurentPoly, NodeMultiset, dd_numeric, i0l_symbolic,
                       ik0_symbolic, verify_recursion)
from modfutaki.exactalg import Dual, _to_mpf
from modfutaki.futaki import f_numeric
from modfutaki.localization import (_dd_numeric_multi, _dd_pow_exp_all,
                                    i0l_numeric_all)

from conftest import (CUBIC, CUBIC_FIELD, CUBIC_I00, CUBIC_I01, QUADRICS,
                      QUADRICS_FIELD, QUADRICS_I00, QUADRICS_I01, QUADRICS_I02)


def random_fraction(rng, lo=-8, hi=8, den=4):
    return F(rng.randint(lo, hi), rng.randint(1, den))


class TestGoldenMoments:
    def test_cubic_i00(self):
        assert i0l_symbolic(3, 1, CUBIC_FIELD.eigenvalues, 0) == CUBIC_I00

    def test_cubic_i01(self):
        assert i0l_symbolic(3, 1, CUBIC_FIELD.eigenvalues, 1) == CUBIC_I01

    def test_quadrics_i0l(self):
        lam = QUADRICS_FIELD.eigenvalues
        assert i0l_symbolic(4, 1, lam, 0) == QUADRICS_I00
        assert i0l_symbolic(4, 1, lam, 1) == QUADRICS_I01
        assert i0l_symbolic(4, 1, lam, 2) == QUADRICS_I02


class TestZeroField:
    @pytest.mark.parametrize("n,m", [(2, 3), (3, 1), (4, 2), (5, 6)])
    def test_volume_normalization(self, n, m):
        lam = (F(0),) * (n + 1)
        assert i0l_symbolic(n, m, lam, 0) == ExpPoly.const(1)
        for l in (1, 2, 3):
            assert i0l_symbolic(n, m, lam, l) == ExpPoly.zero()


class TestConfluentClosedForm:
    # nodes (a, b, c, c) in P^3 with index 1 have the three-term closed form
    @staticmethod
    def closed_form(a, b, c):
        return ExpPoly({
            F(a): LaurentPoly({-3: F(6) / ((a - b) * (a - c) ** 2)}),
            F(b): LaurentPoly({-3: F(6) / ((b - a) * (b - c) ** 2)}),
            F(c): LaurentPoly({
                -3: F(6) * (a + b - 2 * c) / ((c - a) ** 2 * (c - b) ** 2),
                -2: F(6) / ((c - a) * (c - b)),
            }),
        })

    def test_random_instantiations(self):
        rng = random.Random(2024)
        done = 0
        while done < 6:
            a, b, c = (random_fraction(rng) for _ in range(3))
            if len({a, b, c}) < 3:
                continue
            assert i0l_symbolic(3, 1, (a, b, c, c), 0) == self.closed_form(a, b, c)
            done += 1

    def test_numeric_limit_to_confluent(self):
        a, b, c = F(2), F(-1), F(-1, 2)
        confluent = dd_numeric(0, 1, [a, b, c, c], 192)
        errs = []
        for k in range(1, 7):
            eps = F(1, 10 ** k)
            errs.append(abs(dd_numeric(0, 1, [a, b, c, c + eps], 192) - confluent))
        assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
        assert errs[-1] < mpmath.mpf("1e-6")


class TestMomentIdentities:
    def test_derivative_identity(self):
        # the assembled l-th moment equals t^l (d/dt)^l of the zeroth one
        rng = random.Random(5)
        for _ in range(4):
            n = rng.randint(2, 5)
            m = rng.randint(1, 3)
            lam = tuple(random_fraction(rng) for _ in range(n + 1))
            base = i0l_symbolic(n, m, lam, 0)
            for l in range(1, 5):
                derived = base
                for _ in range(l):
                    derived = derived.t_derivative()
                derived = derived.mul_laurent(LaurentPoly.t_power(l))
                assert i0l_symbolic(n, m, lam, l) == derived

    def test_scaling_covariance(self):
        rng = random.Random(6)
        lam = tuple(random_fraction(rng) for _ in range(5))
        base = i0l_symbolic(4, 2, lam, 1)
        for c in (F(2), F(-1), F(1, 3)):
            scaled = i0l_symbolic(4, 2, tuple(c * x for x in lam), 1)
            assert scaled == base.scale_t(c)

    def test_permutation_invariance(self):
        rng = random.Random(7)
        lam = [random_fraction(rng) for _ in range(5)]
        reference = i0l_symbolic(4, 1, tuple(lam), 2)
        for _ in range(3):
            rng.shuffle(lam)
            assert i0l_symbolic(4, 1, tuple(lam), 2) == reference
        nodes = [float(x) for x in lam]
        ref_num = dd_numeric(1, 1, nodes, 192)
        rng.shuffle(nodes)
        assert abs(dd_numeric(1, 1, nodes, 192) - ref_num) < mpmath.mpf(2) ** -170


class TestNumeric:
    def test_first_divided_difference(self):
        v = dd_numeric(0, 1, [0, 1], 128)
        with mpmath.workprec(160):
            assert abs(v - (mpmath.e - 1)) < mpmath.mpf(2) ** -120

    def test_confluent_pair(self):
        assert abs(dd_numeric(0, 1, [0, 0], 128) - 1) < mpmath.mpf(2) ** -120

    def test_matches_symbolic_at_one(self):
        sym = i0l_symbolic(3, 1, CUBIC_FIELD.eigenvalues, 0)
        scaled = sym.mul_laurent(LaurentPoly.t_power(3, F(1, 6)))
        num = dd_numeric(0, 1, [-7, 5, 1, 1], 256)
        assert abs(num - scaled.evaluate(1, 256)) < mpmath.mpf(2) ** -240

    def test_random_rational_nodes(self):
        rng = random.Random(8)
        for _ in range(5):
            n = rng.randint(1, 5)
            nodes = [random_fraction(rng) for _ in range(n + 1)]
            l = rng.randint(0, 2)
            m = rng.randint(1, 3)
            num = dd_numeric(l, m, nodes, 256)
            # symbolic divided difference of x^l e^(m t x) evaluated at t = 1
            from modfutaki.localization import _dd_pow_exp_all
            sym = _dd_pow_exp_all(l, m, nodes)[l].evaluate(1, 256)
            scale = max(1, abs(sym))
            assert abs(num - sym) / scale < mpmath.mpf(2) ** -(256 - 16)

    def test_moment_assembly_matches_symbolic(self):
        rng = random.Random(9)
        lam = [random_fraction(rng) for _ in range(5)]
        moments = i0l_numeric_all(4, 2, lam, 2, 256)
        with mpmath.workprec(300):
            for l in range(3):
                sym = i0l_symbolic(4, 2, tuple(lam), l).evaluate(1, 256)
                assert abs(moments[l] - sym) < mpmath.mpf(2) ** -220 * (1 + abs(sym))


def kernel_nodes(rng, n, kind):
    """n + 1 nodes: spread, clustered within 2^-20, or in two repeated blocks.

    The nodes are dyadic, so Dual inputs hold them exactly and a comparison
    with the exact kernel measures the numeric kernel, not input rounding.
    """
    def dyadic():
        return F(rng.randint(-32, 32), rng.choice((1, 2, 4, 8)))

    if kind == "spread":
        return [dyadic() for _ in range(n + 1)]
    if kind == "clustered":
        base = dyadic()
        return [base + F(rng.randint(-64, 64), 2 ** 26) for _ in range(n + 1)]
    a, b = dyadic(), dyadic()
    return [a if i % 3 else b for i in range(n + 1)]


def assert_close(num, exact, bits):
    """Relative agreement to bits - 16 bits (absolute when exact is 0)."""
    scale = abs(exact) if exact else mpmath.mpf(1)
    assert abs(num - exact) <= mpmath.mpf(2) ** -(bits - 16) * scale, (num, exact)


KERNEL_CASES = [(n, kind) for n in (3, 6, 10, 16, 24)
                for kind in ("spread", "clustered", "coincident")]


class TestBidiagonalKernel:
    BITS = 192

    @pytest.mark.parametrize("n,kind", KERNEL_CASES)
    def test_values_match_exact(self, n, kind):
        rng = random.Random(100 * n + len(kind))
        nodes = kernel_nodes(rng, n, kind)
        m = rng.randint(1, 3)
        exact = [dd.evaluate(1, self.BITS)
                 for dd in _dd_pow_exp_all(2, m, nodes)]
        for l in range(3):
            assert_close(dd_numeric(l, m, nodes, self.BITS), exact[l], self.BITS)
        tangents = [F(rng.randint(-3, 3)) for _ in nodes]
        duals = [_to_mpf(Dual(x, v)) for x, v in zip(nodes, tangents)]
        exact_dual = [dd.dual_parts()
                      for dd in _dd_pow_exp_all(2, m, nodes, tangents)]
        for l, got in enumerate(_dd_numeric_multi(2, m, duals, self.BITS)):
            value, tangent = exact_dual[l]
            assert_close(got.value, value.evaluate(1, self.BITS), self.BITS)
            assert_close(got.derivative, tangent.evaluate(1, self.BITS), self.BITS)

    @pytest.mark.parametrize("n,kind", [(3, "spread"), (6, "clustered"),
                                        (10, "coincident"), (16, "spread")])
    def test_tangent_is_confluent_divided_difference(self, n, kind):
        # d/dx_j f[x_0..x_n] = f[x_0, .., x_j, x_j, .., x_n]
        rng = random.Random(7 * n)
        nodes = kernel_nodes(rng, n, kind)
        m = rng.randint(1, 3)
        for j in (0, n // 2, n):
            duals = [_to_mpf(Dual(x, int(i == j))) for i, x in enumerate(nodes)]
            got = _dd_numeric_multi(1, m, duals, self.BITS)
            confluent = _dd_pow_exp_all(1, m, nodes + [nodes[j]])
            for l in range(2):
                assert_close(got[l].derivative,
                             confluent[l].evaluate(1, self.BITS), self.BITS)

    def test_dual_f_numeric_never_converts_a_dual(self, monkeypatch):
        # mpf * Dual makes mpmath format repr(Dual) before deferring to Dual
        calls = []
        fallback = mpmath.mp._convert_fallback

        def counting(x, strings):
            calls.append(type(x).__name__)
            return fallback(x, strings)

        monkeypatch.setattr(mpmath.mp, "_convert_fallback", counting)
        lam = [Dual(mpmath.mpf(x), mpmath.mpf(v))
               for x, v in zip((-7, 3, -2, 5, 1), (1, -1, 0, 2, -2))]
        wts = [Dual(mpmath.mpf(-4), mpmath.mpf(1)),
               Dual(mpmath.mpf(6), mpmath.mpf(-2))]
        result = f_numeric(QUADRICS, lam, wts, 128)
        assert isinstance(result, Dual)
        assert calls == []


class TestIntersectionLevels:
    def test_level_zero_is_ambient_moment(self):
        assert ik0_symbolic(CUBIC, CUBIC_FIELD, 0) == CUBIC_I00

    def test_top_level_gives_functional(self):
        # F = -exp(sum a t) I_s / (d_1..d_s) for the cubic
        top = ik0_symbolic(CUBIC, CUBIC_FIELD, 1)
        f = top.shift_frequency(F(3)).mul_scalar(F(-1, 3))
        from conftest import CUBIC_F
        assert f == CUBIC_F

    def test_zero_field_degree_chain(self):
        for ci in (CUBIC, QUADRICS):
            zero = DiagonalField.zero(ci)
            top = ik0_symbolic(ci, zero, ci.codim)
            product = 1
            for d in ci.degrees:
                product *= d
            assert top == ExpPoly.const(product)


class TestRecursion:
    def test_golden_examples(self):
        assert verify_recursion(CUBIC, CUBIC_FIELD).ok
        assert verify_recursion(QUADRICS, QUADRICS_FIELD).ok

    def test_zero_field(self):
        for ci in (CUBIC, QUADRICS):
            assert verify_recursion(ci, DiagonalField.zero(ci)).ok

    def test_random_admissible(self):
        rng = random.Random(10)
        done = 0
        while done < 10:
            n = rng.randint(2, 6)
            s = rng.randint(0, min(3, n))
            degrees = []
            budget = n
            for _ in range(s):
                d = rng.randint(1, max(1, budget - (s - len(degrees) - 1)))
                degrees.append(d)
                budget -= d
            if sum(degrees) > n:
                continue
            ci = CompleteIntersectionSpec.create(n, degrees)
            lam = [random_fraction(rng) for _ in range(n)]
            lam.append(-sum(lam, F(0)))
            weights = [random_fraction(rng) for _ in range(s)]
            field = DiagonalField.create(lam, weights)
            assert verify_recursion(ci, field).ok, (ci, field)
            done += 1


class TestNodeMultiset:
    def test_grouping(self):
        ms = NodeMultiset.from_nodes([F(1), F(-7), F(1), F(5)])
        assert ms.values == (F(-7), F(1), F(5))
        assert ms.multiplicities == (1, 2, 1)
        assert ms.total == 4
