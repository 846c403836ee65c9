"""Fixed-point integrals: exact residue form, numeric bidiagonal form, recursion."""

import random
from fractions import Fraction
from fractions import Fraction as F
from math import factorial

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modfutaki import (CompleteIntersectionSpec, DiagonalField, ExpPoly,
                       LaurentPoly, i0l_symbolic, ik0_symbolic,
                       verify_recursion)
from modfutaki.exactalg import Dual, PrecisionNotReached, _to_mpf, primal
from modfutaki.futaki import f_numeric
from modfutaki.localization import (_dd_numeric_multi, _dd_pow_exp_all,
                                    _integrand, _moment_coefficient,
                                    i0l_numeric_all, mixed_integral)

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
            assert i0l_symbolic(n, m, lam, l) == ExpPoly()


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
        confluent = _dd_numeric_multi(0, 1, [a, b, c, c], 192 + 64)[0]
        errs = []
        for k in range(1, 7):
            eps = F(1, 10 ** k)
            near = _dd_numeric_multi(0, 1, [a, b, c, c + eps], 192 + 64)[0]
            errs.append(abs(near - confluent))
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
                derived = derived * LaurentPoly.t_power(l)
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
        ref_num = _dd_numeric_multi(1, 1, nodes, 192 + 64)[1]
        rng.shuffle(nodes)
        shuffled = _dd_numeric_multi(1, 1, nodes, 192 + 64)[1]
        assert abs(shuffled - ref_num) < mpmath.mpf(2) ** -170


class TestNumeric:
    def test_first_divided_difference(self):
        v = _dd_numeric_multi(0, 1, [0, 1], 128 + 64)[0]
        with mpmath.workprec(160):
            assert abs(v - (mpmath.e - 1)) < mpmath.mpf(2) ** -120

    def test_confluent_pair(self):
        v = _dd_numeric_multi(0, 1, [0, 0], 128 + 64)[0]
        assert abs(v - 1) < mpmath.mpf(2) ** -120

    def test_matches_symbolic_at_one(self):
        sym = i0l_symbolic(3, 1, CUBIC_FIELD.eigenvalues, 0)
        scaled = sym * LaurentPoly.t_power(3, F(1, 6))
        num = _dd_numeric_multi(0, 1, [-7, 5, 1, 1], 256 + 64)[0]
        assert abs(num - scaled.evaluate(1, 256)) < mpmath.mpf(2) ** -240

    def test_random_rational_nodes(self):
        rng = random.Random(8)
        for _ in range(5):
            n = rng.randint(1, 5)
            nodes = [random_fraction(rng) for _ in range(n + 1)]
            l = rng.randint(0, 2)
            m = rng.randint(1, 3)
            num = _dd_numeric_multi(l, m, nodes, 256 + 64)[l]
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


def repeated_nodes(rng, n):
    """n + 1 >= 3 rational nodes taking 2..n distinct values, so blocks repeat."""
    count, values = rng.randint(2, min(4, n)), set()
    while len(values) < count:
        values.add(random_fraction(rng, -12, 12, 5))
    nodes = sorted(values) + [rng.choice(sorted(values))
                              for _ in range(n + 1 - len(values))]
    rng.shuffle(nodes)
    return nodes


class TestExactKernel:
    # identities checked in exact arithmetic, with no numeric kernel between

    @pytest.mark.parametrize("seed", range(6))
    def test_distinct_nodes_give_the_lagrange_form(self, seed):
        rng = random.Random(300 + seed)
        n, m = rng.randint(1, 9), rng.randint(1, 4)
        nodes = []
        while len(nodes) < n + 1:
            x = random_fraction(rng, -12, 12, 6)
            if x not in nodes:
                nodes.append(x)
        dds = _dd_pow_exp_all(3, m, nodes)
        for l in range(4):
            lagrange = ExpPoly()
            for j, x in enumerate(nodes):
                denom = F(1)
                for k, y in enumerate(nodes):
                    if k != j:
                        denom *= x - y
                lagrange = lagrange + ExpPoly.exponential(m * x, x ** l / denom)
            assert dds[l] == lagrange, (nodes, m, l)

    @pytest.mark.parametrize("seed", range(6))
    def test_tangent_is_the_confluent_divided_difference(self, seed):
        # d/dx_j f[x_0..x_n] = f[x_0, .., x_n, x_j], also inside a repeated block
        rng = random.Random(400 + seed)
        n, m = rng.randint(2, 9), rng.randint(1, 4)
        nodes = repeated_nodes(rng, n)
        for j in sorted({0, n // 2, n}):
            unit = [int(i == j) for i in range(n + 1)]
            tangent = [dd.dual_parts()[1]
                       for dd in _dd_pow_exp_all(2, m, nodes, unit)]
            assert tangent == _dd_pow_exp_all(2, m, nodes + [nodes[j]]), (nodes, j)

    @pytest.mark.parametrize("seed", range(6))
    def test_powers_follow_the_leibniz_rule(self, seed):
        # (x f)[x_0..x_n] = x_0 f[x_0..x_n] + f[x_1..x_n], also on repeated nodes
        rng = random.Random(450 + seed)
        n, m = rng.randint(2, 9), rng.randint(1, 4)
        nodes = repeated_nodes(rng, n)
        full, tail = _dd_pow_exp_all(3, m, nodes), _dd_pow_exp_all(2, m, nodes[1:])
        for i in range(1, 4):
            assert full[i] == full[i - 1] * nodes[0] + tail[i - 1], (nodes, i)


def moments_by_l(n, m, eigenvalues, max_l, tangents=None):
    """The theta-moments I_0..I_max_l, each its own sum over i of DD_i terms."""
    dds = _dd_pow_exp_all(max_l, m, eigenvalues, tangents)
    out = []
    for l in range(max_l + 1):
        total = ExpPoly()
        for i in range(l + 1):
            total = total + dds[i] * LaurentPoly.t_power(
                i - n, _moment_coefficient(n, m, l, i))
        out.append(total)
    return out


class TestMixedIntegralAssembly:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_the_sum_over_each_integrand_term(self, seed):
        # sum over (j, l) of kappa_jl * c_jl * I_l, one term at a time
        rng = random.Random(500 + seed)
        degrees = [rng.randint(1, 3) for _ in range(seed % 4)]
        n = rng.randint(max(2, sum(degrees)), 8)
        ci = CompleteIntersectionSpec.create(n, degrees)
        m = ci.fano_index
        eig = repeated_nodes(rng, n) if seed % 2 else \
            [random_fraction(rng, -12, 12, 5) for _ in range(n + 1)]
        eig[-1] -= sum(eig, F(0))
        tangents = [random_fraction(rng) for _ in range(n)]
        tangents.append(-sum(tangents, F(0)))
        field = DiagonalField.create(eig, [random_fraction(rng) for _ in degrees])
        direction = DiagonalField.create(
            tangents, [random_fraction(rng) for _ in degrees])
        for k in range(ci.codim + 1):
            for along in (None, direction):
                coeffs = _integrand(ci, field, k, along)
                max_l = max(l for (_, l) in coeffs)
                moments = moments_by_l(
                    n, m, field.eigenvalues, max_l,
                    None if along is None else along.eigenvalues)
                if along is None:
                    assert moments == [i0l_symbolic(n, m, field.eigenvalues, l)
                                       for l in range(max_l + 1)]
                expected = ExpPoly()
                for (j, l), c in coeffs.items():
                    kappa = F(m ** (k - j) * factorial(n - k),
                              factorial(n - j) * m ** l)
                    expected = expected + moments[l] * c * kappa
                assert mixed_integral(ci, field, k, along) == expected, (k, along)


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


def assert_close(num, exact, bits, slack=16):
    """Relative agreement to bits - slack bits (absolute when exact is 0)."""
    scale = abs(exact) if exact else mpmath.mpf(1)
    assert abs(num - exact) <= mpmath.mpf(2) ** -(bits - slack) * scale, (num, exact)


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
            assert_close(_dd_numeric_multi(l, m, nodes, self.BITS + 64)[l],
                         exact[l], self.BITS)
        tangents = [F(rng.randint(-3, 3)) for _ in nodes]
        duals = [_to_mpf(Dual(x, v)) for x, v in zip(nodes, tangents)]
        exact_dual = [dd.dual_parts()
                      for dd in _dd_pow_exp_all(2, m, nodes, tangents)]
        for l, got in enumerate(_dd_numeric_multi(2, m, duals, self.BITS + 64)):
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
            got = _dd_numeric_multi(1, m, duals, self.BITS + 64)
            confluent = _dd_pow_exp_all(1, m, nodes + [nodes[j]])
            for l in range(2):
                assert_close(got[l].derivative,
                             confluent[l].evaluate(1, self.BITS), self.BITS)

    @pytest.mark.parametrize("seed", [
        lambda x, v: Dual(x, v),
        # a Dual of Duals, as the Newton Hessian seeds it
        lambda x, v: Dual(Dual(x, v), Dual(-v, 0 * v)),
    ], ids=["dual", "nested"])
    def test_dual_f_numeric_never_converts_a_dual(self, monkeypatch, seed):
        # mpf * Dual makes mpmath format repr(Dual) before deferring to Dual
        calls = []
        fallback = mpmath.mp._convert_fallback

        def counting(x, strings):
            calls.append(type(x).__name__)
            return fallback(x, strings)

        monkeypatch.setattr(mpmath.mp, "_convert_fallback", counting)
        lam = [seed(mpmath.mpf(x), mpmath.mpf(v))
               for x, v in zip((-7, 3, -2, 5, 1), (1, -1, 0, 2, -2))]
        wts = [seed(mpmath.mpf(-4), mpmath.mpf(1)),
               seed(mpmath.mpf(6), mpmath.mpf(-2))]
        result = f_numeric(QUADRICS, lam, wts, 128)
        assert isinstance(result, Dual)
        assert type(result.derivative) is type(lam[0].derivative)
        assert calls == []


class TestKernelWordSize:
    # One node at +24 and the rest within 1 of -24, at m = 1: entry (i,k) of
    # the scaled exponential falls to about 2^(-(k-i)*sigma)/(k-i)!, and the
    # word size must hold it. The kernel is given bits alone, with no guard.
    @pytest.mark.parametrize("n", [16, 25])
    @pytest.mark.parametrize("bits", [192, 256])
    def test_skewed_wide_nodes(self, n, bits):
        rng = random.Random(n)
        nodes = [F(24)] + [F(-24) + F(j % 9, 8) for j in range(n - 1)]
        rng.shuffle(nodes)
        tangents = [F(rng.randint(-3, 3)) for _ in nodes]
        exact = [(value.evaluate(1, bits + 64), tangent.evaluate(1, bits + 64))
                 for value, tangent in (dd.dual_parts() for dd in
                                        _dd_pow_exp_all(2, 1, nodes, tangents))]
        plain = _dd_numeric_multi(2, 1, nodes, bits)
        duals = _dd_numeric_multi(
            2, 1, [_to_mpf(Dual(x, v)) for x, v in zip(nodes, tangents)], bits)
        for got, dual, (value, tangent) in zip(plain, duals, exact):
            assert_close(got, value, bits, slack=4)
            assert_close(dual.value, value, bits, slack=4)
            assert_close(dual.derivative, tangent, bits, slack=4)


@st.composite
def dyadic_blocks(draw):
    """Up to 12 dyadic nodes in repeated blocks, in drawn order."""
    values = draw(st.lists(st.integers(-64, 64), min_size=1, max_size=4,
                           unique=True))
    picks = draw(st.lists(st.sampled_from(values), min_size=1, max_size=12))
    return [F(v, 8) for v in picks]


def at_one(dd, bits):
    """dd at t = 1 to bits; a sum that cancels on every guard pass is 0."""
    try:
        return dd.evaluate(1, bits + 64)
    except PrecisionNotReached:
        return mpmath.mpf(0)


def slots(x):
    """f, then D_u f, D_v f and D_u D_v f as far as x carries them."""
    return slots(x.value) + slots(x.derivative) if isinstance(x, Dual) else [x]


def exp_dd_slots(m, nodes, u, v):
    """f = DD(exp(m x); nodes), D_u f, D_v f and D_u D_v f as ExpPolys.

    D_u D_v f = sum_j v_j D_u f[x, x_j], where x_j moves with u_j twice.
    """
    value, d_u = _dd_pow_exp_all(0, m, nodes, u)[0].dual_parts()
    d_v = _dd_pow_exp_all(0, m, nodes, v)[0].dual_parts()[1]
    d_uv = ExpPoly()
    for j, b in enumerate(v):
        if b:
            extended = _dd_pow_exp_all(0, m, nodes + [nodes[j]], u + [u[j]])[0]
            d_uv = d_uv + extended.dual_parts()[1] * F(b)
    return value, d_u, d_v, d_uv


class TestKernelProperties:
    # Every divided difference of exp(m x), m > 0, is positive
    # (Hermite-Genocchi), and so is each mixed partial in the nodes. A slot
    # is compared to bits - 16 against its own value with every tangent
    # replaced by its absolute value: the size of the terms it sums.
    @settings(max_examples=40)
    @given(nodes=dyadic_blocks(), m=st.integers(1, 8),
           bits=st.sampled_from([64, 128, 256]),
           seed=st.sampled_from(["plain", "dual", "nested"]),
           data=st.data())
    def test_matches_exact_kernel(self, nodes, m, bits, seed, data):
        def tangents():
            return data.draw(st.lists(st.integers(-3, 3), min_size=len(nodes),
                                      max_size=len(nodes)))

        u = tangents() if seed != "plain" else [0] * len(nodes)
        v = tangents() if seed == "nested" else [0] * len(nodes)
        if seed == "plain":
            inputs = nodes
        elif seed == "dual":
            inputs = [_to_mpf(Dual(x, a)) for x, a in zip(nodes, u)]
        else:
            inputs = [_to_mpf(Dual(Dual(x, a), Dual(b, 0)))
                      for x, a, b in zip(nodes, u, v)]
        got = _dd_numeric_multi(0, m, inputs, bits)[0]
        exact = exp_dd_slots(m, nodes, u, v)
        scale = exp_dd_slots(m, nodes, [abs(a) for a in u], [abs(b) for b in v])
        for g, want, size in zip(slots(got), exact, scale):
            assert abs(g - at_one(want, bits)) \
                <= mpmath.mpf(2) ** -(bits - 16) * at_one(size, bits), \
                (nodes, m, bits, u, v)


# The exact kernel as it stood on Fraction arithmetic, kept verbatim as an
# oracle for the integer kernel: every product normalizes a Fraction, and
# 1/P takes one division per block.
def fraction_kernel(max_power, m, nodes, tangents=None):
    """Divided differences DD(x^i * exp(m*t*x); nodes) for i = 0..max_power.

    Each value is an ExpPoly in t with frequencies m*r over the distinct node
    values r. With `tangents`, first-order node perturbations are carried
    through and the results have Dual coefficients; within a block of equal
    nodes only the sum of the tangents enters (eps^2 = 0), so directions that
    split a repeated eigenvalue are differentiated exactly.

    A block at r contributes the residue of x^i e^(m t x) / prod_j (x - x_j)
    at r, read from series in u = x - r to the block's order: O(n * order)
    products and no division build P(u) = prod of (u + r - x_j) over the
    nodes outside the block, and 1/P takes one division per block.
    """
    nodes = [Fraction(x) for x in nodes]
    dual = tangents is not None
    if dual:
        tangents = [Fraction(x) for x in tangents]
        if len(tangents) != len(nodes):
            raise ValueError("one tangent per node is required")

    blocks = {}
    for idx, r in enumerate(nodes):
        blocks.setdefault(r, []).append(idx)

    results = [dict() for _ in range(max_power + 1)]
    for r in sorted(blocks):
        idxs = blocks[r]
        mult = len(idxs)
        tangent_sum = sum(tangents[i] for i in idxs) if dual else Fraction(0)
        order = mult if dual else mult - 1

        # P(u); the tangent of x_j enters as -eps in r - x_j
        p = [Fraction(1)] + [Fraction(0)] * order
        for j, x in enumerate(nodes):
            if x != r:
                c = Dual(r - x, -tangents[j]) if dual else r - x
                p = [p[0] * c] + [p[w] * c + p[w - 1] for w in range(1, order + 1)]
        # g = 1/P: g_0 = 1/P_0, g_w = -(P_1 g_(w-1) + .. + P_w g_0) g_0
        g0 = 1 / p[0]
        g = [g0]
        for w in range(1, order + 1):
            acc = p[1] * g[w - 1]
            for i in range(2, w + 1):
                acc = acc + p[i] * g[w - i]
            g.append(-acc * g0)

        freq = Fraction(m) * r
        for i in range(max_power + 1):
            if i:  # g <- g * (r + u), one more factor x of x^i
                g = [g[0] * r] + [g[w] * r + g[w - 1] for w in range(1, order + 1)]
            coeffs = {}
            for j in range(order + 1):
                c = g[mult - 1 - j] if j < mult else Fraction(0)
                if dual:
                    c = c + Dual(0, tangent_sum * primal(g[mult - j]))
                coeffs[j] = c * Fraction(m ** j, factorial(j))
            results[i][freq] = LaurentPoly(coeffs)
    return [ExpPoly(res) for res in results]


@st.composite
def kernel_cases(draw):
    """Up to 14 nodes in repeated blocks, max_power and tangents for the kernel.

    Node denominators share some factors and not others, so a factor's
    scale lcm(d, b) is sometimes d, sometimes b and sometimes neither. They
    are coprime to the odd tangent denominators. Tangents are absent, all
    zero or drawn.
    """
    values = draw(st.lists(st.builds(F, st.integers(-96, 96),
                                     st.sampled_from([1, 2, 4, 7, 8, 14])),
                           min_size=1, max_size=5, unique=True))
    nodes = draw(st.lists(st.sampled_from(values), min_size=1, max_size=14))
    kind = draw(st.sampled_from(["none", "zero", "drawn"]))
    if kind == "none":
        tangents = None
    elif kind == "zero":
        tangents = [F(0)] * len(nodes)
    else:
        tangents = draw(st.lists(
            st.builds(F, st.integers(-9, 9), st.sampled_from([1, 3, 5, 9, 15])),
            min_size=len(nodes), max_size=len(nodes)))
    return draw(st.integers(0, 4)), draw(st.integers(1, 6)), nodes, tangents


def layout(dd):
    """Frequencies and exponents in term order, with the coefficient types."""
    return [(mu, [(e, type(c), [type(s) for s in slots(c)])
                  for e, c in lp.terms.items()])
            for mu, lp in dd.terms.items()]


def assert_same_as_oracle(max_power, m, nodes, tangents):
    got = _dd_pow_exp_all(max_power, m, nodes, tangents)
    want = fraction_kernel(max_power, m, nodes, tangents)
    assert got == want
    assert [layout(dd) for dd in got] == [layout(dd) for dd in want]


class TestIntegerKernelAgainstOracle:
    @settings(max_examples=300)
    @given(case=kernel_cases())
    def test_drawn_cases(self, case):
        assert_same_as_oracle(*case)

    @pytest.mark.parametrize("tangents", [None, [F(0)] * 5,
                                          [F(1, 3), F(-2), F(5, 9), F(0), F(7, 5)]])
    def test_one_block_holds_every_node(self, tangents):
        # no factor outside the block: d's exponent mu - 1 - i - j goes negative
        assert_same_as_oracle(4, 3, [F(-3, 4)] * 5, tangents)

    @pytest.mark.parametrize("tangents", [None, [F(0)], [F(2, 7)]])
    def test_one_node(self, tangents):
        assert_same_as_oracle(4, 2, [F(5, 3)], tangents)

    @pytest.mark.parametrize("tangents", [None, [F(1, 3), F(-1), F(2, 9), F(4, 5)]])
    def test_negative_nodes(self, tangents):
        assert_same_as_oracle(3, 5, [F(-7, 2), F(-1, 8), F(-7, 2), F(-12)],
                              tangents)

    @pytest.mark.parametrize("dual", [False, True])
    def test_large_coprime_denominators(self, dual):
        rng = random.Random(3)
        big = lambda: rng.randrange(10 ** 29, 10 ** 30)
        values = [F(big(), big()) for _ in range(6)]
        nodes = values + [-x for x in values[:3]] + values[:2]
        tangents = [F(rng.randrange(-10 ** 30, 10 ** 30), rng.randrange(1, 10 ** 30))
                    for _ in nodes] if dual else None
        assert_same_as_oracle(3, 2, nodes, tangents)

    def test_golden_varieties(self):
        for field in (CUBIC_FIELD, QUADRICS_FIELD):
            assert_same_as_oracle(3, 1, field.eigenvalues, None)
            assert_same_as_oracle(3, 1, field.eigenvalues, field.eigenvalues)


class TestIntersectionLevels:
    def test_level_zero_is_ambient_moment(self):
        assert ik0_symbolic(CUBIC, CUBIC_FIELD, 0) == CUBIC_I00

    def test_top_level_gives_functional(self):
        # F = -exp(sum a t) I_s / (d_1..d_s) for the cubic
        top = ik0_symbolic(CUBIC, CUBIC_FIELD, 1)
        f = top.shift_frequency(F(3)) * F(-1, 3)
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

