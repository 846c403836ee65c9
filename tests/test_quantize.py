"""Finite-level trace oracle: section counts, character traces, convergence."""

import random
from fractions import Fraction as F
from itertools import product
from math import comb, lcm

import mpmath
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modfutaki import (CompleteIntersectionSpec, DiagonalField, cli,
                       convergence_report, f_function, fk, nk)
from modfutaki.exactalg import _to_mpf
from modfutaki.quantize import _scaled_traces, complete_homogeneous_all

from conftest import CUBIC, CUBIC_FIELD, QUADRICS, QUADRICS_FIELD


def brute_force_h(values, degree):
    """Sum over all monomials of the given total degree (test oracle)."""
    n = len(values)
    total = 0
    for exps in product(range(degree + 1), repeat=n):
        if sum(exps) != degree:
            continue
        term = 1
        for x, e in zip(values, exps):
            term *= x ** e
        total += term
    return total


def character_trace(eigenvalues, degree, u, bits):
    """h_degree(e^(r_0 u)..e^(r_N u)) from the fixed-point path at bits + 64."""
    with mpmath.workprec(bits + 64):
        top, word, h = _scaled_traces(eigenvalues, u, degree, bits + 64)
        return mpmath.ldexp(mpmath.exp(_to_mpf(degree * top * u)) * h[degree],
                            -word)


def mpf_complete_homogeneous(values, degree):
    """h_degree by the recurrence on mpf at the working precision (test oracle)."""
    h = [mpmath.mpf(1)] + [mpmath.mpf(0)] * degree
    for x in values:
        for d in range(1, degree + 1):
            h[d] = h[d] + x * h[d - 1]
    return h[degree]


class TestSectionCounts:
    def test_projective_plane(self):
        assert nk(CompleteIntersectionSpec.create(2, []), 1) == 10

    def test_cubic_level_one(self):
        assert nk(CUBIC, 1) == 4

    def test_hypersurface_direct_formula(self):
        for d in (2, 3):
            ci = CompleteIntersectionSpec.create(4, [d])
            n, m = 4, ci.fano_index
            for k in range(1, 11):
                direct = comb(n + k * m, n) - comb(n + k * m - d, n)
                assert nk(ci, k) == direct
                assert nk(ci, k) >= 0

    def test_leading_coefficient(self):
        # N_k (N-s)!/k^(N-s) approaches the anticanonical degree
        from math import factorial

        from modfutaki import anticanonical_degree
        for ci in (CUBIC, QUADRICS):
            n, s = ci.ambient_dim, ci.codim
            target = anticanonical_degree(ci)
            k = 200
            got = F(nk(ci, k) * factorial(n - s), k ** (n - s))
            assert abs(got - target) < F(1, 10) * target


class TestCharacterTrace:
    def test_zero_field_counts_monomials(self):
        for n, d in ((2, 4), (3, 5)):
            lam = [F(0)] * (n + 1)
            got = character_trace(lam, d, F(1, 3), 192)
            assert abs(got - comb(n + d, n)) < mpmath.mpf(2) ** -180

    def test_explicit_two_variable_case(self):
        # x = (2, 1/2): h_2 = 4 + 1 + 1/4
        with mpmath.workprec(200):
            u = mpmath.log(2)
            got = character_trace([F(1), F(-1)], 2, u, 160)
            assert abs(got - F(21, 4)) < mpmath.mpf(2) ** -140

    def test_newton_recurrence_vs_enumeration_exact(self):
        rng = random.Random(13)
        for _ in range(6):
            n = rng.randint(1, 3)
            d = rng.randint(1, 8)
            values = [F(rng.randint(-5, 5), rng.randint(1, 4))
                      for _ in range(n + 1)]
            scale = lcm(*(x.denominator for x in values))
            ints = [int(x * scale) for x in values]
            assert complete_homogeneous_all(ints, d, 0)[d] == \
                scale ** d * brute_force_h(values, d)

    def test_newton_recurrence_as_polynomial_identity(self):
        # run the recurrence over formal indeterminates and compare exactly
        # against the sum of all degree-d monomials
        class Poly:
            def __init__(self, terms):
                self.terms = {k: v for k, v in terms.items() if v}

            def __add__(self, other):
                if isinstance(other, int):
                    other = Poly({(0,) * nvars: F(other)}) if other else Poly({})
                out = dict(self.terms)
                for k, v in other.terms.items():
                    out[k] = out.get(k, F(0)) + v
                return Poly(out)

            __radd__ = __add__

            def __mul__(self, other):
                if isinstance(other, (int, F)):
                    return Poly({k: v * other for k, v in self.terms.items()})
                out = {}
                for k1, v1 in self.terms.items():
                    for k2, v2 in other.terms.items():
                        k = tuple(a + b for a, b in zip(k1, k2))
                        out[k] = out.get(k, F(0)) + v1 * v2
                return Poly(out)

            def __rshift__(self, word):
                assert word == 0
                return self

            def __truediv__(self, c):
                return Poly({k: v / c for k, v in self.terms.items()})

            def __eq__(self, other):
                return self.terms == other.terms

        for nvars, degree in ((2, 5), (3, 4), (4, 3)):
            xs = []
            for i in range(nvars):
                exp = [0] * nvars
                exp[i] = 1
                xs.append(Poly({tuple(exp): F(1)}))
            got = complete_homogeneous_all(xs, degree, 0)[degree]
            expected = Poly({exps: F(1)
                             for exps in product(range(degree + 1), repeat=nvars)
                             if sum(exps) == degree})
            assert got == expected

    def test_positive_for_real_input(self):
        rng = random.Random(14)
        for _ in range(5):
            lam = [F(rng.randint(-4, 4)) for _ in range(4)]
            v = character_trace(lam, rng.randint(1, 6), F(1, 5), 128)
            assert v > 0


def trace_cases(bits, max_distinct):
    """Nodes r_i, each once or twice, u = +-1/q with |r u| <= 60, D and bits."""
    nodes = st.lists(st.tuples(st.integers(-240, 240), st.integers(1, 2)),
                     min_size=2, max_size=max_distinct,
                     unique_by=lambda pair: pair[0])
    return st.tuples(
        nodes.map(lambda pairs: [F(a, 4) for a, times in pairs
                                 for _ in range(times)]),
        st.builds(F, st.sampled_from((1, -1)), st.integers(1, 8)),
        st.integers(1, cli.MAX_QUANTIZE_DEGREE),
        bits)


class TestFixedPointTrace:
    """The fixed-point h_D against the mpf recurrence run at twice the bits."""

    @staticmethod
    def check(eigenvalues, u, degree, bits):
        # the bound 3 n D 2^-W of complete_homogeneous_all's docstring, with
        # W worked out here, so that a narrower word in the code fails it
        work = bits + 64
        n = len(eigenvalues)
        word = work + (n * degree).bit_length() + 16
        top, _, h = _scaled_traces(eigenvalues, u, degree, work)
        with mpmath.workprec(2 * work):
            ys = [mpmath.exp(_to_mpf((r - top) * u)) for r in eigenvalues]
            ref = mpf_complete_homogeneous(ys, degree)
            got = mpmath.ldexp(mpmath.mpf(h[degree]), -word)
            assert abs(got - ref) <= 3 * n * degree * mpmath.ldexp(ref, -word)

    @settings(max_examples=40)
    @given(trace_cases(st.sampled_from((64, 128, 256)), 5))
    # nodes 120 apart at 64 bits: e^-120 2^W truncates to 0
    @example(([F(60), F(-60), F(0), F(-60)], F(1), 2048, 64))
    @example(([F(60), F(-60), F(59), F(1, 4)], F(-1), 2048, 64))
    @example(([F(1), F(1), F(3, 4), F(1, 2)], F(-1, 8), 2048, 256))
    def test_matches_the_mpf_recurrence(self, case):
        self.check(*case)

    @settings(max_examples=3)
    @given(trace_cases(st.just(4096), 2))
    @example(([F(3), F(-2), F(-2), F(5, 4)], F(-1, 3), 2048, 4096))
    def test_matches_the_mpf_recurrence_at_4096_bits(self, case):
        self.check(*case)


class TestQuantizedFunctional:
    def test_zero_field_exact_identity(self):
        for ci in (CUBIC, QUADRICS, CompleteIntersectionSpec.create(2, [])):
            zero = DiagonalField.zero(ci)
            for k in range(1, 65):
                assert fk(ci, zero, k, F(0)) == -k * nk(ci, k)

    def test_t_zero_exact_identity_with_nonzero_field(self):
        for k in (1, 7, 32):
            assert fk(CUBIC, CUBIC_FIELD, k, F(0)) == -k * nk(CUBIC, k)

    def test_projective_space_enumeration(self):
        # s = 0: F_k is -k times a plain sum over the monomials of degree k m;
        # on the line k m = 2048, the largest degree the command line allows
        t = F(1, 3)
        for lam, k in (((F(2), F(-1), F(-1)), 1), ((F(1), F(-1)), 1024)):
            n = len(lam) - 1
            ci = CompleteIntersectionSpec.create(n, [])
            field = DiagonalField.create(lam, [])
            degree = k * ci.fano_index
            got = fk(ci, field, k, t, 256)
            with mpmath.workprec(300):
                total = mpmath.mpf(0)
                for head in product(range(degree + 1), repeat=n):
                    if sum(head) > degree:
                        continue
                    exps = head + (degree - sum(head),)
                    w = sum(e * x for e, x in zip(exps, lam)) * t / k
                    total += mpmath.exp(mpmath.mpf(w.numerator) / w.denominator)
                total *= k
                assert abs(got + total) < mpmath.mpf(2) ** -220 * (1 + abs(total))

    def test_convergence_to_localization(self):
        for ci, field in ((CUBIC, CUBIC_FIELD), (QUADRICS, QUADRICS_FIELD)):
            for t in (F(1, 10), F(1, 4)):
                rows = convergence_report(ci, field, t, (8, 16, 32, 64), 256)
                errors = [row.error for row in rows]
                assert all(b < a for a, b in zip(errors, errors[1:]))

    def test_zero_field_error_column(self):
        rows = convergence_report(CUBIC, DiagonalField.zero(CUBIC),
                                  F(1, 4), (2, 4, 8), 192)
        for row in rows:
            assert row.error < mpmath.mpf(2) ** -150

    def test_heavy_cancellation_takes_a_second_guard_pass(self):
        # zero eigenvalues and e^(a/3) within about 2^-143 of h_3(1, 1, 1, 1)
        # = 20: the two Koszul terms of F_3 at t = 1 cancel to about 148 bits,
        # more than the first pass at 64 + 64 bits carries
        ci = CompleteIntersectionSpec.create(3, [3])
        with mpmath.workprec(256):
            a = 3 * F(mpmath.nstr(mpmath.log(20), 45))
        field = DiagonalField.create([0, 0, 0, 0], [a])
        got = fk(ci, field, 3, F(1), 64)
        with mpmath.workprec(512):
            a_mpf = mpmath.mpf(a.numerator) / a.denominator
            ref = -3 * mpmath.exp(a_mpf) * (20 - mpmath.exp(a_mpf / 3))
            assert abs(got - ref) <= abs(ref) * mpmath.mpf(2) ** -48

    def test_precision_discipline(self):
        t = F(1, 4)
        k = 64
        dim = nk(CUBIC, k)
        with mpmath.workprec(700):
            a = fk(CUBIC, CUBIC_FIELD, k, t, 256) / (k * dim)
            b = fk(CUBIC, CUBIC_FIELD, k, t, 512) / (k * dim)
            assert abs(a - b) < mpmath.mpf("1e-30")
