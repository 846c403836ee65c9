"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Tolerances are pinned here and nowhere else.
"""

import random
from fractions import Fraction as F

import mpmath

from modfutaki import (CompleteIntersectionSpec, DiagonalField, ExpPoly,
                       LaurentPoly, derive_weights, f_function,
                       f_function_via_recursion, f_numeric, fk,
                       fut_derivative, i0l_symbolic, nk, verify_recursion)
from modfutaki.quantize import convergence_report
from modfutaki.soliton import admissible_torus, find_soliton

from conftest import (CUBIC, CUBIC_F, CUBIC_FIELD, CUBIC_I00, CUBIC_I01,
                      FERMAT_CUBIC, QUADRICS, QUADRICS_F, QUADRICS_FIELD,
                      QUADRICS_I00, QUADRICS_I01, QUADRICS_I02)


def report(criterion, ok):
    print(f"acceptance criterion {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {criterion} failed"


def random_fano(rng, max_dim=9, max_codim=3):
    while True:
        n = rng.randint(2, max_dim)
        s = rng.randint(0, min(max_codim, n))
        degrees = [rng.randint(1, 3) for _ in range(s)]
        if sum(degrees) <= n:
            return CompleteIntersectionSpec.create(n, degrees)


def random_admissible(rng, max_dim=6):
    ci = random_fano(rng, max_dim=max_dim)
    lam = [F(rng.randint(-6, 6), rng.randint(1, 3))
           for _ in range(ci.ambient_dim)]
    lam.append(-sum(lam, F(0)))
    weights = [F(rng.randint(-6, 6), rng.randint(1, 3))
               for _ in range(ci.codim)]
    return ci, DiagonalField.create(lam, weights)


def torus_member(ci, coeffs):
    basis = admissible_torus(ci).basis
    lam = tuple(sum((c * vec[i] for c, vec in zip(coeffs, basis)), F(0))
                for i in range(ci.ambient_dim + 1))
    return DiagonalField(lam, derive_weights(ci, lam))


def test_criterion_01_cubic_exact_reproduction():
    ok = (f_function(CUBIC, CUBIC_FIELD) == CUBIC_F
          and i0l_symbolic(3, 1, CUBIC_FIELD.eigenvalues, 0) == CUBIC_I00
          and i0l_symbolic(3, 1, CUBIC_FIELD.eigenvalues, 1) == CUBIC_I01)
    report(1, ok)


def test_criterion_02_quadrics_exact_reproduction():
    lam = QUADRICS_FIELD.eigenvalues
    ok = (f_function(QUADRICS, QUADRICS_FIELD) == QUADRICS_F
          and i0l_symbolic(4, 1, lam, 0) == QUADRICS_I00
          and i0l_symbolic(4, 1, lam, 1) == QUADRICS_I01
          and i0l_symbolic(4, 1, lam, 2) == QUADRICS_I02)
    report(2, ok)


def test_criterion_03_confluent_closed_form():
    rng = random.Random(53)
    ok = True
    done = 0
    while done < 5:
        a, b, c = (F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3))
        if len({a, b, c}) < 3:
            continue
        expected = ExpPoly({
            F(a): LaurentPoly({-3: F(6) / ((a - b) * (a - c) ** 2)}),
            F(b): LaurentPoly({-3: F(6) / ((b - a) * (b - c) ** 2)}),
            F(c): LaurentPoly({
                -3: F(6) * (a + b - 2 * c) / ((c - a) ** 2 * (c - b) ** 2),
                -2: F(6) / ((c - a) * (c - b)),
            }),
        })
        ok = ok and i0l_symbolic(3, 1, (a, b, c, c), 0) == expected
        done += 1
    report(3, ok)


def test_criterion_04_normalization():
    rng = random.Random(54)
    ok = True
    for _ in range(20):
        ci = random_fano(rng)
        ok = ok and f_function(ci, DiagonalField.zero(ci)) == ExpPoly({0: F(-1)})
    ok = ok and f_function(CUBIC, CUBIC_FIELD).limit_at_zero() == F(-1)
    ok = ok and f_function(QUADRICS, QUADRICS_FIELD).limit_at_zero() == F(-1)
    report(4, ok)


def test_criterion_05_recursion_identity():
    rng = random.Random(55)
    ok = (verify_recursion(CUBIC, CUBIC_FIELD) is None
          and verify_recursion(QUADRICS, QUADRICS_FIELD) is None)
    for _ in range(10):
        ci, field = random_admissible(rng)
        ok = ok and verify_recursion(ci, field) is None
    report(5, ok)


def test_criterion_06_two_path_equality():
    rng = random.Random(56)
    cases = [(CUBIC, CUBIC_FIELD), (QUADRICS, QUADRICS_FIELD)]
    cases += [random_admissible(rng) for _ in range(10)]
    ok = all(f_function(ci, field) == f_function_via_recursion(ci, field)
             for ci, field in cases)
    report(6, ok)


def test_criterion_07_quantized_oracle():
    rng = random.Random(57)
    ok = True
    # (a) exact identity at the zero field for every level up to 64
    configs = [CUBIC, QUADRICS] + [random_fano(rng, max_dim=6) for _ in range(3)]
    for ci in configs:
        zero = DiagonalField.zero(ci)
        for k in range(1, 65):
            ok = ok and fk(ci, zero, k, F(0)) == -k * nk(ci, k)
    # (b) strictly decreasing error with at least a factor 3 from k=8 to k=64
    for ci, field in ((CUBIC, CUBIC_FIELD), (QUADRICS, QUADRICS_FIELD)):
        for t in (F(1, 10), F(1, 4)):
            errors = [row.error for row in
                      convergence_report(ci, field, t, (8, 16, 32, 64), 256)]
            ok = ok and all(b < a for a, b in zip(errors, errors[1:]))
            ok = ok and errors[3] <= errors[0] / 3
    report(7, ok)


def test_criterion_08_hilbert_leading_coefficient():
    ok = True
    for ci in (CUBIC, QUADRICS):
        n, s = ci.ambient_dim, ci.codim
        target = ci.fano_index ** (n - s)
        for d in ci.degrees:
            target *= d
        k = 200
        factorial_ns = 1
        for i in range(2, n - s + 1):
            factorial_ns *= i
        got = F(nk(ci, k) * factorial_ns, k ** (n - s))
        ok = ok and abs(got - target) < F(1, 10) * target
    report(8, ok)


def test_criterion_09_symbolic_numeric_agreement():
    tol = mpmath.mpf(2) ** -(256 - 16)
    ok = True
    cases = [(CUBIC, CUBIC_FIELD), (QUADRICS, QUADRICS_FIELD)]
    eps = F(1, 10 ** 9)
    stress_ci = CompleteIntersectionSpec.create(3, [3])
    stress_field = DiagonalField.create([F(-3), F(1), 1 - eps, 1 + eps], [3])
    cases.append((stress_ci, stress_field))
    for ci, field in cases:
        symbolic = f_function(ci, field)
        for t in (F(1, 10), F(1, 4), F(-1, 3)):
            sym = symbolic.evaluate(t, 256)
            num = f_numeric(ci, [r * t for r in field.eigenvalues],
                            [a * t for a in field.weights], 256)
            ok = ok and abs(sym - num) <= abs(sym) * tol
    report(9, ok)


def test_criterion_10_derivative_correctness():
    ok = True
    # exact self-direction identity on both golden examples
    for ci, field in ((CUBIC, CUBIC_FIELD), (QUADRICS, QUADRICS_FIELD)):
        fut = fut_derivative(ci, field, field)
        expected = f_function(ci, field).t_derivative() * LaurentPoly({1: F(1)})
        ok = ok and fut == expected

    # Richardson central differences on 10 random admissible pairs
    rng = random.Random(60)
    wide = CompleteIntersectionSpec.create(
        5, [2, 2],
        [[[1, 1, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0]],
         [[0, 0, 0, 0, 2, 0], [0, 0, 0, 0, 0, 2]]])
    pool = [CUBIC] * 2 + [QUADRICS] * 4 + [wide] * 4
    t = F(1, 4)
    for ci in pool:
        dim = admissible_torus(ci).dimension
        v = torus_member(ci, [F(rng.randint(-2, 2), 2) for _ in range(dim)])
        w = torus_member(ci, [F(rng.randint(-2, 2) or 1, 2)
                              for _ in range(dim)])
        exact = fut_derivative(ci, v, w).evaluate(t, 256)

        def g(s, ci=ci, v=v, w=w):
            lam = [(r + s * mu) * t
                   for r, mu in zip(v.eigenvalues, w.eigenvalues)]
            wts = [(a + s * b) * t for a, b in zip(v.weights, w.weights)]
            return f_numeric(ci, lam, wts, 256)

        with mpmath.workprec(340):
            estimates = []
            for h in (F(1, 10 ** 5), F(1, 10 ** 6)):
                hh = mpmath.mpf(h.numerator) / mpmath.mpf(h.denominator)
                estimates.append((g(h) - g(-h)) / (2 * hh))
            rich = (100 * estimates[1] - estimates[0]) / 99
            ok = ok and abs(exact - rich) <= mpmath.mpf("1e-20")
    report(10, ok)


def test_criterion_11_soliton_solver():
    ok = True
    result = find_soliton(CUBIC, tol=1e-10, max_iter=60, precision_bits=256)
    ok = ok and not result.trivial
    ok = ok and result.gradient_norm < mpmath.mpf("1e-10")

    # independent bisection of the closed-form derivative
    with mpmath.workprec(300):
        def fprime(t):
            return (mpmath.exp(-4 * t) * (4 * t + 2) / (48 * t ** 3)
                    + mpmath.exp(8 * t) * (2 - 8 * t) / (24 * t ** 3)
                    + mpmath.exp(4 * t) * (4 * t - 2) / (16 * t ** 3))

        lo, hi = mpmath.mpf(-2), mpmath.mpf("-0.01")
        for _ in range(250):
            mid = (lo + hi) / 2
            if fprime(mid) > 0:
                lo = mid
            else:
                hi = mid
        reference = (lo + hi) / 2
    scale = admissible_torus(CUBIC).basis[0][0] / F(-7)
    tstar = result.coefficients[0] * mpmath.mpf(float(scale))
    ok = ok and tstar < 0
    ok = ok and abs(tstar - reference) < mpmath.mpf("1e-9")

    ok = ok and find_soliton(FERMAT_CUBIC).trivial

    # the classical pairing coefficient -8/3 by two independent routes
    series_coeff = f_function(CUBIC, CUBIC_FIELD).series(1).terms.get(1)
    ok = ok and series_coeff == F(-8, 3)

    def g(s):
        lam = [s * r for r in CUBIC_FIELD.eigenvalues]
        wts = [s * a for a in CUBIC_FIELD.weights]
        return f_numeric(CUBIC, lam, wts, 256)

    with mpmath.workprec(320):
        estimates = []
        for h in (F(1, 10 ** 4), F(1, 10 ** 5)):
            hh = mpmath.mpf(h.numerator) / mpmath.mpf(h.denominator)
            estimates.append((g(h) - g(-h)) / (2 * hh))
        rich = (100 * estimates[1] - estimates[0]) / 99
        ok = ok and abs(rich - F(-8, 3)) < mpmath.mpf("1e-12")
    report(11, ok)
