"""Shared golden inputs: two worked varieties with known closed forms, random
varieties and supports, and the two-variable (j, l) assembly of the level
integrals as a test oracle."""

from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import settings

from modfutaki import (CompleteIntersectionSpec, DiagonalField, Dual, ExpPoly,
                       LaurentPoly)
from modfutaki.futaki import _from_top_level
from modfutaki.localization import _dd_pow_exp_all, _moment_coefficient

# Every @given test draws the same examples on every run, with no timing limit.
settings.register_profile("modfutaki", derandomize=True, deadline=None)
settings.load_profile("modfutaki")

# Cubic surface z0*z1^2 + z2*z3*(z2 - z3) in P^3 with the diagonal field
# diag(-7, 5, 1, 1) * t; its functional is known in closed form.
CUBIC = CompleteIntersectionSpec.create(
    3, [3], [[[1, 2, 0, 0], [0, 0, 2, 1], [0, 0, 1, 2]]])
CUBIC_FIELD = DiagonalField.create([-7, 5, 1, 1], [3])

CUBIC_F = ExpPoly({
    F(-4): LaurentPoly({-2: F(-1, 48)}),
    F(8): LaurentPoly({-2: F(-1, 24)}),
    F(4): LaurentPoly({-2: F(1, 16)}),
})

CUBIC_I00 = ExpPoly({
    F(-7): LaurentPoly({-3: F(-1, 128)}),
    F(5): LaurentPoly({-3: F(1, 32)}),
    F(1): LaurentPoly({-3: F(-3, 128), -2: F(-3, 16)}),
})

CUBIC_I01 = ExpPoly({
    F(-7): LaurentPoly({-3: F(3, 128), -2: F(7, 128)}),
    F(5): LaurentPoly({-3: F(-3, 32), -2: F(5, 32)}),
    F(1): LaurentPoly({-3: F(9, 128), -2: F(45, 128), -1: F(-3, 16)}),
})

# Intersection of the quadrics z0*z1 + z2^2 and z1^2 + z3*z4 in P^4 with
# diag(-7, 3, -2, 5, 1) * t.
QUADRICS = CompleteIntersectionSpec.create(
    4, [2, 2],
    [[[1, 1, 0, 0, 0], [0, 0, 2, 0, 0]], [[0, 2, 0, 0, 0], [0, 0, 0, 1, 1]]])
QUADRICS_FIELD = DiagonalField.create([-7, 3, -2, 5, 1], [-4, 6])

QUADRICS_F = ExpPoly({
    F(-5): LaurentPoly({-2: F(-1, 48)}),
    F(7): LaurentPoly({-2: F(-1, 24)}),
    F(3): LaurentPoly({-2: F(1, 16)}),
})

QUADRICS_I00 = ExpPoly({
    F(-7): LaurentPoly({-4: F(1, 200)}),
    F(3): LaurentPoly({-4: F(-3, 25)}),
    F(-2): LaurentPoly({-4: F(-8, 175)}),
    F(5): LaurentPoly({-4: F(1, 28)}),
    F(1): LaurentPoly({-4: F(1, 8)}),
})

QUADRICS_I01 = ExpPoly({
    F(-7): LaurentPoly({-4: F(-1, 50), -3: F(-7, 200)}),
    F(3): LaurentPoly({-4: F(12, 25), -3: F(-9, 25)}),
    F(-2): LaurentPoly({-4: F(32, 175), -3: F(16, 175)}),
    F(5): LaurentPoly({-4: F(-1, 7), -3: F(5, 28)}),
    F(1): LaurentPoly({-4: F(-1, 2), -3: F(1, 8)}),
})

QUADRICS_I02 = ExpPoly({
    F(-7): LaurentPoly({-4: F(1, 10), -3: F(7, 25), -2: F(49, 200)}),
    F(3): LaurentPoly({-4: F(-12, 5), -3: F(72, 25), -2: F(-27, 25)}),
    F(-2): LaurentPoly({-4: F(-32, 35), -3: F(-128, 175), -2: F(-32, 175)}),
    F(5): LaurentPoly({-4: F(5, 7), -3: F(-10, 7), -2: F(25, 28)}),
    F(1): LaurentPoly({-4: F(5, 2), -3: F(-1), -2: F(1, 8)}),
})

# Fermat cubic surface: its admissible torus is trivial.
FERMAT_CUBIC = CompleteIntersectionSpec.create(
    3, [3], [[[3, 0, 0, 0], [0, 3, 0, 0], [0, 0, 3, 0], [0, 0, 0, 3]]])

# Cubic threefold with support {z0^2 z1, z2 z3 z4} in P^4: its admissible
# torus is three-dimensional.
P4_CUBIC = CompleteIntersectionSpec.create(
    4, [3], [[[2, 1, 0, 0, 0], [0, 0, 1, 1, 1]]])


@pytest.fixture
def cubic():
    return CUBIC, CUBIC_FIELD


@pytest.fixture
def quadrics():
    return QUADRICS, QUADRICS_FIELD


def random_fano(rng, max_dim=9, max_codim=3):
    while True:
        n = rng.randint(2, max_dim)
        s = rng.randint(0, min(max_codim, n))
        degrees = [rng.randint(1, 3) for _ in range(s)]
        if sum(degrees) <= n:
            return CompleteIntersectionSpec.create(n, degrees)


def random_supports(rng, ci, max_monomials):
    """ci with random supports of 1..max_monomials exponent vectors each."""
    width = ci.ambient_dim + 1
    supports = []
    for d in ci.degrees:
        sup = []
        for _ in range(rng.randint(1, max_monomials)):
            mono = [0] * width
            for _ in range(d):
                mono[rng.randrange(width)] += 1
            sup.append(mono)
        supports.append(sup)
    return CompleteIntersectionSpec.create(ci.ambient_dim, list(ci.degrees),
                                           supports)


def constraint_rows(ci):
    """The trace row, and mono - base for each further monomial of a support."""
    rows = [[1] * (ci.ambient_dim + 1)]
    for sup in ci.supports:
        rows += [[a - b for a, b in zip(mono, sup[0])] for mono in sup[1:]]
    return rows


def expand_two_variable(degrees, alphas, one):
    """Expand prod_i (d_i*w + d_i*h - alpha_i) into (w-power, h-power) parts.

    Generic in the coefficient ring, like expand_equivariant_product. Returns
    a map (j, l) -> coefficient with j + l <= len(degrees).
    """
    coeffs = {(0, 0): one}
    for d, alpha in zip(degrees, alphas):
        new = {}

        def _acc(key, val):
            new[key] = new[key] + val if key in new else val

        for (j, l), c in coeffs.items():
            _acc((j + 1, l), d * c)
            _acc((j, l + 1), d * c)
            _acc((j, l), -(alpha * c))
        coeffs = new
    return coeffs


def expand_integrand(ci, field, k, direction=None):
    """Expansion of the first k factors prod_i (d_i*w + d_i*h - a_i*t).

    Returns the (j, l) -> LaurentPoly map of expand_two_variable. With a
    direction, each weight a_i carries its tangent and the coefficients are
    Dual.
    """
    weights = field.weights[:k]
    if direction is None:
        alphas = [LaurentPoly({1: a}) for a in weights]
    else:
        alphas = [LaurentPoly({1: Dual(a, b)})
                  for a, b in zip(weights, direction.weights)]
    return expand_two_variable(ci.degrees[:k], alphas, LaurentPoly({0: F(1)}))


def moments_by_l(n, m, eigenvalues, max_l, tangents=None):
    """The theta-moments I_0..I_max_l, each its own sum over i of DD_i terms."""
    dds = _dd_pow_exp_all(max_l, m, eigenvalues, tangents)
    out = []
    for l in range(max_l + 1):
        total = ExpPoly()
        for i in range(l + 1):
            total = total + dds[i] * LaurentPoly(
                {i - n: _moment_coefficient(n, m, l, i)})
        out.append(total)
    return out


def jl_kappa(n, m, k, j, l):
    """Factor of the (j, l) part against the l-th theta-moment at level k.

    Only the top-degree part of e^(m w) survives against w^j, and the level
    is scaled by (N-k)!/m^(N-k).
    """
    return F(m ** (k - j) * factorial(n - k), factorial(n - j) * m ** l)


def jl_mixed_integral(ci, field, k, direction=None):
    """The level-k integral as the sum over (j, l) of kappa * c_jl * I_l."""
    n, m = ci.ambient_dim, ci.fano_index
    coeffs = expand_integrand(ci, field, k, direction)
    moments = moments_by_l(n, m, field.eigenvalues, max(l for _, l in coeffs),
                           None if direction is None else direction.eigenvalues)
    return sum((moments[l] * c * jl_kappa(n, m, k, j, l)
                for (j, l), c in coeffs.items()), ExpPoly())


def jl_f_function(ci, field):
    """F(V) from the (j, l) assembly of the top-level integral."""
    return _from_top_level(ci, field, jl_mixed_integral(ci, field, ci.codim))
