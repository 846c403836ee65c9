"""Shared golden inputs: two worked varieties with known closed forms."""

from fractions import Fraction as F

import pytest
from hypothesis import settings

from modfutaki import (CompleteIntersectionSpec, DiagonalField, ExpPoly,
                       LaurentPoly)

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
