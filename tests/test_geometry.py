"""Geometry input layer: weights, validation, anticanonical degree."""

import random
from fractions import Fraction as F

import pytest

from modfutaki import (CompleteIntersectionSpec, DiagonalField,
                       InconsistentWeights, MalformedSupport, NotFano,
                       NotTraceless, ValidationError, anticanonical_degree,
                       derive_weights, validate)

from conftest import CUBIC, CUBIC_FIELD, QUADRICS, QUADRICS_FIELD


class TestDeriveWeights:
    def test_cubic(self):
        assert derive_weights(CUBIC, CUBIC_FIELD.eigenvalues) == (F(3),)

    def test_quadrics(self):
        assert derive_weights(QUADRICS, QUADRICS_FIELD.eigenvalues) == (F(-4), F(6))

    def test_zero_field(self):
        assert derive_weights(CUBIC, (F(0),) * 4) == (F(0),)
        assert derive_weights(QUADRICS, (F(0),) * 5) == (F(0), F(0))

    def test_inconsistent(self):
        with pytest.raises(InconsistentWeights) as err:
            derive_weights(CUBIC, (F(-7), F(5), F(1), F(2)))
        assert err.value.index == 0

    def test_linearity(self):
        rng = random.Random(11)
        basis = (F(-7), F(5), F(1), F(1))
        for _ in range(5):
            c1 = F(rng.randint(-5, 5), rng.randint(1, 4))
            c2 = F(rng.randint(-5, 5), rng.randint(1, 4))
            lam1 = tuple(c1 * x for x in basis)
            lam2 = tuple(c2 * x for x in basis)
            both = tuple(a + b for a, b in zip(lam1, lam2))
            assert derive_weights(CUBIC, both) == tuple(
                a + b for a, b in zip(derive_weights(CUBIC, lam1),
                                      derive_weights(CUBIC, lam2)))

    def test_rescaling(self):
        for c in (F(2), F(-1), F(1, 3)):
            scaled = CUBIC_FIELD.scaled(c)
            assert derive_weights(CUBIC, scaled.eigenvalues) == scaled.weights


class CountingFraction(F):
    """A Fraction that counts the products it takes part in."""

    products = 0

    def __mul__(self, other):
        CountingFraction.products += 1
        return F(self) * other

    __rmul__ = __mul__


def exponent_vectors(rng, width, degree):
    """A random exponent vector of the given degree in width variables."""
    vec = [0] * width
    for _ in range(degree):
        vec[rng.randrange(width)] += 1
    return tuple(vec)


class TestDeriveWeightsCost:
    """derive_weights sums over the nonzero exponents of each monomial only."""

    def test_equals_the_dense_sum(self):
        rng = random.Random(28)
        for _ in range(30):
            n = rng.randint(2, 12)
            degrees = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
            n = max(n, sum(degrees))
            lam = [F(rng.randint(-2, 2), rng.choice([1, 2, 3])) for _ in range(n + 1)]

            def dense(mono):
                return sum(a * x for a, x in zip(mono, lam))

            supports = []
            for d in degrees:
                # monomials of equal dense weight make a consistent support
                monos = [exponent_vectors(rng, n + 1, d) for _ in range(12)]
                target = dense(monos[0])
                supports.append([list(m) for m in monos if dense(m) == target])
            ci = CompleteIntersectionSpec.create(n, degrees, supports)
            assert derive_weights(ci, lam) == tuple(
                dense(sup[0]) for sup in ci.supports)
            # one monomial of another weight is refused at its support
            bad = [list(sup) for sup in supports]
            extra = next(m for m in (exponent_vectors(rng, n + 1, degrees[-1])
                                     for _ in range(1000))
                         if dense(m) != dense(bad[-1][0]))
            bad[-1].append(list(extra))
            with pytest.raises(InconsistentWeights) as err:
                derive_weights(CompleteIntersectionSpec.create(n, degrees, bad), lam)
            assert err.value.index == len(degrees) - 1

    def test_products_at_most_monomials_times_degree(self):
        rng = random.Random(5)
        n, d = 40, 3
        support = sorted({exponent_vectors(rng, n + 1, d) for _ in range(200)})
        ci = CompleteIntersectionSpec.create(n, [d], [[list(m) for m in support]])
        CountingFraction.products = 0
        assert derive_weights(ci, [CountingFraction(0)] * (n + 1)) == (0,)
        assert 0 < CountingFraction.products <= len(support) * d


class TestValidate:
    def test_cubic_ok(self):
        assert CUBIC.fano_index == 1
        assert validate(CUBIC, CUBIC_FIELD)

    def test_quadrics_ok(self):
        assert QUADRICS.fano_index == 1
        assert validate(QUADRICS, QUADRICS_FIELD)

    def test_not_fano(self):
        with pytest.raises(NotFano):
            CompleteIntersectionSpec.create(3, [4])

    def test_not_traceless(self):
        field = DiagonalField.create([1, 0, 0, 0], [F(1, 3)])
        ci = CompleteIntersectionSpec.create(3, [3])
        with pytest.raises(NotTraceless):
            validate(ci, field)

    def test_weight_mismatch(self):
        field = DiagonalField.create([-7, 5, 1, 1], [4])
        with pytest.raises(InconsistentWeights):
            validate(CUBIC, field)

    def test_malformed_support(self):
        with pytest.raises(MalformedSupport):
            CompleteIntersectionSpec.create(3, [3], [[[1, 2, 0]]])
        with pytest.raises(MalformedSupport):
            CompleteIntersectionSpec.create(3, [3], [[[1, 1, 0, 0]]])

    def test_weights_without_supports_allowed(self):
        ci = CompleteIntersectionSpec.create(3, [2])
        field = DiagonalField.create([2, -1, -1, 0], [F(7, 2)])
        assert validate(ci, field)


class TestConstructionContract:
    # a spec is checked when it is built, so direct construction refuses
    # what create refuses, with the same exception class
    @pytest.mark.parametrize("ambient_dim,degrees,supports,error", [
        (3, (4,), None, NotFano),
        (3, (2, 3), None, NotFano),
        (3, (0,), None, ValidationError),
        (3, (3, -1), None, ValidationError),
        (0, (), None, ValidationError),
        (3, (3,), (), MalformedSupport),
        (3, (3,), (((1, 2, 0, 0),), ((1, 2, 0, 0),)), MalformedSupport),
        (3, (3,), ((),), MalformedSupport),
        (3, (3,), (((1, 2, 0),),), MalformedSupport),
        (3, (3,), (((4, -1, 0, 0),),), MalformedSupport),
        (3, (3,), (((1, 1, 0, 0),),), MalformedSupport),
    ])
    def test_direct_construction_raises_as_create(self, ambient_dim, degrees,
                                                  supports, error):
        with pytest.raises(ValidationError) as direct:
            CompleteIntersectionSpec(ambient_dim, degrees, supports)
        with pytest.raises(ValidationError) as created:
            CompleteIntersectionSpec.create(ambient_dim, degrees, supports)
        assert type(direct.value) is type(created.value) is error

    def test_valid_spec_constructs_directly(self):
        assert CompleteIntersectionSpec(
            3, (3,), (((1, 2, 0, 0), (0, 0, 2, 1), (0, 0, 1, 2)),)) == CUBIC


class TestIntegerFields:
    @pytest.mark.parametrize("ambient_dim,degrees,supports", [
        (True, [1], None),
        (3.5, [3], None),
        (F(7, 2), [3], None),
        (4, [True, 2], None),
        (3, [2.5], None),
        (3, [3], [[[1, 2, 0, 0.5]]]),
        (3, [3], [[[1, 1, True, 0]]]),
        ([3], [3], None),
        # a string or a mapping where a list belongs is iterated no further
        (4, "22", None),
        (3, {"3": 1}, None),
        (2, [2], [["110", "002"]]),
        (2, [2], [{"110": 1, "002": 1}]),
    ])
    def test_rejected(self, ambient_dim, degrees, supports):
        with pytest.raises(ValidationError):
            CompleteIntersectionSpec.create(ambient_dim, degrees, supports)

    def test_integral_numbers_accepted(self):
        assert CompleteIntersectionSpec.create(3.0, [F(3)]) == \
            CompleteIntersectionSpec.create(3, [3])


class TestAnticanonicalDegree:
    def test_cubic(self):
        assert anticanonical_degree(CUBIC) == 3

    def test_quadrics(self):
        assert anticanonical_degree(QUADRICS) == 4

    def test_plane(self):
        assert anticanonical_degree(CompleteIntersectionSpec.create(2, [])) == 9
