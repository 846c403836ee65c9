"""Fano complete intersections in projective space and diagonal vector fields.

The combinatorial input is (N, d_1..d_s) plus, optionally, the monomial
supports of the defining polynomials. Coefficients of the defining
polynomials are never stored: every computed quantity depends only on the
degrees, the eigenvalue vector of the diagonal field, and the weights it
induces on each defining polynomial, and the weights are determined by the
supports alone. Each CompleteIntersectionSpec is checked when constructed.
Whether the chosen polynomials actually cut out a variety of the expected
dimension with log terminal singularities is the caller's responsibility; it
is not decidable from supports.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class ValidationError(ValueError):
    """Base class for input-validation failures; `code` is a stable machine tag."""

    code = "invalid_input"


class NotFano(ValidationError):
    code = "not_fano"


class NotTraceless(ValidationError):
    code = "not_traceless"


class MalformedSupport(ValidationError):
    code = "malformed_support"


class InconsistentWeights(ValidationError):
    code = "inconsistent_weights"

    def __init__(self, index, message):
        super().__init__(message)
        self.index = index


class InadmissibleDirection(ValidationError):
    code = "inadmissible_direction"


def _integer(x, what):
    """x as an int; booleans and non-integral numbers are rejected."""
    try:
        value = int(x)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{what} must be an integer, got {x!r}") from exc
    if isinstance(x, bool) or (not isinstance(x, str) and value != x):
        raise ValidationError(f"{what} must be an integer, got {x!r}")
    return value


def _items(x, what):
    """x when it is a list or a tuple; a string or a mapping is refused."""
    if not isinstance(x, (list, tuple)):
        raise ValidationError(f"{what} must be a list, got {x!r}")
    return x


@dataclass(frozen=True)
class CompleteIntersectionSpec:
    """An (N-s)-dimensional complete intersection of degrees d_1..d_s in P^N.

    supports[i], when given, lists the exponent vectors of the monomials of
    the i-th defining polynomial (length N+1, nonnegative, summing to d_i).
    Construction checks this (MalformedSupport), N >= 1 and d_i >= 1
    (ValidationError) and m = N + 1 - sum d_i >= 1 (NotFano).
    """

    ambient_dim: int
    degrees: tuple
    supports: tuple | None = None

    @classmethod
    def create(cls, ambient_dim, degrees, supports=None):
        degrees = tuple(_integer(d, "degree")
                        for d in _items(degrees, "degrees"))
        if supports is not None:
            supports = tuple(
                tuple(tuple(_integer(a, "support exponent")
                            for a in _items(mono, "exponent vector"))
                      for mono in _items(sup, "support"))
                for sup in _items(supports, "supports")
            )
        return cls(_integer(ambient_dim, "ambient dimension"), degrees, supports)

    @property
    def codim(self):
        return len(self.degrees)

    @property
    def fano_index(self):
        return self.ambient_dim + 1 - sum(self.degrees)

    def __post_init__(self):
        n = self.ambient_dim
        if n < 1:
            raise ValidationError(f"ambient dimension must be >= 1, got {n}")
        for d in self.degrees:
            if d < 1:
                raise ValidationError(f"degrees must be >= 1, got {d}")
        if self.fano_index < 1:
            raise NotFano(
                f"fano index m = {n}+1-{sum(self.degrees)} = {self.fano_index} "
                "is not positive")
        if self.supports is not None:
            if len(self.supports) != self.codim:
                raise MalformedSupport(
                    f"expected {self.codim} supports, got {len(self.supports)}")
            for i, sup in enumerate(self.supports):
                if not sup:
                    raise MalformedSupport(f"support {i} is empty")
                for mono in sup:
                    if len(mono) != n + 1:
                        raise MalformedSupport(
                            f"support {i}: exponent vector {mono} has length "
                            f"{len(mono)}, expected {n + 1}")
                    if any(a < 0 for a in mono):
                        raise MalformedSupport(
                            f"support {i}: negative exponent in {mono}")
                    if sum(mono) != self.degrees[i]:
                        raise MalformedSupport(
                            f"support {i}: {mono} has degree {sum(mono)}, "
                            f"expected {self.degrees[i]}")


@dataclass(frozen=True)
class DiagonalField:
    """Traceless diagonal field diag(r_0 t, ..., r_N t) with weights a_i t.

    eigenvalues holds the rational coefficients r_i; weights holds the
    rational coefficients a_i of the eigenvalue of the field acting on each
    defining polynomial.
    """

    eigenvalues: tuple
    weights: tuple = ()

    @classmethod
    def create(cls, eigenvalues, weights=()):
        return cls(tuple(Fraction(x) for x in eigenvalues),
                   tuple(Fraction(x) for x in weights))

    @classmethod
    def zero(cls, ci):
        return cls((Fraction(0),) * (ci.ambient_dim + 1),
                   (Fraction(0),) * ci.codim)

    def scaled(self, c):
        c = Fraction(c)
        return DiagonalField(tuple(c * r for r in self.eigenvalues),
                             tuple(c * a for a in self.weights))

    def is_zero(self):
        return not any(self.eigenvalues) and not any(self.weights)


def derive_weights(ci, eigenvalues):
    """Weights a_i with <a, lambda> identical across each monomial support.

    Raises InconsistentWeights(i) when two monomials of the i-th polynomial
    pair differently with the eigenvalue vector, i.e. the field is not
    tangent to the intersection in the required sense.
    """
    if ci.supports is None:
        raise ValidationError("weights can only be derived when supports are given")
    eigenvalues = tuple(eigenvalues)
    if len(eigenvalues) != ci.ambient_dim + 1:
        raise ValidationError(
            f"expected {ci.ambient_dim + 1} eigenvalues, got {len(eigenvalues)}")
    out = []
    for i, sup in enumerate(ci.supports):
        vals = [sum(a * x for a, x in zip(mono, eigenvalues) if a) for mono in sup]
        first = vals[0]
        for mono, v in zip(sup, vals):
            if v != first:
                raise InconsistentWeights(
                    i,
                    f"support {i}: monomial {mono} has weight {v}, "
                    f"expected {first}")
        out.append(first)
    return tuple(out)


def validate(ci, field):
    """Check every structural invariant of the pair; raises on the first failure."""
    n = ci.ambient_dim
    if len(field.eigenvalues) != n + 1:
        raise ValidationError(
            f"expected {n + 1} eigenvalues, got {len(field.eigenvalues)}")
    if len(field.weights) != ci.codim:
        raise ValidationError(
            f"expected {ci.codim} weights, got {len(field.weights)}")
    if sum(field.eigenvalues) != 0:
        raise NotTraceless(
            f"eigenvalues sum to {sum(field.eigenvalues)}, not 0")
    if ci.supports is not None:
        derived = derive_weights(ci, field.eigenvalues)
        if derived != tuple(field.weights):
            raise InconsistentWeights(
                None,
                f"given weights {tuple(field.weights)} differ from "
                f"support-derived weights {derived}")
    return True


def anticanonical_degree(ci):
    """Top self-intersection of the anticanonical class: d_1...d_s * m^(N-s)."""
    out = ci.fano_index ** (ci.ambient_dim - ci.codim)
    for d in ci.degrees:
        out *= d
    return out
