"""The Tian-Zhu functional F(V) and its Gateaux differential Fut_V(W).

F(V) is assembled exactly by expanding the equivariant integrand
prod_i (d_i*w + d_i*h - a_i*t), pushing each (w-power, h-power) component
through the theta-moment integrals over projective space, applying the
exp(sum a_i t) frequency shift, and scaling by -(N-s)!/(d_1..d_s m^(N-s)).

The modified Futaki invariant is the directional derivative of F and is
computed by running this same pipeline over dual-number scalars: each
eigenvalue r_i picks up the direction's tangent in its eps slot and each
weight a_i likewise; tangents of frequencies materialize as extra factors of
t. The numeric twin of the pipeline replaces exact divided differences by the
bidiagonal evaluator and accepts arbitrary real eigenvalues; its final sum
starts with a 64-bit guard and is checked by the shared rule of
exactalg.guarded, the only guard on that path: the kernel runs at the guarded
precision plus what its own squarings lose.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod

import mpmath

from .exactalg import (DEFAULT_PRECISION_BITS, Dual, LaurentPoly, _to_mpf,
                       guarded, scalar_exp)
from .geometry import InadmissibleDirection, ValidationError, validate
from .localization import (_integrand, expand_equivariant_product,
                           i0l_numeric_all, i0l_symbolic, mixed_integral,
                           recursion_step)


def expand_integrand(ci, field):
    """Exact expansion of prod_i (d_i*w + d_i*h - a_i*t) by (w-power, h-power).

    Maps (j, l) with j + l <= s to a nonzero Laurent polynomial in t of degree
    at most s - j - l; the empty product is {(0, 0): 1}.
    """
    validate(ci, field)
    coeffs = _integrand(ci, field, ci.codim)
    return {key: c for key, c in coeffs.items() if not c.is_zero()}


def _normalization(ci):
    """(N-s)! / (d_1..d_s m^(N-s)), the inverse anticanonical volume factor."""
    n, s, m = ci.ambient_dim, ci.codim, ci.fano_index
    return Fraction(factorial(n - s), prod(ci.degrees) * m ** (n - s))


def _from_top_level(ci, field, top):
    """F = -exp(sum a_i t) I_s / (d_1..d_s) from the top-level integral I_s."""
    shifted = top.shift_frequency(sum(field.weights, Fraction(0)))
    return shifted.mul_scalar(Fraction(-1, prod(ci.degrees)))


def f_function(ci, field):
    """F(V) as an exact exponential polynomial in t; F(0) = -1."""
    validate(ci, field)
    return _from_top_level(ci, field, mixed_integral(ci, field, ci.codim))


def f_function_via_recursion(ci, field):
    """F(V) built only through the level-by-level recursion from level zero.

    Independent of the integrand-expansion route: the top-level integral is
    produced from the level-zero moment by repeated recursion_step.
    """
    validate(ci, field)
    level = i0l_symbolic(ci.ambient_dim, ci.fano_index, field.eigenvalues, 0)
    for k in range(1, ci.codim + 1):
        level = recursion_step(ci, field, k, level)
    return _from_top_level(ci, field, level)


def fut_derivative(ci, field, direction):
    """Modified Futaki invariant Fut_V(W) as an exact exponential polynomial.

    direction must itself be admissible: traceless and, when supports are
    present, weight-consistent with them. V and W commute automatically since
    both are diagonal.
    """
    validate(ci, field)
    try:
        validate(ci, direction)
    except ValidationError as exc:
        raise InadmissibleDirection(f"direction is not admissible: {exc}") from exc
    top = mixed_integral(ci, field, ci.codim, direction)
    # d/ds exp((a + s b) t) = b t exp(a t): the frequency tangent
    beta_sum = sum(direction.weights, Fraction(0))
    top = top.mul_laurent(LaurentPoly(
        {0: Dual(Fraction(1), Fraction(0)), 1: Dual(Fraction(0), beta_sum)}))
    return _from_top_level(ci, field, top).dual_parts()[1]


def _depth(x):
    """How deeply Duals nest in x along the value slots; 0 for a plain scalar."""
    return 1 + _depth(x.value) if isinstance(x, Dual) else 0


def _fsum(xs):
    """mpmath.fsum, slot by slot over Duals of any depth."""
    xs = list(xs)
    if xs and isinstance(xs[0], Dual):
        return Dual(_fsum(x.value for x in xs), _fsum(x.derivative for x in xs))
    return mpmath.fsum(xs)


def f_numeric(ci, eigenvalues, weights, precision_bits=DEFAULT_PRECISION_BITS):
    """F at real eigenvalues/weights (the t-scale absorbed into them).

    Mirrors the exact assembly with the bidiagonal divided-difference
    evaluator, so clustered or coincident eigenvalues lose no accuracy. The
    inputs may be Fractions, mpmath floats, or Dual numbers over mpmath
    floats, in which case the result is a Dual whose derivative slot holds
    the directional derivative along the tangents. Duals may nest, all Dual
    inputs at one depth (else ValidationError), and plain inputs are lifted
    to that depth: seeded as Dual(Dual(x, u), Dual(v, 0)), the result is
    Dual(Dual(F, D_u F), Dual(D_v F, D_u D_v F)), so that
    result.derivative.derivative is the second derivative along u and v.
    """
    ci.check()
    n, s, m = ci.ambient_dim, ci.codim, ci.fano_index
    if len(eigenvalues) != n + 1:
        raise ValidationError(
            f"expected {n + 1} eigenvalues, got {len(eigenvalues)}")
    if len(weights) != s:
        raise ValidationError(f"expected {s} weights, got {len(weights)}")
    depths = {_depth(x) for x in (*eigenvalues, *weights) if isinstance(x, Dual)}
    if len(depths) > 1:
        raise ValidationError(f"Dual inputs of mixed depths {sorted(depths)}")
    depth = max(depths, default=0)

    def lifted(x):
        # every scalar at one depth, so that no mpf ever stands left of a Dual
        x = _to_mpf(x)
        for _ in range(depth - _depth(x)):
            x = Dual(x, x * 0)
        return x

    def compute(work_bits):
        lam = [lifted(x) for x in eigenvalues]
        alph = [lifted(x) for x in weights]
        one = lam[0] ** 0
        coeffs = expand_equivariant_product(ci.degrees, alph, one)
        moments = i0l_numeric_all(n, m, lam, s, work_bits)
        pieces = []
        for (j, l), c in coeffs.items():
            kappa = Fraction(m ** (n - j), factorial(n - j) * m ** l)
            pieces.append(c * _to_mpf(kappa) * moments[l])
        prefactor = scalar_exp(sum(alph, one * 0)) * -_to_mpf(_normalization(ci))
        return prefactor * _fsum(pieces), pieces

    return guarded(compute, precision_bits, 64)
