"""The Tian-Zhu functional F(V) and its Gateaux differential Fut_V(W).

F(V) = -exp(sum a_i t) I_s / (d_1..d_s), and the top-level integral I_s is
one divided difference over the eigenvalues: the coefficients g_i of
g(x) = prod_i (d_i x - a_i) weight DD(x^i exp(m t x)), scaled by
(N-s)!/m^(N-s) t^(s-N) (localization.mixed_integral).

The modified Futaki invariant is the directional derivative of F and is
computed by running this same pipeline over dual-number scalars: each
eigenvalue r_i picks up the direction's tangent in its eps slot and each
weight a_i likewise; tangents of frequencies materialize as extra factors of
t. The numeric twin of the pipeline replaces exact divided differences by the
bidiagonal evaluator and accepts arbitrary real eigenvalues. Its sum starts
with a 64-bit guard checked by exactalg.guarded, the one guard on its path,
and the kernel runs at the guarded precision plus what its squarings lose.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod

import mpmath

from .exactalg import (DEFAULT_PRECISION_BITS, Dual, LaurentPoly, _to_mpf,
                       guarded, scalar_exp, slotwise)
from .geometry import (InadmissibleDirection, ValidationError,
                       anticanonical_degree, validate)
from .localization import (expand_equivariant_product, i0l_symbolic,
                           mixed_integral, recursion_step)
# the benchmark's tracer times the numeric kernel under this name
from .localization import _dd_numeric_multi as i0l_numeric_all


def _from_top_level(ci, field, top):
    """F = -exp(sum a_i t) I_s / (d_1..d_s) from the top-level integral I_s."""
    shifted = top.shift_frequency(sum(field.weights, Fraction(0)))
    return shifted * Fraction(-1, prod(ci.degrees))


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
    top = top * LaurentPoly(
        {0: Dual(Fraction(1), Fraction(0)), 1: Dual(Fraction(0), beta_sum)})
    return _from_top_level(ci, field, top).dual_parts()[1]


def _depth(x):
    """How deeply Duals nest in x along the value slots; 0 for a plain scalar."""
    return 1 + _depth(x.value) if isinstance(x, Dual) else 0


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
        one = lifted(1)
        g = expand_equivariant_product(ci.degrees, alph, one)
        dds = i0l_numeric_all(s, m, lam, work_bits)
        pieces = [gi * dd for gi, dd in zip(g, dds)]
        volume = Fraction(factorial(n - s), anticanonical_degree(ci))
        prefactor = scalar_exp(sum(alph, one * 0)) * -_to_mpf(volume)
        return prefactor * slotwise(lambda *xs: mpmath.fsum(xs), *pieces), pieces

    return guarded(compute, precision_bits, 64)
