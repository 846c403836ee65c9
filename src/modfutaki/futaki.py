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
bidiagonal evaluator and accepts arbitrary real eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import mpmath

from .exactalg import (DEFAULT_PRECISION_BITS, Dual, LaurentPoly, _to_mpf,
                       primal, scalar_exp)
from .geometry import InadmissibleDirection, ValidationError, validate
from .localization import (expand_equivariant_product, i0l_numeric_all,
                           mixed_integral)

_NUMERIC_GUARD_BITS = 64
_MAX_NUMERIC_RETRIES = 3


@dataclass(frozen=True)
class EquivMixedPoly:
    """Expansion of the equivariant integrand by (w-power, h-power).

    coefficients maps (j, l) with j + l <= s to a Laurent polynomial in t of
    degree at most s - j - l; the empty product is the constant 1.
    """

    coefficients: dict

    def coefficient(self, j, l):
        return self.coefficients.get((j, l), LaurentPoly.zero())


def expand_integrand(ci, field):
    """Exact expansion of prod_i (d_i*w + d_i*h - a_i*t)."""
    validate(ci, field)
    alphas = [LaurentPoly.t_power(1, a) for a in field.weights]
    coeffs = expand_equivariant_product(ci.degrees, alphas, LaurentPoly.one())
    return EquivMixedPoly({k: v for k, v in coeffs.items() if not v.is_zero()})


def _normalization(ci):
    """(N-s)! / (d_1..d_s m^(N-s)), the inverse anticanonical volume factor."""
    n, s, m = ci.ambient_dim, ci.codim, ci.fano_index
    den = m ** (n - s)
    for d in ci.degrees:
        den *= d
    return Fraction(factorial(n - s), den)


def _symbolic_pipeline(ci, eigenvalues, weights, eig_tangents=None,
                       weight_tangents=None):
    """Shared exact assembly of F; Dual coefficients when tangents are given."""
    n, m = ci.ambient_dim, ci.fano_index
    dual = eig_tangents is not None
    if dual:
        alphas = [LaurentPoly.t_power(1, Dual(a, b))
                  for a, b in zip(weights, weight_tangents)]
    else:
        alphas = [LaurentPoly.t_power(1, a) for a in weights]
    coeffs = expand_equivariant_product(ci.degrees, alphas, LaurentPoly.one())
    bridge = mixed_integral(coeffs, n, m, eigenvalues, eig_tangents)
    shifted = bridge.shift_frequency(sum(weights, Fraction(0)))
    if dual:
        beta_sum = sum(weight_tangents, Fraction(0))
        # d/ds exp((a + s b) t) = b t exp(a t): the frequency tangent
        shifted = shifted.mul_laurent(LaurentPoly(
            {0: Dual(Fraction(1), Fraction(0)), 1: Dual(Fraction(0), beta_sum)}))
    return shifted.mul_scalar(-_normalization(ci))


def f_function(ci, field):
    """F(V) as an exact exponential polynomial in t; F(0) = -1."""
    validate(ci, field)
    return _symbolic_pipeline(ci, field.eigenvalues, field.weights)


def f_function_via_recursion(ci, field):
    """F(V) built only through the level-by-level recursion from level zero.

    Independent of the integrand-expansion route: the top-level integral is
    produced by repeatedly applying
      I_k = (d_k - m a_k t/(N-k+1)) I_(k-1) + (d_k/(N-k+1)) t dI_(k-1)/dt
    and F is -exp(sum a_i t) I_s / (d_1..d_s).
    """
    from .localization import i0l_symbolic

    validate(ci, field)
    n, m = ci.ambient_dim, ci.fano_index
    level = i0l_symbolic(n, m, field.eigenvalues, 0)
    for k in range(1, ci.codim + 1):
        d_k = ci.degrees[k - 1]
        a_k = field.weights[k - 1]
        level = level.mul_laurent(LaurentPoly(
            {0: Fraction(d_k), 1: -Fraction(m) * a_k / (n - k + 1)})) \
            + level.t_derivative().mul_laurent(
                LaurentPoly.t_power(1, Fraction(d_k, n - k + 1)))
    den = 1
    for d in ci.degrees:
        den *= d
    shift = sum(field.weights, Fraction(0))
    return level.shift_frequency(shift).mul_scalar(Fraction(-1, den))


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
    dual_f = _symbolic_pipeline(
        ci, field.eigenvalues, field.weights,
        eig_tangents=direction.eigenvalues, weight_tangents=direction.weights)
    return dual_f.dual_parts()[1]


def f_numeric(ci, eigenvalues, weights, precision_bits=DEFAULT_PRECISION_BITS):
    """F at real eigenvalues/weights (the t-scale absorbed into them).

    Mirrors the exact assembly with the bidiagonal divided-difference
    evaluator, so clustered or coincident eigenvalues lose no accuracy. The
    inputs may be Fractions, mpmath floats, or Dual numbers over mpmath
    floats (in which case the result carries the directional derivative).
    """
    ci.check()
    n, s, m = ci.ambient_dim, ci.codim, ci.fano_index
    if len(eigenvalues) != n + 1:
        raise ValidationError(
            f"expected {n + 1} eigenvalues, got {len(eigenvalues)}")
    if len(weights) != s:
        raise ValidationError(f"expected {s} weights, got {len(weights)}")

    guard = _NUMERIC_GUARD_BITS
    result = None
    for _ in range(_MAX_NUMERIC_RETRIES):
        with mpmath.workprec(precision_bits + guard):
            lam = [_to_mpf(x) for x in eigenvalues]
            alph = [_to_mpf(x) for x in weights]
            one = mpmath.mpf(1)
            dual = any(isinstance(x, Dual) for x in lam + alph)
            if dual:
                # every scalar a Dual, so that no mpf ever stands left of a Dual
                lam = [Dual.lift(x) for x in lam]
                alph = [Dual.lift(x) for x in alph]
                one = Dual(one, mpmath.mpf(0))
            coeffs = expand_equivariant_product(ci.degrees, alph, one)
            moments = i0l_numeric_all(n, m, lam, s, precision_bits + guard)
            pieces = []
            for (j, l), c in coeffs.items():
                kappa = Fraction(m ** (n - j), factorial(n - j) * m ** l)
                pieces.append(c * _to_mpf(kappa) * moments[l])
            total = mpmath.fsum(primal(p) for p in pieces)
            shift = sum(alph[1:], alph[0]) if alph else mpmath.mpf(0)
            prefactor = scalar_exp(shift) * -_to_mpf(_normalization(ci))
            if dual:
                tang = mpmath.fsum(p.derivative for p in pieces)
                result = Dual(total, tang) * prefactor
            else:
                result = prefactor * total
            top = max((abs(primal(p)) for p in pieces), default=mpmath.mpf(0))
            bottom = abs(total)
            if bottom > 0 and top > 0:
                cancel = max(0, int(mpmath.log(top / bottom, 2)) + 1)
            else:
                cancel = 0
        if cancel + 16 <= guard:
            return result
        guard = cancel + _NUMERIC_GUARD_BITS
    return result
