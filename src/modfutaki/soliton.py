"""Admissible torus of diagonal fields and the candidate soliton field.

The admissible torus is the rational null space of the linear constraints
"traceless" and "<a - a', lambda> = 0 for monomials a, a' in the same
support". On that torus the functional c -> F(sum c_j W_j) is strictly
concave (it is minus an integral of an exponential of a function linear in
c), so the candidate soliton field is its unique maximizer; at the maximizer
every directional derivative Fut_V(W_j) vanishes.

The maximizer is located by Newton iteration with a backtracking line search
from c = 0 (where F = -1 and the map is smooth). Each point c is evaluated
once, by the numeric pipeline over a Dual of Duals with the coordinates c_i
and c_j seeded: one f_numeric call for each of the r(r+1)/2 Hessian entries
H_ij on or above the diagonal, the diagonal calls also carrying the gradient
entry Fut_V(W_i) and the value F. All three are exact in the
automatic-differentiation sense. The start point and each line-search trial
cost r(r+1)/2 calls, and an accepted trial's derivatives serve the next step.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import mpmath

from .exactalg import DEFAULT_PRECISION_BITS, Dual, _to_mpf
from .futaki import f_numeric
from .geometry import ValidationError, derive_weights

_ARMIJO = mpmath.mpf("1e-4")


class NoConvergence(RuntimeError):
    """Newton iteration stopped short of the tolerance.

    Either the iteration budget ran out or the line search stalled; in both
    cases iterations counts the Newton steps taken.
    """

    def __init__(self, cause, iterations, coefficients, gradient_norm):
        super().__init__(
            f"{cause} after {iterations} iterations "
            f"(last gradient norm {mpmath.nstr(gradient_norm, 8)})")
        self.iterations = iterations
        self.coefficients = coefficients
        self.gradient_norm = gradient_norm


@dataclass(frozen=True)
class AdmissibleTorus:
    """Rational basis of the space of admissible diagonal fields."""

    basis: tuple

    @property
    def dimension(self):
        return len(self.basis)


@dataclass(frozen=True)
class SolitonResult:
    trivial: bool
    coefficients: tuple
    eigenvalues: tuple
    weights: tuple
    gradient: tuple
    gradient_norm: object
    f_value: object
    iterations: int


def _nullspace_basis(rows, width):
    """Primitive integer basis of the rational null space of the row system."""
    matrix = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for col in range(width):
        pivot = next((i for i in range(r, len(matrix)) if matrix[i][col] != 0), None)
        if pivot is None:
            continue
        matrix[r], matrix[pivot] = matrix[pivot], matrix[r]
        inv = 1 / matrix[r][col]
        matrix[r] = [x * inv for x in matrix[r]]
        for i in range(len(matrix)):
            if i != r and matrix[i][col] != 0:
                factor = matrix[i][col]
                matrix[i] = [a - factor * b for a, b in zip(matrix[i], matrix[r])]
        pivots.append(col)
        r += 1
    free = [c for c in range(width) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * width
        vec[fc] = Fraction(1)
        for row_idx, pc in enumerate(pivots):
            vec[pc] = -matrix[row_idx][fc]
        lcm = 1
        for x in vec:
            lcm = lcm * x.denominator // gcd(lcm, x.denominator)
        ints = [int(x * lcm) for x in vec]
        g = 0
        for v in ints:
            g = gcd(g, abs(v))
        if g > 1:
            ints = [v // g for v in ints]
        basis.append(tuple(Fraction(v) for v in ints))
    return tuple(basis)


def admissible_torus(ci):
    """All traceless eigenvalue vectors consistent with every monomial support."""
    ci.check()
    if ci.supports is None:
        raise ValidationError("the admissible torus requires monomial supports")
    width = ci.ambient_dim + 1
    rows = [[Fraction(1)] * width]
    for sup in ci.supports:
        base = sup[0]
        for mono in sup[1:]:
            rows.append([Fraction(a - b) for a, b in zip(mono, base)])
    return AdmissibleTorus(_nullspace_basis(rows, width))


def _field(torus, betas, coefficients):
    """Eigenvalues and weights of sum_k c_k (vec_k, beta_k); c_k mpf or Duals."""
    def combine(vectors):
        out = []
        for entries in zip(*vectors):
            terms = [c * _to_mpf(x) for c, x in zip(coefficients, entries)]
            out.append(sum(terms[1:], terms[0]))
        return out
    return combine(torus.basis), combine(betas)


def _derivatives(ci, torus, betas, coefficients, bits):
    """F, its gradient (Fut_V(W_i))_i and its Hessian at the coordinates c.

    Entry (i, j) on or above the diagonal costs one f_numeric call, with the
    coordinates seeded as c_k -> Dual(Dual(c_k, [k == i]), Dual([k == j], 0)).
    The result is Dual(Dual(F, D_i F), Dual(D_j F, H_ij)), so the diagonal
    calls give the gradient and every call gives F.
    """
    r = torus.dimension
    one, zero = mpmath.mpf(1), mpmath.mpf(0)
    grad = [None] * r
    hess = mpmath.matrix(r, r)
    for i in range(r):
        for j in range(i, r):
            seeded = [Dual(Dual(c, one if k == i else zero),
                           Dual(one if k == j else zero, zero))
                      for k, c in enumerate(coefficients)]
            out = f_numeric(ci, *_field(torus, betas, seeded), bits)
            hess[i, j] = hess[j, i] = out.derivative.derivative
            if i == j:
                grad[i] = out.value.derivative
    return out.value.value, grad, hess


def find_soliton(ci, tol=1e-10, max_iter=60,
                 precision_bits=DEFAULT_PRECISION_BITS):
    """Maximize F over the admissible torus; gradient entries are Fut_V(W_j).

    Returns the trivial field immediately when the torus is zero-dimensional
    (the classical, unmodified case). Raises ValidationError unless tol is
    finite and positive and max_iter is nonnegative, and NoConvergence when
    the iteration budget runs out or the line search stalls, reporting the
    last iterate and the Newton steps taken.
    """
    ci.check()
    tol_mpf = mpmath.mpf(tol)
    if not (mpmath.isfinite(tol_mpf) and tol_mpf > 0):
        raise ValidationError(f"tolerance must be finite and positive, got {tol}")
    if max_iter < 0:
        raise ValidationError(f"max_iter must be nonnegative, got {max_iter}")
    torus = admissible_torus(ci)
    r = torus.dimension
    width = ci.ambient_dim + 1
    if r == 0:
        zero = mpmath.mpf(0)
        return SolitonResult(
            trivial=True, coefficients=(),
            eigenvalues=(zero,) * width,
            weights=(zero,) * ci.codim,
            gradient=(), gradient_norm=zero,
            f_value=mpmath.mpf(-1), iterations=0)

    betas = [derive_weights(ci, vec) for vec in torus.basis]
    with mpmath.workprec(precision_bits + 32):
        coeffs = [mpmath.mpf(0)] * r
        value, grad, hess = _derivatives(ci, torus, betas, coeffs,
                                         precision_bits)
        iterations = 0
        while True:
            gnorm = max(abs(g) for g in grad)
            if gnorm < tol_mpf:
                break
            if iterations >= max_iter:
                raise NoConvergence("no convergence", iterations,
                                    tuple(coeffs), gnorm)
            try:
                step = mpmath.lu_solve(hess, mpmath.matrix([-g for g in grad]))
                direction = [step[i] for i in range(r)]
            except (ZeroDivisionError, ValueError):
                direction = list(grad)
            slope = mpmath.fsum(g * d for g, d in zip(grad, direction))
            if slope <= 0:
                direction = list(grad)
                slope = mpmath.fsum(g * g for g in grad)
            alpha = mpmath.mpf(1)
            while True:
                trial = [c + alpha * d for c, d in zip(coeffs, direction)]
                trial_value, trial_grad, trial_hess = _derivatives(
                    ci, torus, betas, trial, precision_bits)
                if trial_value >= value + _ARMIJO * alpha * slope:
                    break
                alpha = alpha / 2
                if alpha < mpmath.mpf(2) ** (-80):
                    raise NoConvergence("line search stalled", iterations,
                                        tuple(coeffs), gnorm)
            coeffs, value = trial, trial_value
            grad, hess = trial_grad, trial_hess
            iterations += 1

        lam, weights = _field(torus, betas, coeffs)
        return SolitonResult(
            trivial=False, coefficients=tuple(coeffs),
            eigenvalues=tuple(lam), weights=tuple(weights),
            gradient=tuple(grad), gradient_norm=gnorm,
            f_value=value, iterations=iterations)
