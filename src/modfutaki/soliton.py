"""Admissible torus of diagonal fields and the candidate soliton field.

The admissible torus is the rational null space of the linear constraints
"traceless" and "<a - a', lambda> = 0 for monomials a, a' in the same
support". On that torus the functional c -> F(sum c_j W_j) is strictly
concave (it is minus an integral of an exponential of a function linear in
c), so the candidate soliton field is its unique maximizer; at the maximizer
every directional derivative Fut_V(W_j) vanishes.

The maximizer is located by Newton iteration with a backtracking line search
from c = 0 (where F = -1 and the map is smooth). Derivatives are exact in the
automatic-differentiation sense, both from the numeric pipeline over Dual
numbers: the gradient entry Fut_V(W_j) from inputs seeded with the tangent
W_j, and the Hessian entry H_ij from a Dual of Duals seeded with W_i and W_j,
one f_numeric call for each of the r(r+1)/2 entries on or above the diagonal.
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


@dataclass(frozen=True)
class CriticalReport:
    values: tuple
    tol: float
    ok: bool


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


def _numeric_weights(ci, lam):
    """Weights of the field with eigenvalues lam, from each support's first monomial."""
    return [sum((a * lam[i] for i, a in enumerate(sup[0]) if a), mpmath.mpf(0))
            for sup in ci.supports]


def _field_data(ci, torus, coefficients):
    """Eigenvalues and weights (numeric) of the combination sum c_j W_j."""
    width = ci.ambient_dim + 1
    lam = [mpmath.mpf(0)] * width
    for c, vec in zip(coefficients, torus.basis):
        for i in range(width):
            lam[i] = lam[i] + c * _to_mpf(vec[i])
    return lam, _numeric_weights(ci, lam)


def _seed(lam, weights, vec, beta):
    """The field (lam, weights) one Dual level deeper, with tangent (vec, beta)."""
    return ([Dual(x, x * 0 + _to_mpf(v)) for x, v in zip(lam, vec)],
            [Dual(w, w * 0 + _to_mpf(b)) for w, b in zip(weights, beta)])


def _gradient(ci, torus, betas, lam, weights, precision_bits):
    """Fut at the field (lam, weights) along every basis direction of the torus."""
    return [f_numeric(ci, *_seed(lam, weights, vec, beta), precision_bits).derivative
            for vec, beta in zip(torus.basis, betas)]


def _value(ci, torus, coefficients, precision_bits):
    return f_numeric(ci, *_field_data(ci, torus, coefficients), precision_bits)


def _hessian(ci, torus, betas, lam, weights, precision_bits):
    """Second derivatives of F at (lam, weights) along the basis directions.

    Entry (i, j) is exact: the derivative-of-derivative slot of f_numeric
    over a Dual of Duals seeded with W_i, then W_j.
    """
    r = torus.dimension
    hess = mpmath.matrix(r, r)
    for i in range(r):
        inner = _seed(lam, weights, torus.basis[i], betas[i])
        for j in range(i, r):
            outer = _seed(*inner, torus.basis[j], betas[j])
            entry = f_numeric(ci, *outer, precision_bits).derivative.derivative
            hess[i, j] = hess[j, i] = entry
    return hess


def find_soliton(ci, tol=1e-10, max_iter=60,
                 precision_bits=DEFAULT_PRECISION_BITS):
    """Maximize F over the admissible torus; gradient entries are Fut_V(W_j).

    Returns the trivial field immediately when the torus is zero-dimensional
    (the classical, unmodified case). Raises NoConvergence when the iteration
    budget runs out or the line search stalls, reporting the last iterate and
    the Newton steps taken.
    """
    ci.check()
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
    tol_mpf = mpmath.mpf(tol)
    with mpmath.workprec(precision_bits + 32):
        coeffs = [mpmath.mpf(0)] * r
        value = _value(ci, torus, coeffs, precision_bits)
        iterations = 0
        while True:
            lam, weights = _field_data(ci, torus, coeffs)
            grad = _gradient(ci, torus, betas, lam, weights, precision_bits)
            gnorm = max(abs(g) for g in grad)
            if gnorm < tol_mpf:
                break
            if iterations >= max_iter:
                raise NoConvergence("no convergence", iterations,
                                    tuple(coeffs), gnorm)
            hess = _hessian(ci, torus, betas, lam, weights, precision_bits)
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
                trial_value = _value(ci, torus, trial, precision_bits)
                if trial_value >= value + _ARMIJO * alpha * slope:
                    break
                alpha = alpha / 2
                if alpha < mpmath.mpf(2) ** (-80):
                    raise NoConvergence("line search stalled", iterations,
                                        tuple(coeffs), gnorm)
            coeffs = trial
            value = trial_value
            iterations += 1

        return SolitonResult(
            trivial=False, coefficients=tuple(coeffs),
            eigenvalues=tuple(lam), weights=tuple(weights),
            gradient=tuple(grad), gradient_norm=gnorm,
            f_value=value, iterations=iterations)


def check_critical(ci, eigenvalues, tol=1e-8,
                   precision_bits=DEFAULT_PRECISION_BITS):
    """Directional derivatives Fut at the given field along every basis direction."""
    ci.check()
    torus = admissible_torus(ci)
    if torus.dimension == 0:
        return CriticalReport(values=(), tol=tol, ok=True)
    betas = [derive_weights(ci, vec) for vec in torus.basis]
    with mpmath.workprec(precision_bits + 32):
        lam = [_to_mpf(x) for x in eigenvalues]
        values = _gradient(ci, torus, betas, lam, _numeric_weights(ci, lam),
                           precision_bits)
        ok = all(abs(v) < mpmath.mpf(tol) for v in values)
    return CriticalReport(values=tuple(values), tol=tol, ok=ok)
