"""Equivariant integrals over projective space via fixed-point localization.

The exact pipeline reduces every integral to confluent divided differences of
x -> x^i * exp(m*t*x) over the eigenvalue multiset, computed in closed form by
local series expansion at each distinct node (the residue form of the Hermite
divided difference). Results are exponential polynomials in t.

The numeric pipeline evaluates divided differences through the bidiagonal
node-matrix representation (nodes on the diagonal, ones above it; the divided
difference is the top-right entry of the matrix function), which is stable for
clustered and coincident nodes where the Lagrange form cancels catastrophically.
For n nodes the kernel never forms a dense product: each Taylor (Horner) step
multiplies by the bidiagonal matrix, O(n^2); each squaring multiplies upper
triangular matrices, about n^3/6 products, and the last forms only the last
column, O(n^2); each further power x^i costs O(n). Callers bound the size of
the work: the command line accepts 64..4096 bits of precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

import mpmath

from .exactalg import (DEFAULT_PRECISION_BITS, Dual, ExpPoly, LaurentPoly,
                       _to_mpf, primal)
from .geometry import validate


@dataclass(frozen=True)
class NodeMultiset:
    """Distinct node values with multiplicities, in increasing order."""

    values: tuple
    multiplicities: tuple

    @classmethod
    def from_nodes(cls, nodes):
        groups = {}
        for x in nodes:
            x = Fraction(x)
            groups[x] = groups.get(x, 0) + 1
        values = tuple(sorted(groups))
        return cls(values, tuple(groups[v] for v in values))

    @property
    def total(self):
        return sum(self.multiplicities)


def _series_mul(a, b, order):
    """Truncated product of two coefficient sequences (index 0..order)."""
    out = [Fraction(0)] * (order + 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j in range(min(order - i, len(b) - 1) + 1):
            if b[j]:
                out[i + j] = out[i + j] + ai * b[j]
    return out


def _dd_pow_exp_all(max_power, m, nodes, tangents=None):
    """Divided differences DD(x^i * exp(m*t*x); nodes) for i = 0..max_power.

    Each value is an ExpPoly in t with frequencies m*r over the distinct node
    values r. With `tangents`, first-order node perturbations are carried
    through and the results have Dual coefficients; within a block of equal
    nodes only the sum of the tangents enters (eps^2 = 0), so directions that
    split a repeated eigenvalue are differentiated exactly.
    """
    nodes = [Fraction(x) for x in nodes]
    n = len(nodes)
    dual = tangents is not None
    if dual:
        tangents = [Fraction(x) for x in tangents]
        if len(tangents) != n:
            raise ValueError("one tangent per node is required")

    blocks = {}
    for idx, r in enumerate(nodes):
        blocks.setdefault(r, []).append(idx)

    results = [dict() for _ in range(max_power + 1)]
    for r in sorted(blocks):
        idxs = blocks[r]
        mult = len(idxs)
        tangent_sum = sum(tangents[i] for i in idxs) if dual else Fraction(0)
        order = mult if dual else mult - 1

        # prod over nodes outside the block of 1/(z - x_j), expanded at z = r
        g = [Fraction(1)] + [Fraction(0)] * order
        for r2 in sorted(blocks):
            if r2 == r:
                continue
            for j in blocks[r2]:
                delta = r2 - r
                if dual:
                    delta = Dual(delta, tangents[j])
                inv = 1 / delta
                fac = [-(inv ** (w + 1)) for w in range(order + 1)]
                g = _series_mul(g, fac, order)

        freq = Fraction(m) * r
        for i in range(max_power + 1):
            pw = [comb(i, w) * r ** (i - w) for w in range(min(i, order) + 1)]
            gi = _series_mul(g, pw, order)
            coeffs = {}
            top = mult if dual else mult - 1
            for j in range(top + 1):
                scale = Fraction(m ** j, factorial(j))
                base = gi[mult - 1 - j] if j <= mult - 1 else Fraction(0)
                if dual:
                    extra = tangent_sum * primal(gi[mult - j])
                    c = Dual(primal(base), (base.derivative if isinstance(base, Dual)
                                            else Fraction(0)) + extra) * scale
                else:
                    c = base * scale
                if c:
                    coeffs[j] = c
            if coeffs:
                lp = LaurentPoly(coeffs)
                results[i][freq] = results[i][freq] + lp if freq in results[i] else lp
    return [ExpPoly(res) for res in results]


def _i0l_from_dds(ambient_dim, m, dds, l):
    """Assemble the l-th theta-moment integral from divided differences.

    An N-th antiderivative of x^l e^(m x) is the l-th m-derivative of
    e^(m x)/m^N; integrating picks up the correction terms below, and the
    node rescaling by t contributes t^(i-N).
    """
    total = ExpPoly.zero()
    for i in range(l + 1):
        c = _moment_coefficient(ambient_dim, m, l, i)
        total = total + dds[i].mul_laurent(LaurentPoly.t_power(i - ambient_dim, c))
    return total


def _moment_coefficient(n, m, l, i):
    """Factor of DD(x^i e^(m x)) in the l-th theta-moment over P^n."""
    return Fraction(
        comb(l, i) * (-1) ** (l - i) * factorial(n + l - i - 1) * factorial(n),
        factorial(n - 1),
    ) * Fraction(m) ** (i - n)


def i0l_symbolic(ambient_dim, m, eigenvalues, l, tangents=None):
    """Exact value of m^l * integral of theta^l e^(m theta) omega^N over P^N.

    eigenvalues are the rational coefficients r_i of the diagonal field
    diag(r_0 t, .., r_N t); repeats are allowed (confluent nodes). The result
    is an ExpPoly with frequencies m*r_i and Laurent exponents down to -N.
    """
    eigenvalues = tuple(eigenvalues)
    if len(eigenvalues) != ambient_dim + 1:
        raise ValueError(
            f"expected {ambient_dim + 1} eigenvalues, got {len(eigenvalues)}")
    if l < 0:
        raise ValueError("the moment order l must be nonnegative")
    dds = _dd_pow_exp_all(l, m, eigenvalues, tangents)
    return _i0l_from_dds(ambient_dim, m, dds, l)


def _mag(x):
    """Submultiplicative magnitude; for duals |value| + |derivative|."""
    if isinstance(x, Dual):
        return abs(x.value) + abs(x.derivative)
    return abs(x)


def _expm_last_column(diag, sup, precision_bits):
    """Last column of exp(B) for the upper bidiagonal B = diag(diag) + sup*J.

    J has ones just above the diagonal, and the diag entries are all Dual or
    all mpf. Scaling and squaring: B/2^sigma has row-sum norm at most 1/2,
    and the Taylor degree is chosen so the truncation bound holds at the
    working precision. Upper-triangular matrices are stored by rows from the
    diagonal on (row i holds columns i..n-1). Each Horner step multiplies by
    the bidiagonal B, O(n^2); each squaring multiplies upper-triangular
    matrices, O(n^3/6), and the last one forms only the last column, O(n^2).
    A Dual factor always stands left of an mpf one: mpf * Dual would have
    mpmath format the Dual for an error message before deferring to it.
    """
    n = len(diag)
    norm = max(_mag(d) + _mag(sup) if i + 1 < n else _mag(d)
               for i, d in enumerate(diag))
    sigma = 0
    while norm > mpmath.mpf("0.5"):
        norm = norm / 2
        sigma += 1
    scale = mpmath.mpf(2) ** (-sigma)
    diag = [d * scale for d in diag]
    sup = sup * scale

    # tail of sum_{j>J} (1/2)^j / j! is below 2*(1/2)^(J+1)/(J+1)!
    degree = 1
    tail = mpmath.mpf(1)
    target = mpmath.mpf(2) ** (-(precision_bits + 8))
    while tail > target:
        degree += 1
        tail = 2 * mpmath.mpf(2) ** (-(degree + 1)) / factorial(degree + 1)

    one = mpmath.mpf(1)
    out = [[one] + [mpmath.mpf(0)] * (n - 1 - i) for i in range(n)]
    for j in range(degree, 0, -1):
        inv = one / j
        # row i of (B @ out / j + I), from rows i and i+1 of out
        out = [[d * row[0] * inv + one]
               + [(d * row[k] + below[k - 1] * sup) * inv for k in range(1, len(row))]
               for d, row, below in zip(diag, out, out[1:] + [None])]

    def square_entry(a, i, k):
        row = a[i]
        return sum((row[j - i] * a[j][k - j] for j in range(i + 1, k + 1)),
                   row[0] * row[k - i])

    for _ in range(sigma - 1):
        out = [[square_entry(out, i, k) for k in range(i, n)] for i in range(n)]
    if sigma:
        return [square_entry(out, i, n - 1) for i in range(n)]
    return [row[-1] for row in out]


def _dd_numeric_multi(max_power, m, nodes, precision_bits):
    """DD(x^i e^(m x); nodes) for i = 0..max_power, one matrix exponential.

    With Z the node matrix, the i-th divided difference is the top entry of
    Z^i exp(m Z) e_n. The exponential is taken of m (Z - c) around the node
    mean c, and the powers follow from the recurrence col <- Z col, O(n) each.
    """
    n = len(nodes)
    norm_guess = 1 + abs(m) * max(float(abs(_to_mpf(primal(x)))) for x in nodes)
    sigma_guess = max(0, int(mpmath.log(norm_guess, 2)) + 2)
    work = precision_bits + 64 + 2 * sigma_guess
    with mpmath.workprec(work):
        xs = [_to_mpf(x) for x in nodes]
        if any(isinstance(x, Dual) for x in xs):
            xs = [Dual.lift(x) for x in xs]
        center = mpmath.fsum(primal(x) for x in xs) / n
        mm = _to_mpf(m)
        front = mpmath.exp(mm * center)
        col = [c * front
               for c in _expm_last_column([(x - center) * mm for x in xs], mm, work)]
        out = [col[0]]
        for _ in range(max_power):
            col = [x * c + below for x, c, below in zip(xs, col, col[1:])] \
                + [xs[-1] * col[-1]]
            out.append(col[0])
        return out


def dd_numeric(l, m, nodes, precision_bits=DEFAULT_PRECISION_BITS):
    """Divided difference of x -> x^l e^(m x) over real nodes.

    Permutation invariant and stable for coincident or clustered nodes; the
    naive Lagrange sum is never formed.
    """
    return _dd_numeric_multi(l, m, list(nodes), precision_bits)[l]


def i0l_numeric_all(ambient_dim, m, eigenvalues, max_l, precision_bits):
    """Numeric theta-moment integrals for l = 0..max_l at real eigenvalues."""
    dds = _dd_numeric_multi(max_l, m, list(eigenvalues), precision_bits)
    out = []
    with mpmath.workprec(precision_bits + 32):
        for l in range(max_l + 1):
            terms = [dds[i] * _to_mpf(_moment_coefficient(ambient_dim, m, l, i))
                     for i in range(l + 1)]
            out.append(sum(terms[1:], terms[0]))
    return out


def expand_equivariant_product(degrees, alphas, one):
    """Expand prod_i (d_i*w + d_i*h - alpha_i) into (w-power, h-power) parts.

    Generic in the coefficient ring: alphas may be Laurent polynomials (a_i*t,
    possibly with Dual coefficients) or plain numeric scalars. Returns a map
    (j, l) -> coefficient with j + l <= len(degrees).
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


def mixed_integral(coeffs, ambient_dim, m, eigenvalues, tangents=None):
    """Integrate sum c[j][l] w^j h^l e^(m h) e^(m w) over P^N exactly.

    Only the top-degree part of e^(m w) survives against each w^j, which
    turns every (j, l) component into a multiple of the l-th theta-moment:
    the factor is m^(N-j)/(N-j)! * m^(-l).
    """
    n = ambient_dim
    max_l = max((l for (_, l) in coeffs), default=0)
    dds = _dd_pow_exp_all(max_l, m, eigenvalues, tangents)
    moments = [_i0l_from_dds(n, m, dds, l) for l in range(max_l + 1)]
    total = ExpPoly.zero()
    for (j, l), c in coeffs.items():
        kappa = Fraction(m ** (n - j), factorial(n - j) * m ** l)
        piece = moments[l].mul_laurent(c) if isinstance(c, LaurentPoly) \
            else moments[l].mul_scalar(c)
        total = total + piece.mul_scalar(kappa)
    return total


def ik0_symbolic(ci, field, k):
    """Exact integral of e^(m theta) omega^(N-k) over the k-fold intersection.

    Computed by expanding the first k equivariant factors and pushing the
    expansion through the theta-moment integrals, scaled by (N-k)!/m^(N-k).
    """
    validate(ci, field)
    if not 0 <= k <= ci.codim:
        raise ValueError(f"k must lie in 0..{ci.codim}, got {k}")
    n, m = ci.ambient_dim, ci.fano_index
    alphas = [LaurentPoly.t_power(1, a) for a in field.weights[:k]]
    coeffs = expand_equivariant_product(ci.degrees[:k], alphas, LaurentPoly.one())
    integral = mixed_integral(coeffs, n, m, field.eigenvalues)
    return integral.mul_scalar(Fraction(factorial(n - k), m ** (n - k)))


@dataclass(frozen=True)
class RecursionCheck:
    """Outcome of the intersection-by-intersection recursion identity."""

    ok: bool
    failed_k: int | None = None
    lhs: ExpPoly | None = None
    rhs: ExpPoly | None = None

    def describe(self):
        if self.ok:
            return "recursion identity holds for all k"
        return (f"recursion identity fails at k={self.failed_k}: "
                f"lhs = {self.lhs!r}, rhs = {self.rhs!r}")


def verify_recursion(ci, field):
    """Check I_k = (d_k - m a_k t/(N-k+1)) I_(k-1) + (d_k/(N-k+1)) t I'_(k-1).

    The first moment of the previous level enters as t * d/dt of the level
    below, which is exact because eigenvalues and weights are both linear in
    t. Returns a report rather than raising.
    """
    validate(ci, field)
    n, m = ci.ambient_dim, ci.fano_index
    prev = ik0_symbolic(ci, field, 0)
    for k in range(1, ci.codim + 1):
        d_k = ci.degrees[k - 1]
        a_k = field.weights[k - 1]
        lhs = ik0_symbolic(ci, field, k)
        rhs = prev.mul_laurent(LaurentPoly(
            {0: Fraction(d_k), 1: -Fraction(m) * a_k / (n - k + 1)}))
        rhs = rhs + prev.t_derivative().mul_laurent(
            LaurentPoly.t_power(1, Fraction(d_k, n - k + 1)))
        if lhs != rhs:
            return RecursionCheck(False, k, lhs, rhs)
        prev = lhs
    return RecursionCheck(True)
