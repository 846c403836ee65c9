"""Equivariant integrals over projective space via fixed-point localization.

The exact pipeline reduces every integral to confluent divided differences of
x -> x^i * exp(m*t*x) over the eigenvalue multiset, computed in closed form by
local series expansion at each distinct node (the residue form of the Hermite
divided difference). Results are exponential polynomials in t. The series
run on ints over one denominator per block (fraction-free, as in Bareiss):
a block of mu equal nodes among n costs O(n*mu) integer products and one
Fraction per output slot. mixed_integral gathers its coefficients by power i
first, so that it multiplies each divided difference once.

The numeric pipeline evaluates divided differences through the bidiagonal
node-matrix representation (nodes on the diagonal, ones above it; the divided
difference is the top-right entry of the matrix function), which is stable for
clustered and coincident nodes where the Lagrange form cancels catastrophically.
For n nodes the kernel never forms a dense product: each Taylor (Horner) step
multiplies by the bidiagonal matrix, O(n^2); each squaring multiplies upper
triangular matrices, about n^3/6 products, and the last forms only the last
column, O(n^2); each further power x^i costs O(n). The Taylor steps and the
squarings run on Python ints in fixed point, at a word size of the working
precision plus sigma, log2((n-1)!), (n-1) * (sigma - log2 m) when positive,
and 16 bits (sigma the number of squarings): enough that every entry keeps
the working precision. The caller's guard covers any other loss. Callers
bound the size of the work: the command line accepts 64..4096 bits of
precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, gcd, lcm

import mpmath

from .exactalg import Dual, ExpPoly, LaurentPoly, _to_mpf, primal, slotwise
from .geometry import validate


def _dd_pow_exp_all(max_power, m, nodes, tangents=None):
    """Divided differences DD(x^i * exp(m*t*x); nodes) for i = 0..max_power.

    Each value is an ExpPoly in t with frequencies m*r over the distinct node
    values r. With `tangents`, first-order node perturbations are carried
    through and the results have Dual coefficients; within a block of equal
    nodes only the sum of the tangents enters (eps^2 = 0), so directions that
    split a repeated eigenvalue are differentiated exactly.

    A block of mu nodes at r = R/d contributes the residue of x^i e^(m t x) /
    prod_j (x - x_j) at r, read from series in u = x - r to the block's
    order. The series run on ints. With U = d u and l_j = lcm(d, b_j) for a
    node x_j = X_j/b_j outside the block, each factor u + r - x_j is
    (c_j U + a_j)/l_j with c_j = l_j/d, and O(n * order) products build
    Q(U) = prod (c_j U + a_j) = L P(u), L = prod l_j. A tangent t_j = T_j/E,
    E the lcm of the tangent denominators, enters a_j as the Dual (a_j,
    -l_j T_j), whose eps slot stands for itself over E. 1/Q is the sum of
    h_w U^w / Q_0^(w+1), where h_0 = 1 and h_w = -sum_(i>=1) Q_i h_(w-i)
    Q_0^(i-1), and each factor x = (R + U)/d of x^i is a step h <- h (R + U).
    After i steps, with every h_w over Q_0^(order+1), the coefficient of u^w
    is h_w L d^(w-i) / Q_0^(order+1): one Fraction per output slot. Each
    factor is scaled by its own denominators only: one scale for all nodes
    would put its (n - mu)-th power into every int.
    """
    nodes = [Fraction(x) for x in nodes]
    dual = tangents is not None
    if dual:
        tangents = [Fraction(x) for x in tangents]
        if len(tangents) != len(nodes):
            raise ValueError("one tangent per node is required")
        tscale = lcm(*(x.denominator for x in tangents))
        ts = [x.numerator * (tscale // x.denominator) for x in tangents]

    blocks = {}
    for idx, x in enumerate(nodes):
        blocks.setdefault(x, []).append(idx)

    results = [dict() for _ in range(max_power + 1)]
    for r in sorted(blocks):
        idxs = blocks[r]
        mult = len(idxs)
        order = mult if dual else mult - 1
        rn, d = r.numerator, r.denominator

        q = [Dual(1, 0) if dual else 1] + [0] * order
        scale = 1  # L
        for j, x in enumerate(nodes):
            if x != r:
                g = gcd(d, x.denominator)
                c, l = x.denominator // g, d * x.denominator // g
                a = rn * c - x.numerator * (d // g)
                a = Dual(a, -l * ts[j]) if dual else a
                q = [q[0] * a] + [q[w] * a + q[w - 1] * c for w in range(1, order + 1)]
                scale *= l
        q0_pow = [1]
        for _ in range(order + 1):
            q0_pow.append(q0_pow[-1] * q[0])
        h = [1]
        for w in range(1, order + 1):
            h.append(-sum(q[i] * h[w - i] * q0_pow[i - 1] for i in range(1, w + 1)))
        # every h_w over the common denominator Q_0^(order+1)
        h = [hw * q0_pow[order - w] for w, hw in enumerate(h)]
        den = primal(q0_pow[order + 1])

        freq = Fraction(m) * r
        tangent_sum = sum(ts[k] for k in idxs) if dual else 0
        for i in range(max_power + 1):
            if i:  # h <- h * (R + U), one more factor x of x^i
                h = [h[0] * rn] + [h[w] * rn + h[w - 1] for w in range(1, order + 1)]
            coeffs = {}
            for j in range(order + 1):
                p = mult - 1 - i - j  # u^(mu-1-j) is scaled by L d^p m^j / j!
                top = scale * m ** j * d ** max(p, 0)
                bottom = den * factorial(j) * d ** max(-p, 0)
                num = h[mult - 1 - j] if j < mult else 0
                if dual:  # num / Q_0^(order+1), the block's tangents added to num
                    a = num + Dual(0, tangent_sum * d * primal(h[mult - j]))
                    v, s = q[0].value, (order + 1) * q[0].derivative
                    coeffs[j] = Dual(Fraction(a.value * top, bottom), Fraction(
                        (a.derivative * v - a.value * s) * top, bottom * v * tscale))
                else:
                    coeffs[j] = Fraction(num * top, bottom)
            results[i][freq] = LaurentPoly(coeffs)
    return [ExpPoly(res) for res in results]


def _moment_coefficient(n, m, l, i):
    """Factor of DD(x^i e^(m x)) in the l-th theta-moment over P^n.

    An n-th antiderivative of x^l e^(m x) is the l-th m-derivative of
    e^(m x)/m^n; integrating picks up these correction terms, and the node
    rescaling by t contributes a further t^(i-n).
    """
    return Fraction(
        comb(l, i) * (-1) ** (l - i) * factorial(n + l - i - 1) * factorial(n),
        factorial(n - 1),
    ) * Fraction(m) ** (i - n)


def i0l_symbolic(ambient_dim, m, eigenvalues, l):
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
    dds = _dd_pow_exp_all(l, m, eigenvalues)
    return sum((dds[i] * LaurentPoly.t_power(
        i - ambient_dim, _moment_coefficient(ambient_dim, m, l, i))
        for i in range(l + 1)), ExpPoly())


def _mag(x):
    """Submultiplicative magnitude; for duals |value| + |derivative|, nested alike."""
    if isinstance(x, Dual):
        return _mag(x.value) + _mag(x.derivative)
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

    Both loops run in fixed point: an entry is an int, or a Dual of ints,
    that stands for itself times 2^-W. A Horner step divides by j through a
    multiply by 2^W // j and one shift by 2W; a squaring shifts each entry
    back by W. The word size is

        W = precision_bits + sigma + ceil(log2((n-1)!))
            + (n-1) * max(0, sigma - floor(log2|sup|)) + 16.

    Why W is enough, at real nodes with sup > 0: entry (i,k) of
    exp(B/2^sigma) is s^(k-i), s = sup/2^sigma, times a divided difference
    of exp, which is an integral of exp over a simplex (Hermite-Genocchi).
    So it is at least s^(k-i) e^(-1/2)/(k-i)!, which the third and fourth
    terms of W keep above 2^(precision_bits + sigma + 15 - W), and the few
    units of 2^-W that the Taylor steps round off leave every entry about
    precision_bits + sigma + 16 relative bits. Each square is again such an
    exponential, with positive entries, and a squaring sums positive
    products, so it at most doubles a relative error: the sigma term pays
    for the squarings. A negative sup flips the sign of entry (i,k) by
    the parity of k - i and changes no magnitude. An entry whose nodes all
    lie far below the others can fall under 2^-W in the squarings and keep
    only absolute accuracy. The top entry, over all the nodes, is at least
    |sup|^(n-1)/(n-1)! when the nodes are centred (Jensen), so next to it
    such an entry weighs under 2^-(precision_bits + 16).
    """
    n = len(diag)
    norm = max(_mag(d) + _mag(sup) if i + 1 < n else _mag(d)
               for i, d in enumerate(diag))
    sigma = 0
    while norm > mpmath.mpf("0.5"):
        norm = norm / 2
        sigma += 1

    # tail of sum_{j>J} (1/2)^j / j! is below 2*(1/2)^(J+1)/(J+1)!
    degree = 1
    tail = mpmath.mpf(1)
    target = mpmath.mpf(2) ** (-(precision_bits + 8))
    while tail > target:
        degree += 1
        tail = 2 * mpmath.mpf(2) ** (-(degree + 1)) / factorial(degree + 1)

    # ceil(log2((n-1)!)), and floor(log2|sup|) is frexp's exponent less one
    word = (precision_bits + sigma + (factorial(n - 1) - 1).bit_length()
            + (n - 1) * max(0, sigma - mpmath.frexp(sup)[1] + 1) + 16)

    def fixed(x):  # x * 2^(word - sigma), truncated to an int
        return int(mpmath.ldexp(x, word - sigma))

    diag = [slotwise(fixed, d) for d in diag]
    sup = slotwise(fixed, sup)
    one, twice = 1 << word, 2 * word

    out = [[one] + [0] * (n - 1 - i) for i in range(n)]
    for j in range(degree, 0, -1):
        inv = one // j
        # row i of (B @ out / j + I), from rows i and i+1 of out
        out = [[(d * row[0] * inv >> twice) + one]
               + [(d * row[k] + below[k - 1] * sup) * inv >> twice
                  for k in range(1, len(row))]
               for d, row, below in zip(diag, out, out[1:] + [None])]

    def square_entry(a, i, k):
        row = a[i]
        return sum((row[j - i] * a[j][k - j] for j in range(i + 1, k + 1)),
                   row[0] * row[k - i]) >> word

    for _ in range(sigma - 1):
        out = [[square_entry(out, i, k) for k in range(i, n)] for i in range(n)]
    if sigma:
        column = [square_entry(out, i, n - 1) for i in range(n)]
    else:
        column = [row[-1] for row in out]
    return [slotwise(lambda x: mpmath.ldexp(x, -word), c) for c in column]


def _dd_numeric_multi(max_power, m, nodes, precision_bits):
    """DD(x^i e^(m x); nodes) for i = 0..max_power, one matrix exponential.

    With Z the node matrix, the i-th divided difference is the top entry of
    Z^i exp(m Z) e_n. The exponential is taken of m (Z - c) around the node
    mean c, and the powers follow from the recurrence col <- Z col, O(n) each.
    The nodes are all Duals of one depth or all plain. precision_bits is the
    working precision: the kernel adds 2*sigma_guess bits for the squarings,
    and the exponential runs on ints at a word size of that precision plus
    sigma + ceil(log2((n-1)!)) + (n-1)*max(0, sigma - floor(log2 m)) + 16 bits
    (see _expm_last_column). Any further loss is for the caller's guard to
    cover.
    """
    n = len(nodes)
    norm_guess = 1 + abs(m) * max(float(abs(_to_mpf(primal(x)))) for x in nodes)
    sigma_guess = max(0, int(mpmath.log(norm_guess, 2)) + 2)
    work = precision_bits + 2 * sigma_guess
    with mpmath.workprec(work):
        xs = [_to_mpf(x) for x in nodes]
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


def _integrand(ci, field, k, direction=None):
    """Expansion of the first k factors prod_i (d_i*w + d_i*h - a_i*t).

    Returns the (j, l) -> LaurentPoly map of expand_equivariant_product. With
    a direction, each weight a_i carries its tangent and the coefficients are
    Dual.
    """
    weights = field.weights[:k]
    if direction is None:
        alphas = [LaurentPoly.t_power(1, a) for a in weights]
    else:
        alphas = [LaurentPoly.t_power(1, Dual(a, b))
                  for a, b in zip(weights, direction.weights)]
    return expand_equivariant_product(ci.degrees[:k], alphas,
                                      LaurentPoly.const(Fraction(1)))


def mixed_integral(ci, field, k, direction=None):
    """Exact integral of e^(m theta) omega^(N-k) over the k-fold intersection.

    The first k equivariant factors are expanded by (w-power, h-power) and
    integrated against e^(m h) e^(m w) over P^N. Only the top-degree part of
    e^(m w) survives against each w^j, which turns every (j, l) component into
    a multiple of the l-th theta-moment: the factor is m^(N-j)/(N-j)! * m^(-l),
    and the whole is scaled by (N-k)!/m^(N-k). These factors are summed over
    j, then over l >= i with the moment coefficients, so that each DD_i is
    multiplied once. With a direction, eigenvalues and weights carry its
    tangents and the result has Dual coefficients.
    """
    n, m = ci.ambient_dim, ci.fano_index
    coeffs = _integrand(ci, field, k, direction)
    max_l = max(l for (_, l) in coeffs)
    tangents = None if direction is None else direction.eigenvalues
    dds = _dd_pow_exp_all(max_l, m, field.eigenvalues, tangents)
    sums = [LaurentPoly() for _ in range(max_l + 1)]
    for (j, l), c in coeffs.items():
        kappa = Fraction(m ** (k - j) * factorial(n - k), factorial(n - j) * m ** l)
        sums[l] = sums[l] + c * kappa
    total = ExpPoly()
    for i in range(max_l + 1):
        fold = LaurentPoly()
        for l in range(i, max_l + 1):
            fold = fold + sums[l] * _moment_coefficient(n, m, l, i)
        total = total + dds[i] * (fold * LaurentPoly.t_power(i - n))
    return total


def ik0_symbolic(ci, field, k):
    """Exact integral of e^(m theta) omega^(N-k) over the k-fold intersection."""
    validate(ci, field)
    if not 0 <= k <= ci.codim:
        raise ValueError(f"k must lie in 0..{ci.codim}, got {k}")
    return mixed_integral(ci, field, k)


def recursion_step(ci, field, k, prev):
    """I_k = (d_k - m a_k t/(N-k+1)) I_(k-1) + (d_k/(N-k+1)) t I'_(k-1).

    The first moment of the previous level enters as t * d/dt of the level
    below, which is exact because eigenvalues and weights are both linear in
    t.
    """
    n, m = ci.ambient_dim, ci.fano_index
    d_k, a_k = ci.degrees[k - 1], field.weights[k - 1]
    return prev * LaurentPoly({0: Fraction(d_k), 1: -Fraction(m) * a_k / (n - k + 1)}) \
        + prev.t_derivative() * LaurentPoly.t_power(1, Fraction(d_k, n - k + 1))


@dataclass(frozen=True)
class RecursionCheck:
    """Outcome of the intersection-by-intersection recursion identity."""

    ok: bool
    failed_k: int | None = None
    lhs: ExpPoly | None = None
    rhs: ExpPoly | None = None


def verify_recursion(ci, field):
    """Check that recursion_step carries each I_(k-1) to the expanded I_k.

    Returns a report rather than raising.
    """
    validate(ci, field)
    prev = ik0_symbolic(ci, field, 0)
    for k in range(1, ci.codim + 1):
        lhs = ik0_symbolic(ci, field, k)
        rhs = recursion_step(ci, field, k, prev)
        if lhs != rhs:
            return RecursionCheck(False, k, lhs, rhs)
        prev = lhs
    return RecursionCheck(True)
