"""Equivariant integrals over projective space via fixed-point localization.

Localization integrates a function of the equivariant hyperplane class over
P^N as its divided difference over the fixed-point weights, so each integral
is a sum of g_i * DD(x^i * exp(m*t*x)) over the eigenvalue multiset, g the
polynomial of the intersection's factors. The exact pipeline computes these
confluent divided differences in closed form by local series expansion at
each distinct node (the residue form of the Hermite divided difference).
Results are exponential polynomials in t. The series run on ints over one
denominator per block (fraction-free, as in Bareiss): a block of mu equal
nodes among n costs O(n*mu) integer products and one Fraction per output slot.

The numeric pipeline evaluates divided differences through the bidiagonal
node-matrix representation (nodes on the diagonal, ones above it; the divided
difference is the top-right entry of the matrix function), which is stable for
clustered and coincident nodes where the Lagrange form cancels catastrophically.
Its scaling and squaring runs on Python ints in fixed point and never forms a
dense product (_expm_last_column); each further power x^i costs O(n). The
Taylor degree bounds the truncation only absolutely, by 2^-(precision+8): 25
nodes at -7 + j 2^-20 keep 30 of 64 bits, which f_numeric's 64 guard bits cover.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, gcd, lcm

import mpmath
from mpmath.libmp import from_man_exp, mpf_shift, to_int

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
    return sum((dds[i] * LaurentPoly(
        {i - ambient_dim: _moment_coefficient(ambient_dim, m, l, i)})
        for i in range(l + 1)), ExpPoly())


def _mag(x):
    """Submultiplicative magnitude; for duals |value| + |derivative|, nested alike."""
    if isinstance(x, Dual):
        return _mag(x.value) + _mag(x.derivative)
    return abs(x)


def _taylor_degree(p):
    """The least d >= 2 with 2^(p+8-d) <= (d+1)!: then the tail of
    sum_(j>d) 2^-j/j!, under 2^-d/(d+1)!, is at most 2^-(p+8). Rounding
    2^-d/(d+1)! to p bits, as a former mpf loop did, moves d only if
    0 < 2^(p+8-d) - (d+1)! <= 2^(8-d), which the 2-part of (d+1)! rules out
    for d >= 5 and for every p but 3.
    """
    degree, fact = 2, 6
    while fact.bit_length() <= p + 8 - degree:
        degree, fact = degree + 1, fact * (degree + 2)
    return degree


def _expm_last_column(diag, sup, precision_bits):
    """Last column of exp(B) for the upper bidiagonal B = diag(diag) + sup*J.

    J has ones just above the diagonal, and the diag entries are all Dual or
    all mpf. sigma, from the binary exponent of the row-sum norm, is the
    fewest (exact) halvings to bring it to 1/2. The Taylor degree holds the
    truncation under 2^-(precision_bits + 8) in absolute terms only, so an
    entry far smaller loses relative bits to it (the near-confluent case of
    the module docstring).
    Upper-triangular matrices are stored by rows from the diagonal on (row i
    holds columns i..n-1). Each Horner step multiplies by the bidiagonal B,
    O(n^2); each squaring multiplies upper-triangular matrices, O(n^3/6), and
    the last one forms only the last column, O(n^2).

    Both loops run in fixed point: an entry is an int, or a Dual of ints,
    that stands for itself times 2^-W: an mpf enters truncated toward zero,
    as int() truncates, and leaves exactly. A Horner step divides by j by
    scaling sup and each diag entry once by 2^W // j, then shifting each new
    entry by 2W; a squaring shifts each entry back by W. The word size is

        W = precision_bits + sigma + ceil(log2((n-1)!))
            + (n-1) * max(0, sigma - floor(log2|sup|)) + 16.

    Why W is enough for rounding, at real nodes with sup > 0: entry (i,k) of
    exp(B/2^sigma) is s^(k-i), s = sup/2^sigma, times a divided difference
    of exp, which is an integral of exp over a simplex (Hermite-Genocchi).
    So it is at least s^(k-i) e^(-1/2)/(k-i)!, which the third and fourth
    terms of W keep above 2^(precision_bits + sigma + 15 - W), and the few
    units of 2^-W that the Taylor steps round off leave every entry about
    precision_bits + sigma + 16 relative bits. Each square is again such an
    exponential, with positive entries, and a squaring sums positive
    products, so it at most doubles a relative error: the sigma term pays
    for the squarings. A negative sup flips the sign of entry (i,k) by the
    parity of k - i and changes no magnitude. An entry whose nodes all lie
    far below the others can fall under 2^-W in the squarings and keep only
    absolute accuracy. The top entry, over all the nodes, is at least
    |sup|^(n-1)/(n-1)! when the nodes are centred (Jensen), so next to it
    such an entry weighs under 2^-(precision_bits + 16).
    """
    n = len(diag)
    norm = max(_mag(d) + _mag(sup) if i + 1 < n else _mag(d)
               for i, d in enumerate(diag))
    mantissa, exponent = mpmath.frexp(norm)
    sigma = max(0, exponent + (mantissa > 0.5))
    degree = _taylor_degree(precision_bits)
    # ceil(log2((n-1)!)), and floor(log2|sup|) is frexp's exponent less one
    word = (precision_bits + sigma + (factorial(n - 1) - 1).bit_length()
            + (n - 1) * max(0, sigma - mpmath.frexp(sup)[1] + 1) + 16)

    def fixed(x):  # int(ldexp(x, word - sigma)) on the raw mpf
        return to_int(mpf_shift(x._mpf_, word - sigma))

    diag = [slotwise(fixed, d) for d in diag]
    sup = slotwise(fixed, sup)
    one, twice = 1 << word, 2 * word

    out = [[one] + [0] * (n - 1 - i) for i in range(n)]
    for j in range(degree, 0, -1):
        inv = one // j
        sj = sup * inv
        # row i of (B @ out / j + I), from rows i and i+1 of out
        out = [[(dj * row[0] >> twice) + one]
               + [dj * row[k] + below[k - 1] * sj >> twice
                  for k in range(1, len(row))]
               for dj, row, below in zip([d * inv for d in diag], out,
                                         out[1:] + [None])]

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
    return [slotwise(lambda x: mpmath.mp.make_mpf(from_man_exp(x, -word)), c)
            for c in column]


def _dd_numeric_multi(max_power, m, nodes, precision_bits):
    """DD(x^i e^(m x); nodes) for i = 0..max_power, one matrix exponential.

    With Z the node matrix, the i-th divided difference is the top entry of
    Z^i exp(m Z) e_n. The exponential is taken of m (Z - c) around the node
    mean c, and the powers follow from the recurrence col <- Z col, O(n) each.
    The nodes are all Duals of one depth or all plain. The kernel works at
    precision_bits plus 2*sigma_guess bits for the squarings (_expm_last_column
    has its word size); any further loss is for the caller's guard to cover.
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


def expand_equivariant_product(degrees, alphas, one):
    """Coefficients [g_0..g_k] of g(x) = prod_p (d_p*x - alpha_p), lowest first.

    Generic in the coefficient ring: alphas may be Fractions, Duals of them,
    or numeric scalars, and one is the unit the product starts from.
    """
    g = [one]
    for d, alpha in zip(degrees, alphas):
        g = ([-(alpha * g[0])] + [d * lo - alpha * hi for lo, hi in zip(g, g[1:])]
             + [d * g[-1]])
    return g


def mixed_integral(ci, field, k, direction=None):
    """Exact integral of e^(m theta) omega^(N-k) over the k-fold intersection.

    Localization on P^N integrates a function of the hyperplane class H as its
    divided difference over the fixed-point weights t*r_i. Here the function
    is e^(m H) prod_(p<=k) (d_p H - a_p t) = t^k g(H/t) e^(m H), so the level-k
    integral is (N-k)!/m^(N-k) * t^(k-N) * sum_i g_i DD(x^i e^(m t x); r).
    With a direction, weights and eigenvalues carry its tangents and the
    result has Dual coefficients.
    """
    n, m = ci.ambient_dim, ci.fano_index
    alphas, tangents = field.weights[:k], None
    if direction is not None:
        alphas = [Dual(a, b) for a, b in zip(alphas, direction.weights)]
        tangents = direction.eigenvalues
    g = expand_equivariant_product(ci.degrees[:k], alphas, Fraction(1))
    dds = _dd_pow_exp_all(k, m, field.eigenvalues, tangents)
    scale = Fraction(factorial(n - k), m ** (n - k))
    return sum((dd * LaurentPoly({k - n: gi * scale}) for gi, dd in zip(g, dds)),
               ExpPoly())


def recursion_step(ci, field, k, prev):
    """I_k = (d_k - m a_k t/(N-k+1)) I_(k-1) + (d_k/(N-k+1)) t I'_(k-1).

    The first moment of the previous level enters as t * d/dt of the level
    below, which is exact because eigenvalues and weights are both linear in
    t.
    """
    n, m = ci.ambient_dim, ci.fano_index
    d_k, a_k = ci.degrees[k - 1], field.weights[k - 1]
    return prev * LaurentPoly({0: Fraction(d_k), 1: -Fraction(m) * a_k / (n - k + 1)}) \
        + prev.t_derivative() * LaurentPoly({1: Fraction(d_k, n - k + 1)})


def verify_recursion(ci, field):
    """Check that recursion_step carries each I_(k-1) to the expanded I_k.

    Returns the first level k at which the identity fails, or None when it
    holds at every level.
    """
    validate(ci, field)
    prev = mixed_integral(ci, field, 0)
    for k in range(1, ci.codim + 1):
        level = mixed_integral(ci, field, k)
        if level != recursion_step(ci, field, k, prev):
            return k
        prev = level
    return None
