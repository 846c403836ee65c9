"""Finite-level oracle: section counts and character traces on the quantization.

Sections of the k-th anticanonical power restrict from projective space
through the alternating (Koszul) resolution of the intersection, so both the
dimension N_k and the trace of e^(V/k) reduce to sums over subsets of the
defining polynomials. Each summand is a complete homogeneous symmetric
polynomial in e^(r_i t/k) times a constant weight shift e^((k sum a + sum_S
a_p) t/k). The normalized trace F_k/(k N_k) converges to the exact functional
as k grows, which makes this an independent check of the localization value.

The complete homogeneous polynomials run on Python ints in fixed point. The
nodes are divided by the largest one, e^(r_top t/k), so each lies in (0, 1]
and the top one is exactly 1; the word size W makes the recurrence's own
rounding cost at most 2^-(work + 14) of each h_d, relative
(complete_homogeneous_all has the proof). The factor e^(d r_top t/k) joins
each summand's weight shift, so a summand still costs one exp.

Sign bookkeeping of the shifts at finite k is pinned by two identities:
F_k(0) = -k N_k at every level, and convergence of F_k/(k N_k) to F(V) on the
worked golden examples. The alternating sum of F_k starts with a 64-bit
guard, checked by the shared rule of exactalg.guarded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

import mpmath

from .exactalg import DEFAULT_PRECISION_BITS, _to_mpf, guarded
from .futaki import f_function
from .geometry import validate

_TRACE_GUARD_BITS = 64


def nk(ci, k):
    """dim H^0 of the k-th anticanonical power, by the alternating sum.

    N_k = sum over subsets S of {1..s} of (-1)^|S| C(N + k m - sum_S d_p, N).
    """
    ci.check()
    if k < 1:
        raise ValueError(f"the level k must be positive, got {k}")
    n, m = ci.ambient_dim, ci.fano_index
    total = 0
    for size in range(ci.codim + 1):
        for subset in combinations(range(ci.codim), size):
            deg = n + k * m - sum(ci.degrees[p] for p in subset)
            total += (-1) ** size * comb(deg, n)
    return total


def complete_homogeneous_all(values, max_degree, word):
    """h_0..h_max of the given values, in fixed point with a word of W bits.

    A value x stands for x 2^-W, and so does each h_d returned. After
    x_0..x_j, h_d(x_0..x_j) = h_d(x_0..x_(j-1)) + x_j h_(d-1)(x_0..x_j), and
    each product is truncated to the word: h[d] += x h[d-1] >> W. At W = 0
    this is the exact recurrence in any ring with + and * (and an identity
    >> 0). O(max_degree * len(values)) products.

    Error, for n values y_i 2^W in [0, 2^W] whose largest is exactly 2^W
    and W = work + bit_length(n D) + 16, with D = max_degree. Each term of
    h_D(y) is positive, and y_max = 1 gives h_D(y) >= y_max^e h_(D-e)(y) =
    h_(D-e)(y) for e <= D; h_(D-e) of a subset of the nodes is smaller still.
    - The n D truncations each drop less than 2^-W from one h_d(y_0..y_j),
      which reaches h_D through the positive factor h_(D-d)(y_j..y_(n-1)) <=
      h_D(y). Every drop is downward, so none cancels another; together
      they cost at most n D 2^-W of h_D, relative.
    - An input off by less than 2 2^-W (an exp right to 2^-W, then its
      floor) moves h_D by at most 2 2^-W dh_D/dy_i = 2 2^-W h_(D-1)(y, y_i)
      = 2 2^-W sum_e y_i^e h_(D-1-e)(y) <= 2 D 2^-W h_D(y); n inputs cost at
      most 2 n D 2^-W.
    So each h_d (d <= D) is within 3 n D 2^-W < 2^-(work + 14) of h_d at the
    exact nodes, relative, to first order.
    """
    h = [1 << word] + [0] * max_degree
    for x in values:
        for d in range(1, max_degree + 1):
            h[d] += x * h[d - 1] >> word
    return h


def _scaled_traces(eigenvalues, u, max_degree, work_bits):
    """r_top, W and the fixed-point h_0..h_max of the nodes e^(r_i u).

    r_top is the eigenvalue with the largest r u, and the recurrence takes
    the ints floor(e^((r_i - r_top) u) 2^W), so h_d(e^(r_i u)) = e^(d r_top u)
    h[d] 2^-W with the relative error that complete_homogeneous_all bounds.
    """
    top = max(eigenvalues, key=lambda r: r * u)
    word = work_bits + (len(eigenvalues) * max_degree).bit_length() + 16
    with mpmath.workprec(word):
        ys = [int(mpmath.ldexp(mpmath.exp(_to_mpf((r - top) * u)), word))
              for r in eigenvalues]
    return top, word, complete_homogeneous_all(ys, max_degree, word)


@dataclass(frozen=True)
class ConvergenceRow:
    """F_k at level k, and F_k/(k N_k) against the reference value of F."""

    k: int
    nk: int
    fk: object
    ratio: object
    reference: object
    error: object

    @classmethod
    def at_level(cls, ci, k, level_value, reference, precision_bits):
        """The row of F_k = level_value; ratio and error carry 32 guard bits."""
        dim = nk(ci, k)
        with mpmath.workprec(precision_bits + 32):
            ratio = level_value / (k * dim)
            return cls(k, dim, level_value, ratio, reference, abs(ratio - reference))


def fk(ci, field, k, t, precision_bits=DEFAULT_PRECISION_BITS):
    """Quantized functional F_k(V) at level k and parameter t.

    F_k = -k sum_S (-1)^|S| e^((k sum_j a_j + sum_S a_p) t/k)
                    h_(k m - sum_S d_p)(e^(r_i t/k)).

    When every exponent vanishes (t = 0 or the zero field) the value is
    -k N_k, an exact integer, so F_k(0) + k N_k = 0 holds with zero error.
    """
    validate(ci, field)
    if k < 1:
        raise ValueError(f"the level k must be positive, got {k}")
    t = Fraction(t)
    if t == 0 or field.is_zero():
        dim = nk(ci, k)
        with mpmath.workprec(max(precision_bits, dim.bit_length() + 16)):
            return mpmath.mpf(-k * dim)

    s, m = ci.codim, ci.fano_index
    u = t / k
    weight_total = sum(field.weights, Fraction(0))
    subsets = [subset for size in range(s + 1)
               for subset in combinations(range(s), size)]

    def compute(work_bits):
        top, word, h = _scaled_traces(field.eigenvalues, u, k * m, work_bits)
        pieces = []
        for subset in subsets:
            deg = k * m - sum(ci.degrees[p] for p in subset)
            if deg < 0:
                continue
            shift = (k * weight_total + deg * top
                     + sum((field.weights[p] for p in subset), Fraction(0))) * u
            pieces.append((-1) ** len(subset) * mpmath.ldexp(
                mpmath.exp(_to_mpf(shift)) * h[deg], -word))
        return -k * mpmath.fsum(pieces), pieces

    return guarded(compute, precision_bits, _TRACE_GUARD_BITS)


def convergence_report(ci, field, t, k_list, precision_bits=DEFAULT_PRECISION_BITS):
    """Tabulate F_k/(k N_k) against the localization value of F at t."""
    validate(ci, field)
    t = Fraction(t)
    reference = f_function(ci, field).evaluate(t, precision_bits)
    return [ConvergenceRow.at_level(ci, k, fk(ci, field, k, t, precision_bits),
                                    reference, precision_bits)
            for k in k_list]
