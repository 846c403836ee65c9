"""Finite-level oracle: section counts and character traces on the quantization.

Sections of the k-th anticanonical power restrict from projective space
through the alternating (Koszul) resolution of the intersection, so both the
dimension N_k and the trace of e^(V/k) reduce to sums over subsets of the
defining polynomials. Each summand is a complete homogeneous symmetric
polynomial in e^(r_i t/k) times a constant weight shift e^((k sum a + sum_S
a_p) t/k). The normalized trace F_k/(k N_k) converges to the exact functional
as k grows, which makes this an independent check of the localization value.

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


def complete_homogeneous_all(values, max_degree):
    """h_0..h_max of the given values, taking in one value at a time.

    Generic in the coefficient ring (+ and * only, no division): after
    x_0..x_j, h_d(x_0..x_j) = h_d(x_0..x_(j-1)) + x_j h_(d-1)(x_0..x_j).
    O(max_degree * len(values)) products, and for positive values every
    term added is positive.
    """
    h = [1] + [0] * max_degree
    for x in values:
        for d in range(1, max_degree + 1):
            h[d] = h[d] + x * h[d - 1]
    return h


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
        uu = _to_mpf(u)
        xs = [mpmath.exp(_to_mpf(r) * uu) for r in field.eigenvalues]
        h = complete_homogeneous_all(xs, k * m)
        pieces = []
        for subset in subsets:
            deg = k * m - sum(ci.degrees[p] for p in subset)
            if deg < 0:
                continue
            shift = (k * weight_total
                     + sum((field.weights[p] for p in subset), Fraction(0))) * u
            pieces.append((-1) ** len(subset)
                          * mpmath.exp(_to_mpf(shift)) * h[deg])
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
