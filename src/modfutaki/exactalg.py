"""Exact arithmetic kernel: Laurent polynomials, exponential polynomials, duals.

Every closed-form quantity produced by this package is an exponential
polynomial: a finite sum

    p(t) = sum over mu of c_mu(t) * exp(mu*t)

with rational frequencies mu and Laurent-polynomial coefficients c_mu over Q.
Canonical form (no stored zero coefficients, frequencies exact rationals) is
maintained eagerly by every constructor and operation, so structural equality
of two values is equivalent to their equality as functions of t.

Numeric values are guarded against cancellation by one rule, `guarded`,
shared by ExpPoly.evaluate, the numeric twin and the quantized trace: a sum
of pieces is taken at precision + guard bits, and it is accepted when its
cancellation, log2(max |piece| / |sum|), plus 16 is at most the guard (a zero
sum counts as full cancellation); otherwise it is taken again with the guard
set to the cancellation plus 64. A sum that still misses the rule on the
fourth pass raises PrecisionNotReached; no result that broke it is returned.

All values are immutable after construction and the exact operations are
pure, so exact (Fraction) results are safe to compute across threads.
Anything that takes precision_bits is not: mpmath.workprec sets mpmath's
process-wide precision, so two threads inside it read each other's setting.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import factorial

import mpmath

DEFAULT_PRECISION_BITS = 256

_MAX_GUARD_PASSES = 4


class PoleAtZero(ArithmeticError):
    """The t -> 0 limit does not exist: a negative-power coefficient survives."""


class EvalAtPole(ArithmeticError):
    """Numerical evaluation was requested at t = 0 but the value has a pole there."""


class ExpPolyParseError(ValueError):
    """A string does not conform to the canonical expression grammar."""


class PrecisionNotReached(ArithmeticError):
    """A guarded sum still missed its precision on the last guard pass.

    achieved_bits is what the guard rule credits that pass with: the bits
    left after the cancellation, less the 16-bit margin; 0 for a zero sum.
    """

    def __init__(self, requested_bits, achieved_bits):
        super().__init__(f"{requested_bits} bits were asked for, but the "
                         f"last guard pass reached {achieved_bits}")
        self.requested_bits = requested_bits
        self.achieved_bits = achieved_bits


def _to_mpf(x):
    """Convert a scalar, or a Dual of scalars, to mpf at the current working precision."""
    if isinstance(x, Dual):
        return Dual(_to_mpf(x.value), _to_mpf(x.derivative))
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)
    return mpmath.mpf(x)


class Dual:
    """Dual number ``a + b*eps`` with ``eps**2 = 0``.

    Forward-mode derivative carrier: threading Dual scalars through a
    computation leaves the directional derivative in the ``derivative`` slot.
    Parts are Fractions in the exact pipeline and mpmath floats in the
    numeric one. Duals nest: a Dual whose parts are Duals is a hyper-dual
    number, and ``Dual(Dual(x, u), Dual(v, 0))`` carries
    ``x + u*eps1 + v*eps2``: through a computation f, the ``value`` slot
    becomes ``Dual(f, D_u f)`` and the ``derivative`` slot
    ``Dual(D_v f, D_u D_v f)``. Every Dual in one computation has the same
    depth. Plain operands are not lifted: a zero derivative costs products.
    +, * and >> unroll one level of the hyper-dual product (Fike and Alonso,
    AIAA 2011-886) in the recursion's order of operations: no rounding moves.
    """

    __slots__ = ("value", "derivative")

    def __init__(self, value, derivative=0):
        self.value = value
        self.derivative = derivative

    def __bool__(self):
        return bool(self.value) or bool(self.derivative)

    def __eq__(self, other):
        if isinstance(other, Dual):
            return self.value == other.value and self.derivative == other.derivative
        return (not self.derivative) and self.value == other

    __hash__ = None

    def __add__(self, other):
        a, b = self.value, self.derivative
        if not isinstance(other, Dual):
            return Dual(a + other, b)
        c, d = other.value, other.derivative
        if type(a) is Dual is type(b) is type(c) is type(d):
            return Dual(Dual(a.value + c.value, a.derivative + c.derivative),
                        Dual(b.value + d.value, b.derivative + d.derivative))
        return Dual(a + c, b + d)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return Dual(-self.value, -self.derivative)

    def __mul__(self, other):
        a, b = self.value, self.derivative
        if not isinstance(other, Dual):
            return Dual(a * other, b * other)
        c, d = other.value, other.derivative
        if type(a) is Dual is type(b) is type(c) is type(d):
            a0, a1, b0, b1 = a.value, a.derivative, b.value, b.derivative
            c0, c1, d0, d1 = c.value, c.derivative, d.value, d.derivative
            return Dual(Dual(a0 * c0, a0 * c1 + a1 * c0), Dual(
                a0 * d0 + b0 * c0, a0 * d1 + a1 * d0 + (b0 * c1 + b1 * c0)))
        return Dual(a * c, a * d + b * c)

    __rmul__ = __mul__

    def __rshift__(self, shift):
        """Floor shift of every slot, for Duals of ints in fixed point."""
        a, b = self.value, self.derivative
        if type(a) is Dual is type(b):
            return Dual(Dual(a.value >> shift, a.derivative >> shift),
                        Dual(b.value >> shift, b.derivative >> shift))
        return Dual(a >> shift, b >> shift)

    def __truediv__(self, other):
        if isinstance(other, Dual):
            q = self.value / other.value
            return Dual(q, (self.derivative - q * other.derivative) / other.value)
        return Dual(self.value / other, self.derivative / other)

    def __rtruediv__(self, other):
        return Dual(other, 0) / self

    def __repr__(self):
        return f"Dual({self.value!r}, {self.derivative!r})"


def slotwise(fn, *xs):
    """fn on plain scalars, and slot by slot on Duals of any depth.

    The xs are all plain or all Duals of one depth.
    """
    if isinstance(xs[0], Dual):
        return Dual(slotwise(fn, *[x.value for x in xs]),
                    slotwise(fn, *[x.derivative for x in xs]))
    return fn(*xs)


def scalar_exp(x):
    """exp on plain mpmath scalars and on Duals of any depth."""
    if isinstance(x, Dual):
        e = scalar_exp(x.value)
        return Dual(e, x.derivative * e)
    return mpmath.exp(x)


def primal(x):
    """The innermost value slot of a Dual, however deeply nested; x itself otherwise."""
    while isinstance(x, Dual):
        x = x.value
    return x


def guarded(compute, precision_bits, guard):
    """The result of compute(work_bits) -> (result, pieces), by the guard rule.

    Dual pieces are measured by their primal parts. A pass that misses the
    rule on the last try raises PrecisionNotReached.
    """
    for _ in range(_MAX_GUARD_PASSES):
        work_bits = precision_bits + guard
        with mpmath.workprec(work_bits):
            result, pieces = compute(work_bits)
            total = mpmath.fsum(primal(p) for p in pieces)
            if total == 0:
                cancel, achieved = guard, 0
            else:
                top = max(abs(primal(p)) for p in pieces)
                cancel = max(0, int(mpmath.log(top / abs(total), 2)) + 1)
                achieved = work_bits - cancel - 16
        if achieved >= precision_bits:
            return result
        guard = cancel + 64
    raise PrecisionNotReached(precision_bits, max(0, achieved))


class _TermMap:
    """Sparse map from a key to a nonzero coefficient, and its ring operations.

    Sums add coefficients key by key. A product with a map of the same type
    is the convolution over keys; any other factor multiplies every
    coefficient, except a map of a type that this one cannot hold as a
    coefficient, which is left to that type.
    """

    __slots__ = ("terms",)
    _key = None               # normalizes a key
    _coefficient_maps = ()    # map types allowed as a coefficient factor

    def __init__(self, terms=None):
        key = self._key
        self.terms = {key(k): c for k, c in terms.items() if c} if terms else {}

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out[k] + c if k in out else c
        return type(self)(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return type(self)({k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if type(other) is type(self):
            out = {}
            for k1, c1 in self.terms.items():
                for k2, c2 in other.terms.items():
                    k, c = k1 + k2, c1 * c2
                    out[k] = out[k] + c if k in out else c
            return type(self)(out)
        if isinstance(other, _TermMap) and not isinstance(
                other, self._coefficient_maps):
            return NotImplemented
        return type(self)({k: c * other for k, c in self.terms.items()})

    __rmul__ = __mul__


class LaurentPoly(_TermMap):
    """Finite Laurent polynomial in t, stored as exponent -> nonzero coefficient.

    The zero polynomial has an empty term map. Coefficients are Fractions in
    the exact pipeline; Dual coefficients are allowed while a directional
    derivative is being carried.
    """

    __slots__ = ()
    _key = int

    def derivative(self):
        """d/dt, term-wise: t^e -> e * t^(e-1)."""
        return LaurentPoly({e - 1: e * c for e, c in self.terms.items() if e != 0})

    def scale_t(self, c):
        """Substitute t -> c*t for a nonzero rational c."""
        c = Fraction(c)
        if c == 0:
            raise ValueError("t-rescaling requires a nonzero factor")
        return LaurentPoly({e: v * c ** e for e, v in self.terms.items()})

    def eval_mpf(self, t):
        """Evaluate at an mpf value of t."""
        total = mpmath.mpf(0)
        for e, c in self.terms.items():
            total += _to_mpf(c) * t ** e
        return total

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms):
            bits.append(f"({self.terms[e]})*t^{e}" if e else f"({self.terms[e]})")
        return " + ".join(bits)


_TERM_RE = re.compile(
    r"^(?P<sign>-)?\((?P<coeff>-?\d+(?:/\d+)?)\)"
    r"(?:\*t\^(?P<texp>-?\d+))?"
    r"(?:\*exp\((?P<freq>\(-?\d+(?:/\d+)?\)|-?\d+)\*t\))?$"
)


class ExpPoly(_TermMap):
    """Exponential polynomial: frequency -> LaurentPoly coefficient, canonical.

    Frequencies are exact rationals so that terms with equal frequency always
    merge; structural equality of canonical forms is equality as functions.
    A plain scalar coefficient stands for the constant LaurentPoly.
    """

    __slots__ = ()
    _key = Fraction
    _coefficient_maps = (LaurentPoly,)

    def __init__(self, terms=None):
        super().__init__(terms and {
            mu: c if isinstance(c, LaurentPoly) else LaurentPoly({0: c})
            for mu, c in terms.items()})

    def shift_frequency(self, delta):
        """Multiply by exp(delta*t): every frequency moves by delta."""
        delta = Fraction(delta)
        return ExpPoly({mu + delta: lp for mu, lp in self.terms.items()})

    def t_derivative(self):
        """d/dt, term-wise: c(t)e^(mu t) -> (c'(t) + mu*c(t)) e^(mu t)."""
        return ExpPoly({mu: lp.derivative() + lp * mu
                        for mu, lp in self.terms.items()})

    def scale_t(self, c):
        """Substitute t -> c*t for nonzero rational c."""
        c = Fraction(c)
        if c == 0:
            raise ValueError("t-rescaling requires a nonzero factor")
        return ExpPoly({mu * c: lp.scale_t(c) for mu, lp in self.terms.items()})

    def series(self, order):
        """Exact truncated expansion around t = 0 through the t^order term.

        Each exponential is expanded far enough that every retained
        coefficient is an exact rational.
        """
        out = {}
        for mu, lp in self.terms.items():
            for e, c in lp.terms.items():
                jmax = order - e
                if jmax < 0:
                    continue
                mu_pow = Fraction(1)
                for j in range(jmax + 1):
                    k = e + j
                    out[k] = out.get(k, 0) + c * mu_pow / factorial(j)
                    mu_pow *= mu
        return LaurentPoly(out)

    def limit_at_zero(self):
        """The t -> 0 limit, certified by exact cancellation of all poles."""
        expansion = self.series(0)
        bad = sorted(e for e in expansion.terms if e < 0)
        if bad:
            raise PoleAtZero(
                f"nonzero coefficients at negative exponents {bad} survive at t=0")
        return expansion.terms.get(0, Fraction(0))

    def evaluate(self, t, precision_bits=DEFAULT_PRECISION_BITS):
        """Numeric value at rational t with the requested working precision.

        The working precision carries a guard of 32 bits, raised by
        `guarded` while the terms cancel.
        """
        t = Fraction(t)
        if t == 0:
            try:
                limit = self.limit_at_zero()
            except PoleAtZero as exc:
                raise EvalAtPole("value has a pole at t = 0") from exc
            with mpmath.workprec(precision_bits):
                return _to_mpf(limit)
        if not self.terms:
            return mpmath.mpf(0)

        def compute(work_bits):
            pieces = [lp.eval_mpf(_to_mpf(t)) * mpmath.exp(_to_mpf(mu * t))
                      for mu, lp in self.terms.items()]
            return mpmath.fsum(pieces), pieces

        return guarded(compute, precision_bits, 32)

    def dual_parts(self):
        """Split Dual coefficients into (primal, tangent) exponential polynomials."""
        val, der = {}, {}
        for mu, lp in self.terms.items():
            val[mu] = LaurentPoly({e: primal(c) for e, c in lp.terms.items()})
            der[mu] = LaurentPoly({e: c.derivative for e, c in lp.terms.items()
                                   if isinstance(c, Dual)})
        return ExpPoly(val), ExpPoly(der)

    def to_string(self):
        """Canonical expression string; see parse() for the grammar."""
        if not self.terms:
            return "0"
        parts = []
        for mu in sorted(self.terms):
            lp = self.terms[mu]
            for e in sorted(lp.terms):
                c = lp.terms[e]
                if not isinstance(c, Fraction):
                    c = Fraction(c)
                frag = [("-" if c < 0 else "") + f"({abs(c)})"]
                if e:
                    frag.append(f"t^{e}")
                if mu:
                    mu_str = str(mu) if mu.denominator == 1 else f"({mu})"
                    frag.append(f"exp({mu_str}*t)")
                parts.append("*".join(frag))
        return " + ".join(parts)

    @classmethod
    def parse(cls, text):
        """Parse the canonical grammar emitted by to_string().

        Terms are joined by " + "; each term is `(num/den)` optionally
        followed by `*t^e` and `*exp(mu*t)`, with a leading `-` for negative
        coefficients and parentheses around non-integer frequencies.
        """
        text = text.strip()
        if text == "0":
            return cls()
        acc = {}
        for raw in text.split(" + "):
            m = _TERM_RE.match(raw.strip())
            if not m:
                raise ExpPolyParseError(f"malformed term: {raw!r}")
            c = Fraction(m.group("coeff"))
            if m.group("sign"):
                c = -c
            e = int(m.group("texp") or 0)
            f = m.group("freq") or "0"
            mu = Fraction(f[1:-1] if f.startswith("(") else f)
            bucket = acc.setdefault(mu, {})
            bucket[e] = bucket.get(e, 0) + c
        return cls({mu: LaurentPoly(b) for mu, b in acc.items()})

    def __repr__(self):
        try:
            return f"ExpPoly[{self.to_string()}]"
        except (TypeError, ValueError):
            inner = ", ".join(f"{mu}: {lp!r}" for mu, lp in sorted(
                self.terms.items(), key=lambda kv: kv[0]))
            return f"ExpPoly{{{inner}}}"

