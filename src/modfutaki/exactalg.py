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

All values are immutable after construction and all operations are pure, so
everything here is safe to share across threads.
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
    depth.
    """

    __slots__ = ("value", "derivative")

    def __init__(self, value, derivative=0):
        self.value = value
        self.derivative = derivative

    @staticmethod
    def lift(x):
        return x if isinstance(x, Dual) else Dual(x, 0)

    def __bool__(self):
        return bool(self.value) or bool(self.derivative)

    def __eq__(self, other):
        if isinstance(other, Dual):
            return self.value == other.value and self.derivative == other.derivative
        return (not self.derivative) and self.value == other

    __hash__ = None

    # A plain scalar operand is never lifted to a Dual: its zero derivative
    # would cost two extra multiplications and an addition per operation.
    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value + other.value, self.derivative + other.derivative)
        return Dual(self.value + other, self.derivative)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value - other.value, self.derivative - other.derivative)
        return Dual(self.value - other, self.derivative)

    def __rsub__(self, other):
        return Dual(other - self.value, -self.derivative)

    def __neg__(self):
        return Dual(-self.value, -self.derivative)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.value * other.value,
                        self.value * other.derivative + self.derivative * other.value)
        return Dual(self.value * other, self.derivative * other)

    __rmul__ = __mul__

    def __rshift__(self, shift):
        """Floor shift of every slot, for Duals of ints in fixed point."""
        return Dual(self.value >> shift, self.derivative >> shift)

    def __truediv__(self, other):
        if isinstance(other, Dual):
            q = self.value / other.value
            return Dual(q, (self.derivative - q * other.derivative) / other.value)
        return Dual(self.value / other, self.derivative / other)

    def __rtruediv__(self, other):
        return Dual.lift(other) / self

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise TypeError("Dual powers are restricted to nonnegative integers")
        out = Dual(self.value ** 0, self.value * 0)
        base = self
        k = n
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def exp(self):
        e = scalar_exp(self.value)
        return Dual(e, self.derivative * e)

    def __repr__(self):
        return f"Dual({self.value!r}, {self.derivative!r})"


def scalar_exp(x):
    """exp on plain mpmath scalars and on Dual numbers."""
    if isinstance(x, Dual):
        return x.exp()
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


class LaurentPoly:
    """Finite Laurent polynomial in t, stored as exponent -> nonzero coefficient.

    The zero polynomial has an empty term map. Coefficients are Fractions in
    the exact pipeline; Dual coefficients are allowed while a directional
    derivative is being carried.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for e, c in terms.items():
                if c:
                    clean[int(e)] = c
        self.terms = clean

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: Fraction(1)})

    @classmethod
    def const(cls, c):
        return cls({0: c})

    @classmethod
    def t_power(cls, e, c=Fraction(1)):
        return cls({e: c})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return LaurentPoly({e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            out = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = e1 + e2
                    out[e] = out.get(e, 0) + c1 * c2
            return LaurentPoly(out)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, c):
        return LaurentPoly({e: c * v for e, v in self.terms.items()})

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
        """Evaluate at an mpf (or Dual over mpf) value of t."""
        total = mpmath.mpf(0)
        for e, c in self.terms.items():
            cv = _to_mpf(c) if isinstance(c, Fraction) else c
            total += cv * t ** e
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


class ExpPoly:
    """Exponential polynomial: frequency -> LaurentPoly coefficient, canonical.

    Frequencies are exact rationals so that terms with equal frequency always
    merge; structural equality of canonical forms is equality as functions.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for mu, lp in terms.items():
                if not isinstance(lp, LaurentPoly):
                    lp = LaurentPoly.const(lp) if lp else LaurentPoly.zero()
                if not lp.is_zero():
                    clean[Fraction(mu)] = lp
        self.terms = clean

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def const(cls, c):
        return cls({Fraction(0): LaurentPoly.const(Fraction(c))})

    @classmethod
    def exponential(cls, mu, coeff=Fraction(1)):
        """The single term coeff(t) * exp(mu*t)."""
        if not isinstance(coeff, LaurentPoly):
            coeff = LaurentPoly.const(coeff)
        return cls({Fraction(mu): coeff})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, ExpPoly):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def __add__(self, other):
        if not isinstance(other, ExpPoly):
            return NotImplemented
        out = dict(self.terms)
        for mu, lp in other.terms.items():
            out[mu] = out[mu] + lp if mu in out else lp
        return ExpPoly(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return ExpPoly({mu: -lp for mu, lp in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, ExpPoly):
            return NotImplemented
        out = {}
        for mu1, lp1 in self.terms.items():
            for mu2, lp2 in other.terms.items():
                mu = mu1 + mu2
                prod = lp1 * lp2
                out[mu] = out[mu] + prod if mu in out else prod
        return ExpPoly(out)

    def mul_laurent(self, lp):
        return ExpPoly({mu: c * lp for mu, c in self.terms.items()})

    def mul_scalar(self, c):
        return ExpPoly({mu: v.scale(c) for mu, v in self.terms.items()})

    def shift_frequency(self, delta):
        """Multiply by exp(delta*t): every frequency moves by delta."""
        delta = Fraction(delta)
        return ExpPoly({mu + delta: lp for mu, lp in self.terms.items()})

    def t_derivative(self):
        """d/dt, term-wise: c(t)e^(mu t) -> (c'(t) + mu*c(t)) e^(mu t)."""
        out = {}
        for mu, lp in self.terms.items():
            out[mu] = lp.derivative() + lp.scale(mu)
        return ExpPoly(out)

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
            return cls.zero()
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

