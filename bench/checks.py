"""Output checks for the benchmark's jobs.

Every check compares a job's output with a computation made apart from the
path under test, or with a property the method must have; none compares with a
stored copy of an earlier output. Exponential polynomials are handled here as
plain dicts {(frequency, t-exponent): Fraction} and evaluated by this module's
own adaptive-precision sum, not by ExpPoly.evaluate.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

import mpmath

from modfutaki.exactalg import Dual, ExpPoly
from modfutaki.futaki import f_function, f_function_via_recursion, fut_derivative
from modfutaki.geometry import DiagonalField, derive_weights
from modfutaki.soliton import admissible_torus

# A numeric result must agree with its reference to (precision - 16) bits.
AGREEMENT_SLACK = 16
# Step of the central difference of exact F that checks Fut_V(W) off V.
DIFF_STEP = Fraction(1, 2 ** 150)
# Step of the concavity probe around the solver's maximiser.
PROBE_STEP = Fraction(1, 1000)
# How much k |F_k/(k N_k) - F| may grow at the top of a quantize ladder.
TOP_LEVEL_GROWTH = 1.5


class CheckFailed(AssertionError):
    """A job's output is wrong."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def reference(state, job, what, compute):
    """A job's reference value, computed on the first call and kept in state.

    References depend on the job's inputs only, never on its output, so a
    job's later rounds reuse them; every output is still compared.
    """
    memo = state.setdefault("references", {})
    key = (job.name, what)
    if key not in memo:
        memo[key] = compute()
    return memo[key]


# --- exact exponential polynomials as dicts ---------------------------------

def terms_of(p):
    """{(mu, e): c} for an ExpPoly with Fraction coefficients."""
    return {(mu, e): Fraction(c)
            for mu, lp in p.terms.items() for e, c in lp.terms.items()}


def payload_terms(payload):
    """{(mu, e): c} from the structured `terms` block of CLI JSON output."""
    out = {}
    for term in payload["terms"]:
        mu = Fraction(term["frequency"])
        for e, c in term["coefficients"].items():
            out[(mu, int(e))] = Fraction(c)
    return out


def scale(terms, c):
    return {k: v * c for k, v in terms.items() if v * c}


def t_times_derivative(terms):
    """t * d/dt of sum c t^e exp(mu t)."""
    out = {}
    for (mu, e), c in terms.items():
        for key, v in (((mu, e), c * e), ((mu, e + 1), c * mu)):
            if v:
                out[key] = out.get(key, 0) + v
    return {k: v for k, v in out.items() if v}


def limit_at_zero(terms):
    """Value at t = 0 by exact Taylor expansion; every pole must cancel."""
    lowest = min((e for _, e in terms), default=0)
    value = Fraction(0)
    for j in range(min(lowest, 0), 1):
        value = sum((c * mu ** (j - e) / factorial(j - e)
                     for (mu, e), c in terms.items() if j >= e), Fraction(0))
        require(j == 0 or value == 0, f"pole of order {-j} survives at t = 0")
    return value


def to_mpf(x):
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / x.denominator
    return mpmath.mpf(x)


def evaluate(terms, t, bits):
    """sum c t^e exp(mu t) at rational t != 0, to `bits` relative bits.

    The working precision is raised until the cancellation seen between the
    terms leaves 32 bits to spare.
    """
    t = Fraction(t)
    extra = 64
    while extra < 100000:
        with mpmath.workprec(bits + extra):
            tt = to_mpf(t)
            pieces = [to_mpf(c) * tt ** e * mpmath.exp(to_mpf(mu * t))
                      for (mu, e), c in terms.items()]
            total = mpmath.fsum(pieces)
            top = max((abs(p) for p in pieces), default=mpmath.mpf(0))
            if top == 0:
                return mpmath.mpf(0)
            lost = (int(mpmath.log(top / abs(total), 2)) + 1
                    if total else extra)
        if lost + 32 <= extra:
            return total
        extra = lost + 96
    raise CheckFailed("reference evaluation did not settle")


def hex_value(field):
    """Exact value of a CLI number block {"decimal": ..., "hex": "0x..p.."}."""
    text = field["hex"]
    sign = -1 if text.startswith("-") else 1
    man, exp = text.lstrip("-").split("p")
    return sign * Fraction(int(man, 16)) * Fraction(2) ** int(exp)


def agrees(value, reference, bits):
    """Relative agreement of value with reference to bits - AGREEMENT_SLACK."""
    with mpmath.workprec(bits + 64):
        v, r = to_mpf(value), to_mpf(reference)
        if r == 0:
            return v == 0
        return abs(v - r) <= abs(r) * mpmath.mpf(2) ** (-(bits - AGREEMENT_SLACK))


def central_difference(ci, field, direction, t, bits):
    """d/dh F(V + hW)(t) at h = 0 from two exact F values."""
    h = DIFF_STEP
    values = []
    for sign in (1, -1):
        moved = DiagonalField(
            tuple(r + sign * h * w for r, w in zip(field.eigenvalues,
                                                   direction.eigenvalues)),
            tuple(a + sign * h * b for a, b in zip(field.weights,
                                                   direction.weights)))
        values.append(evaluate(terms_of(f_function(ci, moved)), t, bits + 200))
    with mpmath.workprec(bits + 200):
        return (values[0] - values[1]) / (2 * to_mpf(h))


def section_count(ci, k):
    """N_k from the Koszul resolution: sum_S (-1)^|S| C(N + km - d_S, N)."""
    n, m = ci.ambient_dim, ci.fano_index
    total = 0
    for size in range(ci.codim + 1):
        for subset in combinations(ci.degrees, size):
            top = n + k * m - sum(subset)
            total += (-1) ** size * (comb(top, n) if top >= n else 0)
    return total


# --- per-kind checks --------------------------------------------------------

def _cli_payload(outcome, code=0):
    rc, text = outcome
    require(rc == code, f"exit code {rc}, expected {code}")
    return json.loads(text)


def reference_f(job, state):
    """Exact F for the job's variety: the closed form, or the level recursion."""
    if "closed_form" in job.expect:
        return job.expect["closed_form"]
    return reference(state, job, "F", lambda: terms_of(
        f_function_via_recursion(job.ci, job.field)))


def check_eval(job, outcome, state):
    payload = _cli_payload(outcome)
    exact = reference_f(job, state)
    require(payload_terms(payload) == exact,
            "eval expression differs from the independent F")
    require(terms_of(ExpPoly.parse(payload["expression"])) == exact,
            "eval expression string differs from its terms block")
    require(reference(state, job, "F(0)", lambda: limit_at_zero(exact)) == -1,
            "F(0) is not -1")
    t = Fraction(payload["numeric"]["t"])
    value = reference(state, job, ("F", t), lambda: evaluate(exact, t, job.bits))
    require(agrees(hex_value(payload["numeric"]), value, job.bits),
            f"eval numeric value at t = {t} disagrees")


def check_derivative(job, outcome, state):
    payload = _cli_payload(outcome)
    terms = payload_terms(payload)
    t = Fraction(payload["numeric"]["t"])
    if "along_field" in job.expect:
        # Fut_V(cV) = c t dF/dt, exactly
        expected = scale(t_times_derivative(reference_f(job, state)),
                         job.expect["along_field"])
        require(terms == expected, "derivative along V is not c t dF/dt")
        value = reference(state, job, ("dF", t),
                          lambda: evaluate(expected, t, job.bits))
    else:
        value = reference(state, job, ("dF", t), lambda: central_difference(
            job.ci, job.field, job.expect["direction"], t, job.bits))
    require(agrees(hex_value(payload["numeric"]), value, job.bits),
            f"derivative at t = {t} disagrees")


def check_verify(job, outcome, state):
    payload = _cli_payload(outcome)
    require(payload["status"] == "ok" and all(c["ok"] for c in payload["checks"]),
            f"verify reported {payload['status']}")


def check_malformed(job, outcome, state):
    payload = _cli_payload(outcome, code=2)
    require(payload["error"]["code"] == job.expect["code"],
            f"error code {payload['error']['code']}, expected {job.expect['code']}")


def check_f_numeric(job, outcome, state):
    bits = job.bits
    value = outcome.value if isinstance(outcome, Dual) else outcome
    exact = reference(state, job, "F(1)", lambda: evaluate(
        terms_of(f_function(job.ci, job.field)), 1, bits))
    require(agrees(value, exact, bits), "f_numeric value disagrees")
    if "direction" in job.expect:
        require(isinstance(outcome, Dual), "f_numeric dropped the tangent")
        tangent = reference(state, job, "dF(1)", lambda: evaluate(
            terms_of(fut_derivative(job.ci, job.field, job.expect["direction"])),
            1, bits))
        require(agrees(outcome.derivative, tangent, bits),
                "f_numeric derivative disagrees with Fut_V(W)")


def check_soliton(job, outcome, state):
    payload = _cli_payload(outcome)
    ci = job.ci
    if job.expect["trivial"]:
        require(payload["trivial"] is True and payload["coefficients"] == [],
                "a zero-dimensional torus must give the trivial field")
        return
    require(payload["trivial"] is False, "nontrivial torus reported trivial")
    basis = admissible_torus(ci).basis
    coeffs = [Fraction(c) for c in payload["coefficients"]]
    require(len(coeffs) == len(basis), "one coefficient per torus direction")

    def field_at(cs):
        eig = tuple(sum((c * vec[i] for c, vec in zip(cs, basis)), Fraction(0))
                    for i in range(ci.ambient_dim + 1))
        return DiagonalField(eig, derive_weights(ci, eig))

    at_max = field_at(coeffs)
    tol = mpmath.mpf(job.expect["tol"])
    for vec in basis:
        direction = DiagonalField(vec, derive_weights(ci, vec))
        slope = evaluate(terms_of(fut_derivative(ci, at_max, direction)), 1,
                         job.bits)
        require(abs(slope) < tol, f"Fut_V(W) = {mpmath.nstr(slope, 5)} at the "
                                  "reported maximiser")
    top = evaluate(terms_of(f_function(ci, at_max)), 1, job.bits)
    for j in range(len(basis)):
        for sign in (1, -1):
            moved = list(coeffs)
            moved[j] += sign * PROBE_STEP
            value = evaluate(terms_of(f_function(ci, field_at(moved))), 1, job.bits)
            require(value <= top, "F is higher next to the reported maximiser")


def check_quantize(job, outcome, state):
    payload = _cli_payload(outcome)
    k, t = job.expect["k"], job.expect["t"]
    count = section_count(job.ci, k)
    require(payload["k"] == k and payload["nk"] == count,
            f"N_k = {payload['nk']}, expected {count}")
    if t == 0:
        require(hex_value(payload["fk"]) == -k * count, "F_k(0) != -k N_k")
        return
    value = reference(state, job, ("F", t),
                      lambda: evaluate(reference_f(job, state), t, job.bits))
    require(agrees(hex_value(payload["localization"]), value, job.bits),
            "localization value disagrees")
    # F_k/(k N_k) = F + a/k + b/k^2 + ..., so k times the error stays
    # bounded, while an offset that does not vanish doubles it at each level.
    # So k |error| at the top level may not exceed 1.5 times its largest
    # value below. Neither the error nor the steps of k times it need fall at
    # every level: where the leading terms differ in sign they pass through 0
    # at some level and grow again before they fall.
    with mpmath.workprec(job.bits + 64):
        scaled_error = abs(k * (to_mpf(hex_value(payload["ratio"])) - value))
    ladder = state.setdefault("ladders", {}).setdefault(job.expect["ladder"], {})
    ladder[k] = scaled_error
    if job.expect["last"]:
        below = [ladder[level] for level in sorted(ladder) if level < k]
        require(scaled_error <= TOP_LEVEL_GROWTH * max(below, default=0),
                "k |F_k/(k N_k) - F| grows at the top of the ladder: "
                "F_k/(k N_k) does not converge to F like 1/k")


CHECKS = {
    "eval": check_eval,
    "derivative": check_derivative,
    "verify": check_verify,
    "malformed": check_malformed,
    "f_numeric": check_f_numeric,
    "soliton": check_soliton,
    "quantize": check_quantize,
}


def check(job, outcome, state):
    """Raise CheckFailed unless the job's outcome is correct.

    Any error while reading the output means the output is wrong.
    """
    try:
        CHECKS[job.kind](job, outcome, state)
    except CheckFailed:
        raise
    except Exception as exc:
        raise CheckFailed(f"unreadable output: {type(exc).__name__}: {exc}") \
            from exc
