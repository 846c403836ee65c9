"""Command-line surface: JSON in, canonical expressions and JSON out.

Input document (rationals as strings, so eigenvalues are never contaminated
by binary floats):

    {
      "ambient_dim": 3,
      "degrees": [3],
      "supports": [[[1,2,0,0],[0,0,2,1],[0,0,1,2]]],   // optional
      "eigenvalues": ["-7", "5", "1", "1"],            // optional, default 0
      "weights": ["3"]                                  // optional when
    }                                                   // supports are given

Exit codes are a stable contract: 0 ok, 2 input/validation error,
3 evaluation error (a pole, code evaluation_error; or a sum that missed the
requested precision after every guard pass, code precision_not_reached),
4 solver failure, 5 verification failure.

Sizes are bounded so that no input runs without limit: ambient_dim must be
at most 64, --precision (and FUTAKI_PRECISION_BITS) must lie in 64..4096
bits, every rational (an eigenvalue, a weight, a direction or --t) may have
at most 100 digits in its numerator and in its denominator as written,
quantize --k must be positive with k*m at most 2048, m the Fano index,
quantize and verify take at most 10 defining polynomials (at most 1024
Koszul terms, one per subset), and soliton --max-iter must lie in 0..1000
with --tol finite and positive.
Anything outside fails with exit 2 before any computation starts, except
that eval and derivative read --t after the expression is computed. Exact
results print at any size. Usage errors (an unknown option, a non-integer
--k or FUTAKI_PRECISION_BITS) exit 2 as well; under --format json they print
the same error document as every other invalid input.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction

import mpmath

from .exactalg import (DEFAULT_PRECISION_BITS, EvalAtPole, PoleAtZero,
                       PrecisionNotReached)
from .futaki import f_function, f_function_via_recursion, fut_derivative
from .geometry import (CompleteIntersectionSpec, DiagonalField,
                       ValidationError, anticanonical_degree, derive_weights,
                       validate)
from .localization import verify_recursion
from .quantize import ConvergenceRow, convergence_report, fk
from .soliton import NoConvergence, admissible_torus, find_soliton

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_EVAL = 3
EXIT_SOLVER = 4
EXIT_VERIFY = 5

MIN_PRECISION_BITS = 64
MAX_PRECISION_BITS = 4096
MAX_AMBIENT_DIM = 64
MAX_RATIONAL_DIGITS = 100
MAX_NEWTON_ITERATIONS = 1000
MAX_QUANTIZE_DEGREE = 2048
MAX_KOSZUL_SUBSETS = 2 ** 10


# The forms that Fraction reads, split up so that digits are counted before
# a number is built: 1e100000000 must not cost a 10^8-digit integer.
_RATIONAL_FORM = re.compile(
    r"\s*[-+]?(?P<num>[\d_]*)(?:/(?P<den>[\d_]+)"
    r"|(?:\.(?P<frac>[\d_]*))?(?:[eE](?P<exp>[-+]?[\d_]+))?)\s*")


def _written_digits(form):
    """Digits of the numerator and of the denominator as written, unreduced."""
    num, den, frac, exp = ((form[part] or "").replace("_", "")
                           for part in ("num", "den", "frac", "exp"))
    digits = len((num + frac).lstrip("0"))
    if form["den"] is not None:
        return digits, len(den.lstrip("0"))
    # the first nine digits of a longer exponent are past the limit already
    shift = int(exp.lstrip("+-").lstrip("0")[:9] or 0)
    shift = (-shift if exp.startswith("-") else shift) - len(frac)
    return digits + max(0, shift), 1 + max(0, -shift)


def _parse_rational(text, field_name):
    form = _RATIONAL_FORM.fullmatch(str(text))
    if form and max(_written_digits(form)) > MAX_RATIONAL_DIGITS:
        raise ValidationError(
            f"field {field_name!r}: a numerator or denominator has more than "
            f"{MAX_RATIONAL_DIGITS} digits")
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"field {field_name!r}: not a rational: {text!r}") from exc


def _parse_rationals(raw, field_name):
    if not isinstance(raw, list):
        raise ValidationError(f"field {field_name!r}: expected a list, got {raw!r}")
    return tuple(_parse_rational(x, field_name) for x in raw)


def _default_weights(ci, eigenvalues, field_name):
    """Weights of a field whose document gives none.

    They follow from the supports; without supports only the zero field, or
    an intersection of codimension 0, has weights that go without saying.
    """
    if ci.supports is not None:
        return derive_weights(ci, eigenvalues)
    if ci.codim and any(eigenvalues):
        raise ValidationError(
            f"field {field_name!r}: required when supports are absent and "
            "the field is nonzero")
    return (Fraction(0),) * ci.codim


def load_input(doc):
    """Build the validated pair (intersection, field) from a JSON document."""
    if not isinstance(doc, dict):
        raise ValidationError("input document must be a JSON object")
    for key in ("ambient_dim", "degrees"):
        if key not in doc:
            raise ValidationError(f"missing required field {key!r}")
    try:
        ci = CompleteIntersectionSpec.create(
            doc["ambient_dim"], doc["degrees"], doc.get("supports"))
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ValidationError):
            raise
        raise ValidationError(f"malformed geometry fields: {exc}") from exc
    if ci.ambient_dim > MAX_AMBIENT_DIM:
        raise ValidationError(f"ambient_dim must be at most {MAX_AMBIENT_DIM}, "
                              f"got {ci.ambient_dim}")

    raw_eigen = doc.get("eigenvalues")
    if raw_eigen is None:
        eigenvalues = (Fraction(0),) * (ci.ambient_dim + 1)
    else:
        eigenvalues = _parse_rationals(raw_eigen, "eigenvalues")

    raw_weights = doc.get("weights")
    if raw_weights is None:
        weights = _default_weights(ci, eigenvalues, "weights")
    else:
        weights = _parse_rationals(raw_weights, "weights")
        if ci.supports is not None:
            derived = derive_weights(ci, eigenvalues)
            if derived != weights:
                raise ValidationError(
                    f"field 'weights': given {tuple(map(str, weights))} but "
                    f"supports derive {tuple(map(str, derived))}")

    field = DiagonalField(eigenvalues, weights)
    validate(ci, field)
    return ci, field


def _digits(precision_bits):
    return max(8, int(precision_bits * 0.30103))


def _format_mpf(x, precision_bits):
    """Decimal rendering plus a bit-exact hex mantissa/exponent field."""
    decimal = mpmath.nstr(x, _digits(precision_bits), strip_zeros=False)
    value = x if hasattr(x, "_mpf_") else mpmath.mpf(x)
    sign, man, exp, _ = value._mpf_
    hexval = ("-" if sign else "") + hex(man) + "p" + format(exp, "+d")
    return {"decimal": decimal, "hex": hexval}


def _metadata(ci, field):
    meta = {
        "ambient_dim": ci.ambient_dim,
        "degrees": list(ci.degrees),
        "fano_index": ci.fano_index,
        "anticanonical_degree": anticanonical_degree(ci),
        "eigenvalues": [str(x) for x in field.eigenvalues],
        "weights": [str(x) for x in field.weights],
    }
    if ci.supports is not None:
        meta["torus_dimension"] = admissible_torus(ci).dimension
    return meta


def _expression_block(p):
    # exact results print at any size; Python's int-to-str digit limit stays
    # in force everywhere else, input parsing included
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        terms = [{"frequency": str(mu),
                  "coefficients": {str(e): str(c) for e, c in sorted(lp.terms.items())}}
                 for mu, lp in sorted(p.terms.items())]
        return {"expression": p.to_string(), "terms": terms}
    finally:
        sys.set_int_max_str_digits(limit)


def _emit(payload, args):
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        _emit_text(payload)


def _emit_text(payload, indent=""):
    for key, value in payload.items():
        if isinstance(value, dict):
            print(f"{indent}{key}:")
            _emit_text(value, indent + "  ")
        elif isinstance(value, list):
            print(f"{indent}{key}:")
            for item in value:
                if isinstance(item, dict):
                    _emit_text(item, indent + "  ")
                else:
                    print(f"{indent}  {item}")
        else:
            print(f"{indent}{key}: {value}")


def cmd_check(ci, field, args):
    payload = {"status": "ok", "metadata": _metadata(ci, field)}
    _emit(payload, args)
    return EXIT_OK


def _numeric_block(ci, field, value, args):
    """The expression, the metadata and, with --t, the value at t."""
    payload = _expression_block(value)
    payload["metadata"] = _metadata(ci, field)
    if args.t is not None:
        t = _parse_rational(args.t, "--t")
        numeric = value.evaluate(t, args.precision)
        payload["numeric"] = {
            "t": str(t),
            "precision_bits": args.precision,
            **_format_mpf(numeric, args.precision),
        }
    return payload


def cmd_eval(ci, field, args):
    _emit(_numeric_block(ci, field, f_function(ci, field), args), args)
    return EXIT_OK


def cmd_derivative(ci, field, args):
    try:
        doc = json.loads(args.direction)
    except ValueError as exc:  # also an integer past Python's digit limit
        raise ValidationError(f"--direction is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "eigenvalues" not in doc:
        raise ValidationError("--direction must be an object with 'eigenvalues'")
    eigen = _parse_rationals(doc["eigenvalues"], "direction.eigenvalues")
    if "weights" in doc:
        wts = _parse_rationals(doc["weights"], "direction.weights")
    else:
        wts = _default_weights(ci, eigen, "direction.weights")
    direction = DiagonalField(eigen, wts)
    value = fut_derivative(ci, field, direction)
    _emit(_numeric_block(ci, field, value, args), args)
    return EXIT_OK


def _check_koszul_size(ci):
    """Refuse a codimension whose Koszul sums over 2^s subsets are too long."""
    if 2 ** ci.codim > MAX_KOSZUL_SUBSETS:
        raise ValidationError(
            f"{ci.codim} defining polynomials give 2^{ci.codim} Koszul terms; "
            f"quantize and verify take at most {MAX_KOSZUL_SUBSETS}")


def cmd_quantize(ci, field, args):
    _check_koszul_size(ci)
    t = _parse_rational(args.t, "--t")
    k = args.k
    if k < 1:
        raise ValidationError(f"--k must be a positive level, got {k}")
    if k * ci.fano_index > MAX_QUANTIZE_DEGREE:
        raise ValidationError(
            f"--k {k} with fano index {ci.fano_index} exceeds the limit "
            f"k*m <= {MAX_QUANTIZE_DEGREE}")
    row = ConvergenceRow.at_level(
        ci, k, fk(ci, field, k, t, args.precision),
        f_function(ci, field).evaluate(t, args.precision), args.precision)
    payload = {
        "k": k,
        "nk": row.nk,
        "t": str(t),
        "precision_bits": args.precision,
        "fk": _format_mpf(row.fk, args.precision),
        "ratio": _format_mpf(row.ratio, args.precision),
        "localization": _format_mpf(row.reference, args.precision),
        "error": _format_mpf(row.error, args.precision),
        "metadata": _metadata(ci, field),
    }
    _emit(payload, args)
    return EXIT_OK


def cmd_soliton(ci, field, args):
    if args.max_iter > MAX_NEWTON_ITERATIONS:
        raise ValidationError(
            f"--max-iter must be at most {MAX_NEWTON_ITERATIONS}, "
            f"got {args.max_iter}")
    result = find_soliton(ci, tol=args.tol, max_iter=args.max_iter,
                          precision_bits=args.precision)
    payload = {
        "trivial": result.trivial,
        "iterations": result.iterations,
        "coefficients": [mpmath.nstr(c, _digits(args.precision))
                         for c in result.coefficients],
        "eigenvalues": [mpmath.nstr(x, _digits(args.precision))
                        for x in result.eigenvalues],
        "gradient_norm": mpmath.nstr(result.gradient_norm, 10),
        "f_value": _format_mpf(result.f_value, args.precision),
        "metadata": _metadata(ci, field),
    }
    _emit(payload, args)
    return EXIT_OK


def cmd_verify(ci, field, args):
    _check_koszul_size(ci)
    t = _parse_rational(args.t, "--t")
    checks = []

    value = f_function(ci, field)
    checks.append(("two_path_equality",
                   value == f_function_via_recursion(ci, field)))
    checks.append(("recursion_identity", verify_recursion(ci, field) is None))
    scaling_ok = all(
        f_function(ci, field.scaled(c)) == value.scale_t(c)
        for c in (Fraction(2), Fraction(-1), Fraction(1, 3)))
    checks.append(("scaling_covariance", scaling_ok))
    checks.append(("limit_normalization",
                   value.limit_at_zero() == Fraction(-1)))
    # F_k/(k N_k) = F + a/k + b/k^2 + ..., so k |error| stays bounded while a
    # nonvanishing offset doubles it at each level. Neither need fall at every
    # level, so only the top level is held to 1.5 times the largest below it.
    rows = convergence_report(ci, field, t, (8, 16, 32, 64), args.precision)
    scaled = [row.k * row.error for row in rows]
    tiny = mpmath.mpf("1e-30")
    conv_ok = (all(row.error < tiny for row in rows)
               or scaled[-1] <= mpmath.mpf("1.5") * max(scaled[:-1]))
    checks.append(("quantized_convergence", conv_ok))

    payload = {
        "checks": [{"name": name, "ok": ok} for name, ok in checks],
        "metadata": _metadata(ci, field),
    }
    failed = [name for name, ok in checks if not ok]
    payload["status"] = "ok" if not failed else f"failed: {failed[0]}"
    _emit(payload, args)
    return EXIT_OK if not failed else EXIT_VERIFY


class _UsageError(ValidationError):
    """A command-line usage error, with the parser that found it."""

    def __init__(self, parser, message):
        super().__init__(message)
        self.parser = parser


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(self, message)


@functools.cache
def build_parser(default_precision):
    # a string default goes through type=int, so a bad value exits 2 too
    parser = _ArgumentParser(
        prog="modfutaki",
        description="Tian-Zhu functional and modified Futaki invariant for "
                    "Fano complete intersections in projective space")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **extra):
        p = sub.add_parser(name)
        p.add_argument("input", nargs="?", default="-",
                       help="path to the JSON input document, or - for stdin")
        p.add_argument("--precision", type=int, default=default_precision,
                       help=f"working precision in bits, {MIN_PRECISION_BITS}"
                            f"..{MAX_PRECISION_BITS}")
        p.set_defaults(handler=fn)
        return p

    add("check", cmd_check)

    p_eval = add("eval", cmd_eval)
    p_eval.add_argument("--t", default=None, help="rational evaluation point")

    p_der = add("derivative", cmd_derivative)
    p_der.add_argument("--direction", required=True,
                       help='JSON object such as {"eigenvalues": ["1","-1"], '
                            '"weights": ["2"]}')
    p_der.add_argument("--t", default=None, help="rational evaluation point")

    p_q = add("quantize", cmd_quantize)
    p_q.add_argument("--k", type=int, required=True,
                     help=f"quantization level, k*m <= {MAX_QUANTIZE_DEGREE}")
    p_q.add_argument("--t", default="0", help="rational evaluation point")

    p_s = add("soliton", cmd_soliton)
    p_s.add_argument("--tol", type=float, default=1e-10)
    p_s.add_argument("--max-iter", type=int, default=60)

    p_v = add("verify", cmd_verify)
    p_v.add_argument("--t", default="1/4",
                     help="rational point for the convergence check")

    return parser


def _read_document(path):
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ValidationError(f"cannot read input: {exc}") from exc
    try:
        return json.loads(text)
    except ValueError as exc:  # also an integer past Python's digit limit
        raise ValidationError(f"input is not valid JSON: {exc}") from exc


def _is_rational(token):
    try:
        Fraction(token)
    except (ValueError, ZeroDivisionError):
        return False
    return True


def _join_negative_t(argv):
    """argv with each `--t -3/7` joined into `--t=-3/7`.

    argparse reads a token that starts with '-' as an option unless it looks
    like -3 or -0.5, so `--t -3/7` would leave --t without its argument.
    Only a token that parses as a rational is joined, and none after `--`.
    """
    out = []
    for token in argv:
        if (out and out[-1] == "--t" and token.startswith("-")
                and _is_rational(token) and "--" not in out):
            out[-1] = f"--t={token}"
        else:
            out.append(token)
    return out


def main(argv=None):
    parser = build_parser(os.environ.get("FUTAKI_PRECISION_BITS",
                                         str(DEFAULT_PRECISION_BITS)))
    args = argparse.Namespace()
    try:
        parser.parse_args(
            _join_negative_t(sys.argv[1:] if argv is None else argv), args)
        if not MIN_PRECISION_BITS <= args.precision <= MAX_PRECISION_BITS:
            raise ValidationError(
                f"--precision must lie in {MIN_PRECISION_BITS}.."
                f"{MAX_PRECISION_BITS} bits, got {args.precision}")
        doc = _read_document(args.input)
        ci, field = load_input(doc)
        return args.handler(ci, field, args)
    except ValidationError as exc:
        # --format is parsed before a subcommand whose arguments fail
        if isinstance(exc, _UsageError) and args.format != "json":
            argparse.ArgumentParser.error(exc.parser, str(exc))
        _report_error(args, exc.code, str(exc))
        return EXIT_INVALID
    except (PoleAtZero, EvalAtPole) as exc:
        _report_error(args, "evaluation_error", str(exc))
        return EXIT_EVAL
    except PrecisionNotReached as exc:
        _report_error(args, "precision_not_reached", str(exc))
        return EXIT_EVAL
    except NoConvergence as exc:
        _report_error(args, "no_convergence", str(exc))
        return EXIT_SOLVER


def _report_error(args, code, message):
    if args.format == "json":
        print(json.dumps({"error": {"code": code, "message": message}},
                         indent=2, sort_keys=True))
    else:
        print(f"error [{code}]: {message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
