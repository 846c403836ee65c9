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
3 evaluation error (pole), 4 solver failure, 5 verification failure.

Sizes are bounded so that no input runs without limit: --precision (and
FUTAKI_PRECISION_BITS) must lie in 64..4096 bits, and quantize --k must be
positive with k*m at most 2048, m the Fano index. Anything outside fails with
exit 2 before any computation starts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

import mpmath

from .exactalg import (DEFAULT_PRECISION_BITS, EvalAtPole, PoleAtZero)
from .futaki import f_function, f_function_via_recursion, fut_derivative
from .geometry import (CompleteIntersectionSpec, DiagonalField,
                       ValidationError, anticanonical_degree, derive_weights,
                       validate)
from .localization import verify_recursion
from .quantize import convergence_report, fk, nk
from .soliton import NoConvergence, admissible_torus, find_soliton

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_EVAL = 3
EXIT_SOLVER = 4
EXIT_VERIFY = 5

MIN_PRECISION_BITS = 64
MAX_PRECISION_BITS = 4096
MAX_QUANTIZE_DEGREE = 2048


def _parse_rational(text, field_name):
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"field {field_name!r}: not a rational: {text!r}") from exc


def _parse_rationals(raw, field_name):
    if not isinstance(raw, list):
        raise ValidationError(f"field {field_name!r}: expected a list, got {raw!r}")
    return tuple(_parse_rational(x, field_name) for x in raw)


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

    raw_eigen = doc.get("eigenvalues")
    if raw_eigen is None:
        eigenvalues = (Fraction(0),) * (ci.ambient_dim + 1)
    else:
        eigenvalues = _parse_rationals(raw_eigen, "eigenvalues")

    raw_weights = doc.get("weights")
    if raw_weights is not None:
        weights = _parse_rationals(raw_weights, "weights")
        if ci.supports is not None:
            derived = derive_weights(ci, eigenvalues)
            if derived != weights:
                raise ValidationError(
                    f"field 'weights': given {tuple(map(str, weights))} but "
                    f"supports derive {tuple(map(str, derived))}")
    elif ci.supports is not None:
        weights = derive_weights(ci, eigenvalues)
    elif not any(eigenvalues):
        weights = (Fraction(0),) * ci.codim
    elif ci.codim == 0:
        weights = ()
    else:
        raise ValidationError(
            "field 'weights': required when supports are absent and the "
            "field is nonzero")

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
    terms = []
    for mu in sorted(p.terms):
        lp = p.terms[mu]
        terms.append({
            "frequency": str(mu),
            "coefficients": {str(e): str(lp.terms[e]) for e in sorted(lp.terms)},
        })
    return {"expression": p.to_string(), "terms": terms}


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


def cmd_eval(ci, field, args):
    value = f_function(ci, field)
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
    _emit(payload, args)
    return EXIT_OK


def cmd_derivative(ci, field, args):
    try:
        doc = json.loads(args.direction)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"--direction is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "eigenvalues" not in doc:
        raise ValidationError("--direction must be an object with 'eigenvalues'")
    eigen = _parse_rationals(doc["eigenvalues"], "direction.eigenvalues")
    if "weights" in doc:
        wts = _parse_rationals(doc["weights"], "direction.weights")
    elif ci.supports is not None:
        wts = derive_weights(ci, eigen)
    else:
        wts = (Fraction(0),) * ci.codim
    direction = DiagonalField(eigen, wts)
    value = fut_derivative(ci, field, direction)
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
    _emit(payload, args)
    return EXIT_OK


def cmd_quantize(ci, field, args):
    t = _parse_rational(args.t, "--t")
    k = args.k
    if k < 1:
        raise ValidationError(f"--k must be a positive level, got {k}")
    if k * ci.fano_index > MAX_QUANTIZE_DEGREE:
        raise ValidationError(
            f"--k {k} with fano index {ci.fano_index} exceeds the limit "
            f"k*m <= {MAX_QUANTIZE_DEGREE}")
    dim = nk(ci, k)
    level_value = fk(ci, field, k, t, args.precision)
    reference = f_function(ci, field).evaluate(t, args.precision)
    with mpmath.workprec(args.precision + 32):
        ratio = level_value / (k * dim)
        error = abs(ratio - reference)
    payload = {
        "k": k,
        "nk": dim,
        "t": str(t),
        "precision_bits": args.precision,
        "fk": _format_mpf(level_value, args.precision),
        "ratio": _format_mpf(ratio, args.precision),
        "localization": _format_mpf(reference, args.precision),
        "error": _format_mpf(error, args.precision),
        "metadata": _metadata(ci, field),
    }
    _emit(payload, args)
    return EXIT_OK


def cmd_soliton(ci, field, args):
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
    t = _parse_rational(args.t, "--t")
    checks = []

    value = f_function(ci, field)
    checks.append(("two_path_equality",
                   value == f_function_via_recursion(ci, field)))
    recursion = verify_recursion(ci, field)
    checks.append(("recursion_identity", recursion.ok))
    scaling_ok = all(
        f_function(ci, field.scaled(c)) == value.scale_t(c)
        for c in (Fraction(2), Fraction(-1), Fraction(1, 3)))
    checks.append(("scaling_covariance", scaling_ok))
    checks.append(("limit_normalization",
                   value.limit_at_zero() == Fraction(-1)))
    rows = convergence_report(ci, field, t, (8, 16, 32, 64), args.precision)
    errors = [row.error for row in rows]
    tiny = mpmath.mpf("1e-30")
    conv_ok = (all(e < tiny for e in errors)
               or all(b < a for a, b in zip(errors, errors[1:])))
    checks.append(("quantized_convergence", conv_ok))

    payload = {
        "checks": [{"name": name, "ok": ok} for name, ok in checks],
        "metadata": _metadata(ci, field),
    }
    failed = [name for name, ok in checks if not ok]
    payload["status"] = "ok" if not failed else f"failed: {failed[0]}"
    _emit(payload, args)
    return EXIT_OK if not failed else EXIT_VERIFY


def build_parser():
    # a string default goes through type=int, so a bad value exits 2 too
    default_precision = os.environ.get("FUTAKI_PRECISION_BITS",
                                       str(DEFAULT_PRECISION_BITS))
    parser = argparse.ArgumentParser(
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
    p_eval.add_argument("--numeric", action="store_true",
                        help="kept for compatibility; numeric output follows --t")

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
    except json.JSONDecodeError as exc:
        raise ValidationError(f"input is not valid JSON: {exc}") from exc


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if not MIN_PRECISION_BITS <= args.precision <= MAX_PRECISION_BITS:
            raise ValidationError(
                f"--precision must lie in {MIN_PRECISION_BITS}.."
                f"{MAX_PRECISION_BITS} bits, got {args.precision}")
        doc = _read_document(args.input)
        ci, field = load_input(doc)
        return args.handler(ci, field, args)
    except ValidationError as exc:
        _report_error(args, exc.code, str(exc))
        return EXIT_INVALID
    except (PoleAtZero, EvalAtPole) as exc:
        _report_error(args, "evaluation_error", str(exc))
        return EXIT_EVAL
    except NoConvergence as exc:
        _report_error(args, "no_convergence", str(exc))
        return EXIT_SOLVER


def _report_error(args, code, message):
    if getattr(args, "format", "text") == "json":
        print(json.dumps({"error": {"code": code, "message": message}},
                         indent=2, sort_keys=True))
    else:
        print(f"error [{code}]: {message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
