"""Command-line contract: schemas, round trips, determinism, exit codes."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from unittest import mock

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modfutaki import (ConvergenceRow, ExpPoly, cli, exactalg, localization,
                       quantize, soliton)
from modfutaki.cli import main

from conftest import CUBIC_F

CUBIC_DOC = {
    "ambient_dim": 3,
    "degrees": [3],
    "supports": [[[1, 2, 0, 0], [0, 0, 2, 1], [0, 0, 1, 2]]],
    "eigenvalues": ["-7", "5", "1", "1"],
}

QUADRICS_DOC = {
    "ambient_dim": 4,
    "degrees": [2, 2],
    "supports": [[[1, 1, 0, 0, 0], [0, 0, 2, 0, 0]],
                 [[0, 2, 0, 0, 0], [0, 0, 0, 1, 1]]],
    "eigenvalues": ["-7", "3", "-2", "5", "1"],
    "weights": ["-4", "6"],
}


@pytest.fixture
def cubic_path(tmp_path):
    path = tmp_path / "cubic.json"
    path.write_text(json.dumps(CUBIC_DOC))
    return str(path)


@pytest.fixture
def quadrics_path(tmp_path):
    path = tmp_path / "quadrics.json"
    path.write_text(json.dumps(QUADRICS_DOC))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestCheck:
    def test_cubic(self, cubic_path, capsys):
        code, out = run(capsys, "--format", "json", "check", cubic_path)
        assert code == 0
        doc = json.loads(out)
        assert doc["metadata"]["fano_index"] == 1
        assert doc["metadata"]["weights"] == ["3"]
        assert doc["metadata"]["anticanonical_degree"] == 3
        assert doc["metadata"]["torus_dimension"] == 1

    def test_quadrics(self, quadrics_path, capsys):
        code, out = run(capsys, "--format", "json", "check", quadrics_path)
        assert code == 0
        doc = json.loads(out)
        assert doc["metadata"]["weights"] == ["-4", "6"]
        assert doc["metadata"]["anticanonical_degree"] == 4

    def test_not_fano_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"ambient_dim": 3, "degrees": [4]}))
        code, _ = run(capsys, "check", str(path))
        assert code == 2


class TestEval:
    def test_expression_roundtrips(self, cubic_path, capsys):
        code, out = run(capsys, "--format", "json", "eval", cubic_path)
        assert code == 0
        doc = json.loads(out)
        assert ExpPoly.parse(doc["expression"]) == CUBIC_F

    def test_limit_at_zero(self, cubic_path, capsys):
        code, out = run(capsys, "--format", "json", "eval", cubic_path,
                        "--t", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["numeric"]["decimal"].startswith("-1.0")

    def test_numeric_value(self, quadrics_path, capsys):
        code, out = run(capsys, "--format", "json", "eval", quadrics_path,
                        "--t", "1/10", "--precision", "256")
        assert code == 0
        doc = json.loads(out)
        assert doc["numeric"]["hex"]
        assert doc["numeric"]["t"] == "1/10"

    def test_deterministic_output(self, cubic_path, capsys):
        _, first = run(capsys, "--format", "json", "eval", cubic_path,
                       "--t", "1/4")
        _, second = run(capsys, "--format", "json", "eval", cubic_path,
                        "--t", "1/4")
        assert first == second

    def test_mismatched_weights_exit_2(self, tmp_path, capsys):
        doc = dict(CUBIC_DOC, weights=["4"])
        path = tmp_path / "w.json"
        path.write_text(json.dumps(doc))
        code, _ = run(capsys, "eval", str(path))
        assert code == 2


class TestDerivative:
    def test_self_direction(self, cubic_path, capsys):
        direction = json.dumps({"eigenvalues": ["-7", "5", "1", "1"]})
        code, out = run(capsys, "--format", "json", "derivative", cubic_path,
                        "--direction", direction)
        assert code == 0
        doc = json.loads(out)
        from modfutaki import LaurentPoly
        expected = CUBIC_F.t_derivative() * LaurentPoly({1: Fraction(1)})
        assert ExpPoly.parse(doc["expression"]) == expected

    def test_zero_direction(self, cubic_path, capsys):
        direction = json.dumps({"eigenvalues": ["0", "0", "0", "0"]})
        code, out = run(capsys, "--format", "json", "derivative", cubic_path,
                        "--direction", direction)
        assert code == 0
        assert json.loads(out)["expression"] == "0"

    def test_inconsistent_direction_exit_2(self, cubic_path, capsys):
        direction = json.dumps({"eigenvalues": ["1", "0", "0", "-1"]})
        code, _ = run(capsys, "derivative", cubic_path,
                      "--direction", direction)
        assert code == 2

    @pytest.mark.parametrize("direction,expected", [
        ({"eigenvalues": ["1", "-1", "0", "0"]}, 2),
        ({"eigenvalues": ["1", "-1", "0", "0"], "weights": ["1"]}, 0),
        ({"eigenvalues": ["0", "0", "0", "0"]}, 0),
    ], ids=["nonzero-without-weights", "nonzero-with-weights", "zero"])
    def test_direction_weights_without_supports(self, tmp_path, capsys,
                                                direction, expected):
        # without supports only the zero direction has weights by default
        path = tmp_path / "quadric.json"
        path.write_text(json.dumps({"ambient_dim": 3, "degrees": [2]}))
        code, out = run(capsys, "--format", "json", "derivative", str(path),
                        "--direction", json.dumps(direction))
        assert code == expected
        if expected:
            assert error_code(out) == "invalid_input"


class TestQuantize:
    def test_zero_field_zero_error(self, tmp_path, capsys):
        doc = {"ambient_dim": 2, "degrees": []}
        path = tmp_path / "plane.json"
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "--format", "json", "quantize", str(path),
                        "--k", "1")
        assert code == 0
        parsed = json.loads(out)
        assert parsed["nk"] == 10
        assert float(parsed["error"]["decimal"]) == 0.0

    def test_cubic_row(self, cubic_path, capsys):
        code, out = run(capsys, "--format", "json", "quantize", cubic_path,
                        "--k", "8", "--t", "1/4")
        assert code == 0
        parsed = json.loads(out)
        assert parsed["nk"] > 0
        assert float(parsed["error"]["decimal"]) > 0


class TestSoliton:
    def test_fermat_trivial(self, tmp_path, capsys):
        doc = {
            "ambient_dim": 3, "degrees": [3],
            "supports": [[[3, 0, 0, 0], [0, 3, 0, 0],
                          [0, 0, 3, 0], [0, 0, 0, 3]]],
        }
        path = tmp_path / "fermat.json"
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "--format", "json", "soliton", str(path))
        assert code == 0
        assert json.loads(out)["trivial"] is True

    def test_no_convergence_exit_4(self, cubic_path, capsys):
        code, _ = run(capsys, "soliton", cubic_path, "--max-iter", "0")
        assert code == 4


class TestVerify:
    def test_cubic_passes(self, cubic_path, capsys):
        code, out = run(capsys, "--format", "json", "verify", cubic_path)
        assert code == 0
        doc = json.loads(out)
        assert all(check["ok"] for check in doc["checks"])

    def test_non_traceless_exit_2(self, tmp_path, capsys):
        doc = dict(CUBIC_DOC, eigenvalues=["-7", "5", "1", "2"])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _ = run(capsys, "verify", str(path))
        assert code == 2

    def test_error_need_not_fall_at_every_level(self, tmp_path, capsys):
        # the errors at k = 8, 16, 32, 64 are 2.1e-4, 5.4e-4, 3.8e-4, 2.2e-4,
        # so k |error| grows by less than half at the top level
        doc = {"ambient_dim": 3, "degrees": [1],
               "eigenvalues": ["-3", "10/3", "-4", "11/3"], "weights": ["-8"]}
        path = tmp_path / "plane.json"
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "--format", "json", "verify", str(path),
                        "--t", "1/4")
        assert code == 0
        assert all(check["ok"] for check in json.loads(out)["checks"])

    def test_offset_ladder_fails(self, cubic_path, capsys, monkeypatch):
        # a constant error doubles k |error| at each level: no convergence
        def offset_ladder(ci, field, t, k_list, precision_bits):
            return [ConvergenceRow(k=k, nk=1, fk=None, ratio=None, reference=None,
                                   error=mpmath.mpf("1e-3")) for k in k_list]

        monkeypatch.setattr(cli, "convergence_report", offset_ladder)
        code, out = run(capsys, "--format", "json", "verify", cubic_path)
        assert code == 5
        doc = json.loads(out)
        assert doc["status"] == "failed: quantized_convergence"

    def test_recursion_failure_exits_5(self, quadrics_path, capsys, monkeypatch):
        # futaki binds its own recursion_step, so only the identity check fails
        step = localization.recursion_step

        def broken_step(ci, field, k, prev):
            out = step(ci, field, k, prev)
            return out + ExpPoly({0: Fraction(1)}) if k == 2 else out

        monkeypatch.setattr(localization, "recursion_step", broken_step)
        code, out = run(capsys, "--format", "json", "verify", quadrics_path)
        assert code == 5
        doc = json.loads(out)
        assert doc["status"] == "failed: recursion_identity"
        checks = {check["name"]: check["ok"] for check in doc["checks"]}
        assert checks["two_path_equality"]
        assert not checks["recursion_identity"]


def error_code(out):
    return json.loads(out)["error"]["code"]


class TestMalformedInput:
    @pytest.mark.parametrize("doc", [
        {"ambient_dim": 3, "degrees": [3], "eigenvalues": 5},
        {"ambient_dim": 3, "degrees": [2], "eigenvalues": ["1", "-1", "0", "0"],
         "weights": "1"},
        {"ambient_dim": True, "degrees": [1]},
        {"ambient_dim": 3.5, "degrees": [3]},
        {"ambient_dim": 3, "degrees": [1.5]},
        {"ambient_dim": 3, "degrees": [True]},
        {"ambient_dim": 3, "degrees": [3], "supports": [[[1, 2, 0, 0.5]]]},
        {"ambient_dim": 4, "degrees": "22"},
        {"ambient_dim": 3, "degrees": {"3": 1}},
        {"ambient_dim": 2, "degrees": [2], "supports": [["110", "002"]]},
        {"ambient_dim": 2, "degrees": [2], "supports": [{"110": 1, "002": 1}]},
    ])
    def test_exit_2_invalid_input(self, tmp_path, capsys, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "--format", "json", "eval", str(path))
        assert code == 2
        assert error_code(out) == "invalid_input"

    def test_non_list_direction_exit_2(self, cubic_path, capsys):
        code, out = run(capsys, "--format", "json", "derivative", cubic_path,
                        "--direction", json.dumps({"eigenvalues": 5}))
        assert code == 2
        assert error_code(out) == "invalid_input"


class TestClosedPipe:
    """A reader that closes stdout early gets no traceback and exit 141."""

    ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize("doc", [CUBIC_DOC, {"ambient_dim": 3, "degrees": [4]}],
                             ids=["output", "error document"])
    def test_no_traceback(self, tmp_path, doc, unbuffered):
        # buffered, the write fails at the last flush; unbuffered, in print
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.path.join(self.ROOT, "src")
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "modfutaki.cli", "--format", "json",
                 "check", str(path)],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write_end)
        assert b"Traceback" not in proc.stderr
        assert proc.stderr == b""
        assert proc.returncode == cli.EXIT_PIPE == 141


class TestPrecisionNotReached:
    # the cubic's F cancels about 30 bits at t = 1e-5, more than one pass of
    # evaluate's guard allows
    ARGV = ["eval", "--t", "1/100000"]

    @pytest.fixture(autouse=True)
    def one_guard_pass(self, monkeypatch):
        monkeypatch.setattr(exactalg, "_MAX_GUARD_PASSES", 1)

    def test_json_exits_3(self, cubic_path, capsys):
        code = main(["--format", "json", *self.ARGV, cubic_path])
        captured = capsys.readouterr()
        assert code == 3
        assert error_code(captured.out) == "precision_not_reached"
        assert captured.err == ""

    def test_text_exits_3(self, cubic_path, capsys):
        code = main([*self.ARGV, cubic_path])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("error [precision_not_reached]: ")
        assert captured.err.count("\n") == 1


def refuse_work(*args, **kwargs):
    raise AssertionError("a refused input must not start a computation")


class TestLimits:
    def test_precision_above_limit(self, cubic_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "f_function", refuse_work)
        code, out = run(capsys, "--format", "json", "eval", cubic_path,
                        "--t", "1/4", "--precision", "10000000")
        assert code == 2
        assert error_code(out) == "invalid_input"

    @pytest.mark.parametrize("command", [
        ["eval"],
        ["derivative", "--direction",
         json.dumps({"eigenvalues": ["-7", "5", "1", "1"]})]])
    def test_t_above_limit_before_the_expression(self, cubic_path, capsys,
                                                 monkeypatch, command):
        monkeypatch.setattr(cli, "f_function", refuse_work)
        monkeypatch.setattr(cli, "fut_derivative", refuse_work)
        code, out = run(capsys, "--format", "json", command[0], cubic_path,
                        *command[1:], "--t", "1e101")
        assert code == 2
        assert error_code(out) == "invalid_input"

    def test_precision_from_environment_above_limit(self, cubic_path, capsys,
                                                    monkeypatch):
        monkeypatch.setattr(cli, "f_function", refuse_work)
        monkeypatch.setenv("FUTAKI_PRECISION_BITS", "10000000")
        code, out = run(capsys, "--format", "json", "eval", cubic_path,
                        "--t", "1/4")
        assert code == 2
        assert error_code(out) == "invalid_input"

    def test_precision_from_environment_not_an_integer(self, cubic_path,
                                                       monkeypatch):
        monkeypatch.setenv("FUTAKI_PRECISION_BITS", "lots")
        with pytest.raises(SystemExit) as exc:
            main(["eval", cubic_path])
        assert exc.value.code == 2

    def test_environment_default_is_read_on_every_call(self, cubic_path,
                                                        capsys, monkeypatch):
        argv = ["--format", "json", "eval", cubic_path, "--t", "1/4"]
        monkeypatch.setenv("FUTAKI_PRECISION_BITS", "128")
        code, out = run(capsys, *argv)
        assert json.loads(out)["numeric"]["precision_bits"] == 128
        monkeypatch.delenv("FUTAKI_PRECISION_BITS")
        code, out = run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["numeric"]["precision_bits"] == 256

    def test_precision_at_limit(self, cubic_path, capsys):
        code, out = run(capsys, "--format", "json", "eval", cubic_path,
                        "--t", "1/4", "--precision", str(cli.MAX_PRECISION_BITS))
        assert code == 0
        assert json.loads(out)["numeric"]["precision_bits"] == cli.MAX_PRECISION_BITS

    @pytest.mark.parametrize("option", [
        ("--tol", "-1"), ("--tol", "nan"), ("--tol", "inf"), ("--tol", "0"),
        ("--max-iter", "-3"),
        ("--max-iter", str(cli.MAX_NEWTON_ITERATIONS + 1)),
    ], ids=lambda option: " ".join(option))
    def test_soliton_bounds(self, cubic_path, capsys, monkeypatch, option):
        monkeypatch.setattr(soliton, "_derivatives", refuse_work)
        code, out = run(capsys, "--format", "json", "soliton", cubic_path,
                        *option)
        assert code == 2
        assert error_code(out) == "invalid_input"

    def test_max_iter_at_limit(self, cubic_path, capsys):
        code, out = run(capsys, "--format", "json", "soliton", cubic_path,
                        "--max-iter", str(cli.MAX_NEWTON_ITERATIONS))
        assert code == 0
        assert json.loads(out)["iterations"] == 6

    def test_k_above_limit(self, cubic_path, capsys, monkeypatch):
        monkeypatch.setattr(quantize, "nk", refuse_work)
        monkeypatch.setattr(cli, "fk", refuse_work)
        code, out = run(capsys, "--format", "json", "quantize", cubic_path,
                        "--k", "100000")
        assert code == 2
        assert error_code(out) == "invalid_input"

    def test_k_limit_counts_fano_index(self, tmp_path, capsys, monkeypatch):
        # the plane has m = 3, so the largest level is 2048 // 3
        path = tmp_path / "plane.json"
        path.write_text(json.dumps({"ambient_dim": 2, "degrees": []}))
        top = cli.MAX_QUANTIZE_DEGREE // 3
        code, out = run(capsys, "--format", "json", "quantize", str(path),
                        "--k", str(top))
        assert code == 0
        assert json.loads(out)["k"] == top
        monkeypatch.setattr(cli, "fk", refuse_work)
        code, out = run(capsys, "--format", "json", "quantize", str(path),
                        "--k", str(top + 1))
        assert code == 2
        assert error_code(out) == "invalid_input"

    @pytest.mark.parametrize("command", [
        ["quantize", "--k", "1", "--t", "1/2"], ["verify"]], ids=lambda c: c[0])
    def test_koszul_subsets_above_limit(self, tmp_path, capsys, monkeypatch,
                                        command):
        # 39 linear sections of P^40: 2^39 Koszul terms in nk and fk
        for module, name in ((quantize, "nk"), (cli, "fk"),
                             (cli, "f_function"), (cli, "convergence_report")):
            monkeypatch.setattr(module, name, refuse_work)
        path = tmp_path / "sections.json"
        path.write_text(json.dumps({"ambient_dim": 40, "degrees": [1] * 39}))
        code, out = run(capsys, "--format", "json", command[0], str(path),
                        *command[1:])
        assert code == 2
        assert error_code(out) == "invalid_input"
        assert "Koszul" in json.loads(out)["error"]["message"]

    def test_koszul_subsets_at_limit(self, tmp_path, capsys):
        codim = cli.MAX_KOSZUL_SUBSETS.bit_length() - 1
        for s, expected in ((codim, 0), (codim + 1, 2)):
            path = tmp_path / f"sections{s}.json"
            path.write_text(json.dumps({"ambient_dim": s + 1,
                                        "degrees": [1] * s}))
            for command in (["quantize", "--k", "1", "--t", "1/2"], ["verify"]):
                code, out = run(capsys, "--format", "json", command[0],
                                str(path), *command[1:])
                assert code == expected

    @pytest.mark.parametrize("ambient_dim", [
        cli.MAX_AMBIENT_DIM + 1, 30000000, 1000000000000000, "30000000"],
        ids=repr)
    def test_ambient_dim_above_limit(self, tmp_path, capsys, monkeypatch,
                                     ambient_dim):
        # refused before the N + 1 default eigenvalues are built
        monkeypatch.setattr(cli, "DiagonalField", refuse_work)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"ambient_dim": ambient_dim,
                                    "degrees": [1]}))
        code, out = run(capsys, "--format", "json", "check", str(path))
        assert code == 2
        assert error_code(out) == "invalid_input"
        assert "ambient_dim" in json.loads(out)["error"]["message"]

    def test_ambient_dim_at_limit(self, tmp_path, capsys):
        path = tmp_path / "top.json"
        path.write_text(json.dumps({"ambient_dim": cli.MAX_AMBIENT_DIM,
                                    "degrees": [1]}))
        code, out = run(capsys, "--format", "json", "check", str(path))
        assert code == 0
        meta = json.loads(out)["metadata"]
        assert meta["ambient_dim"] == 64 == cli.MAX_AMBIENT_DIM
        assert len(meta["eigenvalues"]) == 65


class TestNegativeT:
    # argparse takes -3/7 for an option unless main joins it to --t
    @pytest.mark.parametrize("command,extra,t", [
        ("eval", [], "-3/7"),
        ("derivative", ["--direction", json.dumps(
            {"eigenvalues": QUADRICS_DOC["eigenvalues"],
             "weights": QUADRICS_DOC["weights"]})], "-3/7"),
        ("quantize", ["--k", "8"], "-1/2"),
        ("verify", [], "-1/4"),
    ])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_separate_value_matches_joined(self, quadrics_path, capsys,
                                           command, extra, t, fmt):
        argv = ["--format", fmt, command, quadrics_path, *extra]
        outcomes = []
        for tail in (["--t", t], [f"--t={t}"]):
            code = main(argv + tail)
            captured = capsys.readouterr()
            outcomes.append((code, captured.out, captured.err))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == 0
        if fmt == "json" and command != "verify":
            doc = json.loads(outcomes[0][1])
            assert doc.get("numeric", doc)["t"] == t

    @pytest.mark.parametrize("token", ["-x", "-1/0", "-3/"])
    def test_token_that_is_not_rational_exits_2(self, cubic_path, capsys, token):
        code, out = run(capsys, "--format", "json", "eval", cubic_path,
                        "--t", token)
        assert code == 2
        assert error_code(out) == "invalid_input"

    @pytest.mark.parametrize("token", ["-1/0", "-1__0", "-."])
    def test_token_of_the_grammar_is_read_as_t(self, cubic_path, capsys, token):
        # joined, so the message names --t, not argparse's missing argument
        code = main(["eval", cubic_path, "--t", token])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == (f"error [invalid_input]: field '--t': "
                                f"not a rational: {token!r}\n")

    @settings(max_examples=300)
    @given(st.text("0123456789\u0663_./eE +-", max_size=6))
    def test_every_token_that_fraction_reads_is_joined(self, text):
        # the grammar that bounds the digits covers Fraction's, so no token
        # that is a rational reaches Fraction unbounded or stays unjoined
        token = "-" + text
        try:
            Fraction(token)
        except (ValueError, ZeroDivisionError):
            return
        assert cli._join_negative_t(["eval", "--t", token]) == \
            ["eval", f"--t={token}"]

    def test_nothing_after_double_dash_is_joined(self):
        assert cli._join_negative_t(["eval", "--", "--t", "-3/7"]) == \
            ["eval", "--", "--t", "-3/7"]
        assert cli._join_negative_t(["eval", "--t", "-3/7"]) == \
            ["eval", "--t=-3/7"]


class TestUsageErrors:
    @pytest.mark.parametrize("argv,env", [
        (["quantize", "--k", "abc"], None),
        (["eval"], "lots"),
        (["eval", "--numeric"], None),
    ])
    def test_json_error_document(self, cubic_path, capsys, monkeypatch, argv,
                                 env):
        if env is not None:
            monkeypatch.setenv("FUTAKI_PRECISION_BITS", env)
        code, out = run(capsys, "--format", "json", argv[0], cubic_path,
                        *argv[1:])
        assert code == 2
        assert error_code(out) == "invalid_input"

    def test_text_mode_keeps_the_usage_message(self, cubic_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", cubic_path, "--numeric"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: modfutaki [-h]")
        assert err.endswith("modfutaki: error: unrecognized arguments: --numeric\n")


def plane_doc(eigenvalues):
    """A hyperplane in P^(n-1) without supports, so the weight is given."""
    return {"ambient_dim": len(eigenvalues) - 1, "degrees": [1],
            "eigenvalues": eigenvalues, "weights": ["0"]}


class TestOversizedNumbers:
    """Every number past the digit limit exits 2 before any work, and exact
    results print at any size."""

    @pytest.fixture
    def refuse(self, monkeypatch):
        for name in ("f_function", "fut_derivative", "admissible_torus"):
            monkeypatch.setattr(cli, name, refuse_work)

    def write(self, tmp_path, text):
        path = tmp_path / "big.json"
        path.write_text(text)
        return str(path)

    def expect_refused(self, capsys, *argv):
        limit = sys.get_int_max_str_digits()
        code, out = run(capsys, "--format", "json", *argv)
        assert code == 2
        assert error_code(out) == "invalid_input"
        assert sys.get_int_max_str_digits() == limit

    def test_check_eigenvalue_1e5000(self, tmp_path, capsys, refuse):
        doc = {**plane_doc(["1e5000", "-1e5000", "0", "0"]), "degrees": [3]}
        self.expect_refused(capsys, "check", self.write(tmp_path, json.dumps(doc)))

    def test_eval_eigenvalue_1e4000(self, tmp_path, capsys, refuse):
        doc = {**plane_doc(["1e4000", "-1e4000", "0", "0"]), "degrees": [3]}
        self.expect_refused(capsys, "eval", self.write(tmp_path, json.dumps(doc)),
                            "--t", "1")

    def test_eval_eigenvalue_1e200000_is_instant(self, tmp_path, capsys, refuse):
        doc = {**plane_doc(["1e200000", "-1e200000", "0", "0"]), "degrees": [3]}
        start = time.perf_counter()
        self.expect_refused(capsys, "eval", self.write(tmp_path, json.dumps(doc)),
                            "--t", "1")
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("t", ["1e100000", "1e100000000", "1/" + "7" * 101,
                                   "0e99999999", "1e-101", "-1e100000000"],
                             ids=["1e100000", "1e100000000", "1/7...7",
                                  "0e99999999", "1e-101", "-1e100000000"])
    def test_eval_t_past_the_limit(self, cubic_path, capsys, t):
        self.expect_refused(capsys, "eval", cubic_path, "--t", t)

    def test_eval_negative_t_1e10000000_is_instant(self, cubic_path, capsys):
        # a negative --t is joined to its option before any number is built
        start = time.perf_counter()
        self.expect_refused(capsys, "eval", cubic_path, "--t", "-1e10000000")
        assert time.perf_counter() - start < 1

    def test_digit_limit_is_inclusive(self, tmp_path, capsys):
        top = "9" * cli.MAX_RATIONAL_DIGITS
        for x in (top, f"1/{top}", f"{top}e0", f"0.{top[1:]}"):
            path = self.write(tmp_path, json.dumps(plane_doc([x, "-" + x, "0"])))
            code, _ = run(capsys, "check", path)
            assert code == 0, x
        for x in (top + "9", f"1/{top}9", f"{top}e1", f"0.{top}"):
            path = self.write(tmp_path, json.dumps(plane_doc([x, "-" + x, "0"])))
            self.expect_refused(capsys, "check", path)

    def test_json_integer_of_5001_digits(self, tmp_path, capsys, refuse):
        text = ('{"ambient_dim": 3, "degrees": [3], "weights": ["0"], '
                f'"eigenvalues": [{"1" * 5001}, 0, 0, 0]}}')
        self.expect_refused(capsys, "check", self.write(tmp_path, text))

    def test_direction_integer_of_5001_digits(self, cubic_path, capsys, refuse):
        direction = f'{{"eigenvalues": [{"1" * 5001}, 0, 0, 0]}}'
        self.expect_refused(capsys, "derivative", cubic_path,
                            "--direction", direction)

    def test_200_digit_integer_eigenvalues_are_refused(self, tmp_path, capsys,
                                                        refuse):
        big = [str(10 ** 199 + k) for k in range(12)]
        doc = plane_doc(big + ["-" + x for x in big] + ["0"])
        self.expect_refused(capsys, "eval", self.write(tmp_path, json.dumps(doc)),
                            "--t", "1/3")

    def test_exact_result_past_4300_digits_prints(self, tmp_path, capsys):
        # 100-digit numerators and denominators at N = 24: the coefficients of
        # F have about 4500 digits
        rng = random.Random(5)
        half = [f"{rng.randrange(10 ** 99, 10 ** 100)}/"
                f"{rng.randrange(10 ** 99, 10 ** 100)}" for _ in range(12)]
        doc = plane_doc(half + ["-" + x for x in half] + ["0"])
        limit = sys.get_int_max_str_digits()
        code, out = run(capsys, "--format", "json", "eval",
                        self.write(tmp_path, json.dumps(doc)), "--t", "1/3")
        assert code == 0
        assert sys.get_int_max_str_digits() == limit
        payload = json.loads(out)
        longest = max(len(c) for term in payload["terms"]
                      for c in term["coefficients"].values())
        assert longest > limit
        sys.set_int_max_str_digits(0)
        try:
            parsed = ExpPoly.parse(payload["expression"])
        finally:
            sys.set_int_max_str_digits(limit)
        assert parsed.limit_at_zero() == -1


# Malformed documents for every command: junk in each field, fields of the
# wrong shape, documents that are not objects and text that is not JSON.
JUNK = st.sampled_from([None, True, 3.5, -1, 0, 10 ** 30, "3", "x", "1/0",
                        "1e999", "9" * 101, [], {}, [[1]]])
RATIONAL = st.one_of(st.integers(-9, 9).map(str), st.integers(-9, 9),
                     st.sampled_from(["1/2", "-3/4", "0.5", "", "1/0",
                                      "1e-99"]), JUNK)


def maybe_list(elements, max_size):
    return st.one_of(st.lists(elements, max_size=max_size), JUNK)


FIELDS = {
    "ambient_dim": st.one_of(st.integers(-1, 5), JUNK),
    "degrees": maybe_list(st.one_of(st.integers(-1, 4), JUNK), 3),
    "supports": maybe_list(maybe_list(maybe_list(
        st.one_of(st.integers(-1, 3), JUNK), 6), 3), 3),
    "eigenvalues": maybe_list(RATIONAL, 7),
    "weights": maybe_list(RATIONAL, 3),
}
DOCUMENT = st.fixed_dictionaries(
    {key: FIELDS[key] for key in ("ambient_dim", "degrees")},
    optional={key: FIELDS[key] for key in ("supports", "eigenvalues", "weights")})


def permuted_eigenvalues(doc):
    return st.permutations(doc["eigenvalues"])


def mutated(doc):
    """doc with its eigenvalues permuted or one field dropped or replaced, so
    that most of it is valid."""
    return st.one_of(
        permuted_eigenvalues(doc).map(lambda eigen: {**doc, "eigenvalues": eigen}),
        st.sampled_from(sorted(FIELDS)).flatmap(lambda key: st.one_of(
            st.just({k: v for k, v in doc.items() if k != key}),
            FIELDS[key].map(lambda value: {**doc, key: value}))))


DOCUMENT_TEXT = st.one_of(
    DOCUMENT.map(json.dumps),
    st.sampled_from([CUBIC_DOC, QUADRICS_DOC]).flatmap(mutated).map(json.dumps),
    st.one_of(JUNK, st.lists(JUNK, max_size=3)).map(json.dumps),
    st.sampled_from(["", "{", "[1,", "NaN", '{"degrees": [3]}',
                     '{"ambient_dim": 3}',
                     '{"ambient_dim": ' + "9" * 5000 + ', "degrees": []}']),
    st.text(max_size=20))
DIRECTION_TEXT = st.one_of(
    st.fixed_dictionaries({}, optional={"eigenvalues": maybe_list(RATIONAL, 7),
                                        "weights": maybe_list(RATIONAL, 3)})
    .map(json.dumps),
    st.sampled_from([CUBIC_DOC, QUADRICS_DOC]).flatmap(permuted_eigenvalues)
    .map(lambda eigen: json.dumps({"eigenvalues": eigen})),
    st.sampled_from(["", "{", "5", "[]"]))
COMMANDS = st.sampled_from([
    ["check"], ["eval", "--t", "1/4"], ["derivative"],
    ["quantize", "--k", "2", "--t", "1/4"], ["soliton", "--max-iter", "3"],
    ["verify"]])
# the stable error codes of each failing exit code
ERROR_CODES = {
    2: {"invalid_input", "not_fano", "not_traceless", "malformed_support",
        "inconsistent_weights", "inadmissible_direction"},
    3: {"evaluation_error", "precision_not_reached"},
    4: {"no_convergence"},
}


class TestFuzzedDocuments:
    @settings(max_examples=200)
    @given(text=DOCUMENT_TEXT, command=COMMANDS, direction=DIRECTION_TEXT)
    def test_exit_code_and_error_document(self, text, command, direction):
        argv = ["--format", "json", command[0], "-", "--precision", "64",
                *command[1:]]
        if command[0] == "derivative":
            argv += ["--direction", direction]
        out, err = io.StringIO(), io.StringIO()
        with mock.patch("sys.stdin", io.StringIO(text)), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert err.getvalue() == ""
        payload = json.loads(out.getvalue())
        if code in ERROR_CODES:
            assert payload["error"]["code"] in ERROR_CODES[code]
        elif code == 5:
            assert payload["status"].startswith("failed: ")
        else:  # an error document has the one key "error"
            assert code == 0
            assert set(payload) != {"error"}
