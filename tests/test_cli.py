"""Command-line contract: schemas, round trips, determinism, exit codes."""

import json

import pytest

from modfutaki import cli, parse_exppoly
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
        assert parse_exppoly(doc["expression"]) == CUBIC_F

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
        expected = CUBIC_F.t_derivative().mul_laurent(LaurentPoly.t_power(1))
        assert parse_exppoly(doc["expression"]) == expected

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


def refuse_work(*args, **kwargs):
    raise AssertionError("a refused input must not start a computation")


class TestLimits:
    def test_precision_above_limit(self, cubic_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "f_function", refuse_work)
        code, out = run(capsys, "--format", "json", "eval", cubic_path,
                        "--t", "1/4", "--precision", "10000000")
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

    def test_precision_at_limit(self, cubic_path, capsys):
        code, out = run(capsys, "--format", "json", "eval", cubic_path,
                        "--t", "1/4", "--precision", str(cli.MAX_PRECISION_BITS))
        assert code == 0
        assert json.loads(out)["numeric"]["precision_bits"] == cli.MAX_PRECISION_BITS

    def test_k_above_limit(self, cubic_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "nk", refuse_work)
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
