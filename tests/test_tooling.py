"""The benchmark's tracer binds names that the package must keep providing,
the package exports exactly what it imports, and the README's examples run."""

import ast
import dis
import importlib
import importlib.util
import inspect
import json
import re
import types
from pathlib import Path

import pytest

from modfutaki import cli

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"
BENCH_PAIRS = ROOT / "scripts" / "bench_pairs.py"
README = ROOT / "README.md"


def load_bindings():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.BINDINGS


def global_names(module):
    """Every global name loaded by code defined in the module, nested code too."""
    names = set()
    pending = [fn.__code__ for fn in vars(module).values()
               if inspect.isfunction(fn) and fn.__module__ == module.__name__]
    pending += [fn.__code__ for cls in vars(module).values()
                if inspect.isclass(cls) and cls.__module__ == module.__name__
                for fn in vars(cls).values() if inspect.isfunction(fn)]
    while pending:
        code = pending.pop()
        names.update(ins.argval for ins in dis.get_instructions(code)
                     if ins.opname == "LOAD_GLOBAL")
        pending += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    return names


@pytest.mark.parametrize("module,attribute,span", load_bindings())
def test_binding_resolves(module, attribute, span):
    owner = importlib.import_module(module)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    target = getattr(owner, name)
    assert callable(target), (module, attribute)
    if getattr(target, "__module__", module) != module:
        # an imported name is patched where its caller looks it up, so the
        # module's own code must still load it as a global
        assert name in global_names(importlib.import_module(module)), \
            (module, attribute)


def test_package_exports_resolve():
    # deleting an export must not leave `from modfutaki import *` broken
    package = importlib.import_module("modfutaki")
    names = package.__all__
    assert len(names) == len(set(names))
    tree = ast.parse(inspect.getsource(package))
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert set(names) <= imported
    namespace = {}
    exec("from modfutaki import *", namespace)
    assert all(name in namespace for name in names)


def readme_python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                      re.S | re.M)


def test_readme_has_python_examples():
    assert readme_python_blocks()


@pytest.mark.parametrize("source", readme_python_blocks(),
                         ids=lambda source: source.splitlines()[0])
def test_readme_python_block_runs(source):
    # a name deleted from the package must not linger in the docs
    exec(compile(source, str(README), "exec"), {})


def test_readme_quoted_eval_output_matches(tmp_path, capsys):
    # the README's quoted `eval` line is what the CLI prints for its input block
    text = README.read_text(encoding="utf-8")
    document, = re.findall(r"^```json\n(.*?)^```", text, re.S | re.M)
    quoted = re.search(r"^\$ modfutaki eval input\.json \| head -1\n(.*)$",
                       text, re.M).group(1)
    path = tmp_path / "input.json"
    path.write_text(document, encoding="utf-8")
    assert cli.main(["eval", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == quoted


def test_readme_states_the_cli_bounds():
    # each input limit of the command line is quoted where the README lists them
    text = README.read_text(encoding="utf-8")
    paragraph, = [p for p in text.split("\n\n") if "Inputs are bounded" in p]
    paragraph = " ".join(paragraph.split())
    for phrase in (
            f"`ambient_dim` must be at most {cli.MAX_AMBIENT_DIM},",
            f"must lie in {cli.MIN_PRECISION_BITS}..{cli.MAX_PRECISION_BITS},",
            f"at most {cli.MAX_RATIONAL_DIGITS} digits in its numerator and in "
            "its denominator",
            f"`k*m <= {cli.MAX_QUANTIZE_DEGREE}`",
            f"`2^s <= {cli.MAX_KOSZUL_SUBSETS}`",
            f"`soliton --max-iter` must lie in 0..{cli.MAX_NEWTON_ITERATIONS}"):
        assert phrase in paragraph, phrase


def test_cli_builds_a_fraction_of_outside_text_only_past_the_digit_bound():
    # _parse_rational counts digits before it calls Fraction; a Fraction of
    # anything but a numeric literal elsewhere in cli could build 10^(10^8)
    def literal(node):
        try:
            return isinstance(ast.literal_eval(node), (int, float))
        except ValueError:
            return False

    tree = ast.parse(inspect.getsource(cli))
    parse, = [node for node in tree.body if isinstance(node, ast.FunctionDef)
              and node.name == "_parse_rational"]
    bounded = {id(node) for node in ast.walk(parse)}
    unbounded = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and id(node) not in bounded
        and "Fraction" in (getattr(node.func, "id", None),
                           getattr(node.func, "attr", None))
        and not all(literal(arg) for arg in
                    [*node.args, *(k.value for k in node.keywords)])]
    assert unbounded == []


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchPairsSummary:
    """The gain rule of scripts/bench_pairs.py, on made-up run values."""

    PARENT = [10.0, 10.2, 9.9, 10.1, 10.3, 9.8, 10.0, 10.4, 9.7, 10.1]

    def test_clear_gain_holds(self):
        change = [x - 1 for x in self.PARENT]
        s = load_bench_pairs().summarize(self.PARENT, change, "lower")
        assert (s["wins"], s["pairs"], s["gain_rule_holds"]) == (10, 10, True)
        assert s["parent_median"] == pytest.approx(10.05)
        assert s["change_median"] == pytest.approx(9.05)

    def test_eight_wins_of_ten_do_not_hold(self):
        change = [x - 1 for x in self.PARENT[:8]] + self.PARENT[8:]
        s = load_bench_pairs().summarize(self.PARENT, change, "lower")
        assert (s["wins"], s["gain_rule_holds"]) == (8, False)

    def test_ties_count_for_neither_side(self):
        change = [x - 1 for x in self.PARENT[:9]] + self.PARENT[9:]
        s = load_bench_pairs().summarize(self.PARENT, change, "lower")
        assert (s["wins"], s["gain_rule_holds"]) == (9, True)

    def test_a_shift_inside_the_parents_spread_does_not_hold(self):
        # every pair won, but by less than the parent's interquartile range
        change = [x - 0.05 for x in self.PARENT]
        s = load_bench_pairs().summarize(self.PARENT, change, "lower")
        q1, q3 = s["parent_quartiles"]
        assert s["wins"] == 10 and q3 - q1 > 0.05
        assert not s["gain_rule_holds"]

    def test_higher_is_better(self):
        change = [x + 1 for x in self.PARENT]
        pairs = load_bench_pairs()
        assert pairs.summarize(self.PARENT, change, "higher")["gain_rule_holds"]
        assert not pairs.summarize(self.PARENT, change, "lower")["wins"]


class TestBenchPairsRecord:
    """The JSON record of scripts/bench_pairs.py --out, from made-up runs."""

    METRICS = ("batch_s", "job_p50_s", "setup_s", "peak_rss_mb")

    @staticmethod
    def made(workload, seeds, parent, change):
        """(side, result) as run_once returns them, parent first in even pairs."""
        env = {"python": "3.11.7", "mpmath": "1.3.0",
               "mpmath_backend": "python", "nproc": 2}
        out = []
        for i, seed in enumerate(seeds):
            sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in sides:
                value = (parent if side == "parent" else change)[i]
                out.append((side, {
                    "correct": True, "attempted": 100 + i, "failed": 0,
                    "metrics": {m: {"value": value, "unit": "s"} for m in
                                TestBenchPairsRecord.METRICS},
                    "wall_s": 20.0 + i,
                    "record": {"workload": workload, "seed": seed,
                               "environment": env, "rounds": 3}}))
        return out

    def write(self, pairs, path, workload, parent, change):
        seeds = range(11, 11 + len(parent))
        made = self.made(workload, seeds, parent, change)
        summaries = {m: ("lower", pairs.summarize(parent, change, "lower"))
                     for m in self.METRICS}
        pairs.write_record(path, workload, seeds, made, summaries)
        return json.loads(path.read_text())

    def test_shape_of_bench_13(self, tmp_path):
        pairs = load_bench_pairs()
        path = tmp_path / "BENCH.json"
        parent = [1.0, 1.2, 0.9, 1.1]
        record = self.write(pairs, path, "soliton", parent, [x - 0.5 for x in parent])
        assert set(record) == {"description", "machine", "summary", "runs"}
        assert record["machine"]["nproc"] == 2
        summary = record["summary"]["soliton"]
        assert summary["pairs"] == 4 and summary["seeds"] == [11, 12, 13, 14]
        assert summary["attempted"] == {"parent": 406, "change": 406}
        assert summary["failed"] == {"parent": 0, "change": 0}
        assert summary["correct"] is True
        batch = summary["batch_s"]
        assert batch["parent"]["median"] == pytest.approx(1.05)
        assert batch["change"]["median"] == pytest.approx(0.55)
        assert batch["parent"]["q1"] <= batch["parent"]["median"] <= batch["parent"]["q3"]
        assert batch["change_lower_in_pairs"] == 4
        assert [(r["order"], r["side"], r["seed"]) for r in record["runs"]] == [
            (0, "parent", 11), (1, "change", 11), (2, "change", 12),
            (3, "parent", 12), (4, "parent", 13), (5, "change", 13),
            (6, "change", 14), (7, "parent", 14)]
        assert record["runs"][0]["result"]["rounds"] == 3

    def test_workloads_share_one_file(self, tmp_path):
        pairs = load_bench_pairs()
        path = tmp_path / "BENCH.json"
        self.write(pairs, path, "soliton", [1.0, 1.1], [0.9, 1.0])
        self.write(pairs, path, "exact", [2.0, 2.1], [2.0, 2.2])
        # running a workload again replaces its runs and its summary
        record = self.write(pairs, path, "soliton", [1.0, 1.1, 1.2], [1.0, 1.0, 1.0])
        assert set(record["summary"]) == {"soliton", "exact"}
        assert record["summary"]["soliton"]["pairs"] == 3
        assert [r["workload"] for r in record["runs"]] == ["exact"] * 4 + ["soliton"] * 6
        assert [r["order"] for r in record["runs"]] == list(range(10))
