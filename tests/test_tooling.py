"""The benchmark's tracer binds names that the package must keep providing,
the package exports exactly what it imports, and the README's examples run."""

import ast
import dis
import importlib
import importlib.util
import inspect
import re
import types
from pathlib import Path

import pytest

from modfutaki import cli

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"
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
