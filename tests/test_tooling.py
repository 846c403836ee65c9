"""The benchmark's tracer binds names that the package must keep providing,
and the package exports exactly what it imports."""

import ast
import dis
import importlib
import importlib.util
import inspect
import types
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


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
