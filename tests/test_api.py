import ast
import importlib.util
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import bellpair.simulate as sim

ROOT = Path(__file__).resolve().parents[1]

# Prints the bellpair submodules a fresh ``import bellpair`` loads, and the
# package's bindings other than those the import system gives every package.
_FRESH_IMPORT = """
import json, sys
import bellpair
machinery = {"__builtins__", "__cached__", "__doc__", "__file__", "__loader__", "__name__", "__package__",
             "__path__", "__spec__"}
print(json.dumps([sorted(m for m in sys.modules if m.startswith("bellpair.")),
                  sorted(set(vars(bellpair)) - machinery)]))
"""


def test_importing_the_package_loads_no_submodule_and_binds_only_the_version():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", _FRESH_IMPORT], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], ["__version__"]]


def test_a_submodule_imported_as_a_name_is_the_module():
    assert isinstance(sim, types.ModuleType) and sim.__name__ == "bellpair.simulate"
    assert callable(sim.simulate) and sim.simulate.__module__ == "bellpair.simulate"


def _traced():
    """``bench/tracing.py``'s TRACED, loaded by path."""
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TRACED


def test_every_name_the_benchmark_traces_is_a_callable_of_its_module():
    for short, names in _traced().items():
        module = importlib.import_module(f"bellpair.{short}")
        for name in names:
            assert callable(getattr(module, name, None)), f"bellpair.{short}.{name}"


def test_every_public_function_is_called_from_src_or_traced_by_the_benchmark():
    # a reference is a name, an attribute or an imported name in code, outside the function's own body
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in (ROOT / "src" / "bellpair").glob("*.py")}
    references = [(module, node.lineno, name) for module, tree in trees.items() for node in ast.walk(tree)
                  for name in ((node.id,) if isinstance(node, ast.Name) else (node.attr,) if isinstance(node, ast.Attribute)
                               else (node.name,) if isinstance(node, ast.alias) else ())]
    traced = _traced()
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_") or node.name in traced.get(module, ()):
                continue
            if not any(name == node.name and not (where == module and node.lineno <= line <= node.end_lineno)
                       for where, line, name in references):
                dead.append(f"bellpair.{module}.{node.name}")
    assert dead == []
