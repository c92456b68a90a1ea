"""The public names of cnpick, and the names cnbench reaches by lookup, resolve.

The benchmark's tracer wraps functions by ``getattr`` on the module
names in ``SPANNED`` and ``COUNTED``, and its hooks read attributes of
the records those functions return; deleting or renaming one of them
breaks a traced run without failing any other test.  cnbench is only
read here (with ``ast``), never imported or changed.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import cnpick
from cnpick.pick import DataSet

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "cnbench"
MODULES = sorted(f"cnpick.{info.name}" for info in pkgutil.iter_modules(cnpick.__path__))


def _package_imports():
    """``(module, name)`` for every ``from .module import name`` of ``cnpick/__init__.py``."""
    tree = ast.parse((ROOT / "src" / "cnpick" / "__init__.py").read_text())
    return [
        (f"cnpick.{node.module}", alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


def _traced():
    """``(module, function)`` of every entry of ``SPANNED`` and ``COUNTED`` in ``tracing.py``."""
    tree = ast.parse((BENCH / "tracing.py").read_text())
    entries = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in ("SPANNED", "COUNTED") for t in node.targets
        ):
            entries += [(module, function) for module, function, _ in ast.literal_eval(node.value)]
    return entries


def _hook_reads():
    """``(module, function, attrs)``: the ``result.<attr>`` names each hook of ``tracing.py`` reads.

    Hooks are the ``_*_hook`` functions; ``HOOKS`` maps a span name to its
    hook and ``SPANNED`` the span name to the traced functions.
    """
    tree = ast.parse((BENCH / "tracing.py").read_text())
    reads, hooks, spanned = {}, {}, []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name.endswith("_hook"):
            reads[node.name] = sorted(
                {
                    sub.attr
                    for sub in ast.walk(node)
                    if isinstance(sub, ast.Attribute)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "result"
                }
            )
        elif isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            if node.targets[0].id == "HOOKS":
                hooks = {k.value: v.id for k, v in zip(node.value.keys, node.value.values)}
            elif node.targets[0].id == "SPANNED":
                spanned = ast.literal_eval(node.value)
    return [
        (module, function, reads[hooks[span]])
        for module, function, span in spanned
        if span in hooks and reads[hooks[span]]
    ]


# A small fixed call of every function whose result a hook reads.
HOOK_CALLS = {
    ("cnpick.feasibility", "search_x_grid"): lambda f: f(DataSet.scalar([0.5], [0.3])),
    ("cnpick.kernels", "necessity_scan"): lambda f: f(DataSet.scalar([0.5], [0.3]), samples=20),
    ("cnpick.body", "body_union"): lambda f: f(0.5, 0.3, 0.3, x_resolution=3, w_resolution=3),
}


def _bench_imports():
    """``(module, name)`` for every name a cnbench file imports from cnpick."""
    found = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cnpick":
                found += [(node.module, alias.name) for alias in node.names]
    return found


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing


@pytest.mark.parametrize("module_name, name", _package_imports())
def test_package_exports_are_public(module_name, name):
    assert name in importlib.import_module(module_name).__all__


def test_bench_lookups_found():
    # Guards the readers below: empty lists would make the next tests vacuous.
    assert len(_traced()) >= 10 and _bench_imports()
    assert {function for _, function, _ in _hook_reads()} >= {"search_x_grid", "body_union"}


@pytest.mark.parametrize("module_name, name", _traced())
def test_traced_function_resolves(module_name, name):
    assert callable(getattr(importlib.import_module(module_name), name))


@pytest.mark.parametrize("module_name, name", _bench_imports())
def test_bench_import_resolves(module_name, name):
    module = importlib.import_module(module_name)
    # ``from cnpick import cli`` names a submodule, which import_module finds.
    assert hasattr(module, name) or importlib.import_module(f"{module_name}.{name}")


@pytest.mark.parametrize(
    "module_name, name, attrs",
    _hook_reads(),
    ids=lambda value: value if isinstance(value, str) else "+".join(value),
)
def test_hook_reads_resolve(module_name, name, attrs):
    result = HOOK_CALLS[module_name, name](getattr(importlib.import_module(module_name), name))
    assert [attr for attr in attrs if not hasattr(result, attr)] == []
