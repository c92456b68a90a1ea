"""The public names of cnpick, and the names cnbench reaches by lookup, resolve.

The benchmark's tracer wraps functions by ``getattr`` on the module
names in ``SPANNED`` and ``COUNTED``, and its hooks read attributes of
the records those functions return; deleting or renaming one of them
breaks a traced run without failing any other test.  ``tracing.py``
imports only the standard library, so it is loaded here from its file
path; the other cnbench files are only read (with ``ast``).  No cnbench
file is changed.
"""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
import sys
from pathlib import Path

import pytest

import cnpick
from cnpick.pick import DataSet

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "cnbench"
MODULES = sorted(f"cnpick.{info.name}" for info in pkgutil.iter_modules(cnpick.__path__))


def _load_tracing():
    """``cnbench/tracing.py`` as a module of its own, loaded from its file path."""
    spec = importlib.util.spec_from_file_location("cnbench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = _load_tracing()


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
    return [(module, function) for module, function, _ in TRACING.SPANNED + TRACING.COUNTED]


def _hook_reads():
    """``(module, function, attrs)``: the ``result.<attr>`` names each hook of ``tracing.py`` reads.

    ``HOOKS`` maps a span name to its hook and ``SPANNED`` the span name
    to the traced functions; the reads are taken from the hook's source.
    """
    found = []
    for module, function, span in TRACING.SPANNED:
        if span not in TRACING.HOOKS:
            continue
        tree = ast.parse(inspect.getsource(TRACING.HOOKS[span]))
        reads = sorted(
            {
                sub.attr
                for sub in ast.walk(tree)
                if isinstance(sub, ast.Attribute)
                and isinstance(sub.value, ast.Name)
                and sub.value.id == "result"
            }
        )
        if reads:
            found.append((module, function, reads))
    return found


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


def test_tracing_imports_only_the_standard_library():
    # Loading it above ran its top level; that is safe only while this holds.
    tree = ast.parse((BENCH / "tracing.py").read_text())
    nodes = list(ast.walk(tree))
    imported = {alias.name for node in nodes if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in nodes if isinstance(node, ast.ImportFrom)}
    assert {name.split(".")[0] for name in imported} - {"__future__"} <= sys.stdlib_module_names


def test_cf_recheck_resolves():
    # The benchmark re-checks every Feasible witness with the CF form, called as (d, b, x).
    from cnpick.pick import constrained_pick_cf

    assert list(inspect.signature(constrained_pick_cf).parameters)[:3] == ["d", "b", "x"]


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
