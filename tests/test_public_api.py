"""What the package exports, and what the benchmark reaches of it.

The benchmark under `perfbench/` reads the package two ways: `spans.py`
looks up every name of its `FUNCTIONS` table on the module that defines
it, and the query runner and self-test import names from `scdposet`.
Both are read here with `ast`, without running the benchmark, so removing
a name the benchmark needs fails tier-1.
"""

import ast
import importlib
from pathlib import Path

import pytest

import scdposet

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Helpers that stay in their modules, outside the package namespace.
HELPERS = {
    "core": ("leq", "covers", "star", "ShapeMismatchError", "format_parts", "parse_parts"),
    "decompose": ("chain_length_histogram", "check_partition"),
    "tableau": ("alpha_end_from_tableau", "rotate_180", "strip_sources", "TableauConstructionError"),
}


def module(name):
    # `scdposet.decompose` and `scdposet.locate` are the functions that
    # shadow their modules
    return importlib.import_module(f"scdposet.{name}")


def span_functions():
    """The (module, name) pairs of `perfbench/spans.py`'s `FUNCTIONS`."""
    tree = ast.parse((PERFBENCH / "spans.py").read_text())
    table = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "FUNCTIONS" for t in node.targets)
    )
    return [(mod, name) for mod, names in ast.literal_eval(table).values() for name in names]


def package_imports(script):
    """Every name `script` imports with `from scdposet import ...`."""
    tree = ast.parse((PERFBENCH / script).read_text())
    return [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "scdposet" and not node.level
        for alias in node.names
    ]


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from scdposet import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(scdposet.__all__)
    assert len(scdposet.__all__) == len(set(scdposet.__all__)) <= 30


@pytest.mark.parametrize("home, name", [(home, name) for home, names in HELPERS.items() for name in names])
def test_helper_lives_in_its_module_only(home, name):
    assert hasattr(module(home), name)
    assert name not in scdposet.__all__ and not hasattr(scdposet, name)


def test_every_span_function_resolves():
    pairs = span_functions()
    assert len(pairs) >= 20
    missing = [(mod, name) for mod, name in pairs if not callable(getattr(module(mod), name, None))]
    assert missing == []


@pytest.mark.parametrize("script", ["ra_runner.py", "selftest.py"])
def test_benchmark_imports_only_public_names(script):
    names = package_imports(script)
    assert names
    assert set(names) <= set(scdposet.__all__)
