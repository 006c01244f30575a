"""The benchmark reaches the package by name; every name it uses must exist."""
import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACER = BENCH / "tracer.py"
WORKLOADS = BENCH / "workloads.py"


def _targets():
    """(module, function) of every TARGETS row, read from the tracer's source."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    rows = next(node.value.elts for node in tree.body if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "TARGETS" for t in node.targets))
    return [(row.elts[0].value, row.elts[1].value) for row in rows]


def _workload_names():
    """Every dotted name the workloads read off ``cl``, the imported package."""
    names = set()
    for node in ast.walk(ast.parse(WORKLOADS.read_text(encoding="utf-8"))):
        path = []
        while isinstance(node, ast.Attribute):
            path.append(node.attr)
            node = node.value
        if path and isinstance(node, ast.Name) and node.id == "cl":
            names.add(".".join(reversed(path)))
    return sorted(names)


@pytest.mark.parametrize("module, func", _targets())
def test_tracer_target_resolves(module, func):
    # Tracer.install looks each target up with getattr, so a deleted or
    # renamed function breaks the traced benchmark run
    package = importlib.import_module(f"chainlock.{module}")
    assert callable(getattr(package, func, None)), f"chainlock.{module}.{func}"


def test_workload_names_found():
    assert {"beta_quantum", "qcore.term_values", "cli.main"} <= set(_workload_names())


@pytest.mark.parametrize("name", _workload_names())
def test_workload_name_resolves(name):
    # the benchmark imports chainlock and chainlock.cli, then reads cl.<name>
    # and cl.<module>.<name>; a deleted export fails only when it runs
    value = importlib.import_module("chainlock")
    importlib.import_module("chainlock.cli")
    for part in name.split("."):
        assert hasattr(value, part), f"chainlock.{name}"
        value = getattr(value, part)
