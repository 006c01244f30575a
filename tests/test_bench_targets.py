"""The benchmark tracer wraps package functions by name; each must exist."""
import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _targets():
    """(module, function) of every TARGETS row, read from the tracer's source."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    rows = next(node.value.elts for node in tree.body if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "TARGETS" for t in node.targets))
    return [(row.elts[0].value, row.elts[1].value) for row in rows]


@pytest.mark.parametrize("module, func", _targets())
def test_tracer_target_resolves(module, func):
    # Tracer.install looks each target up with getattr, so a deleted or
    # renamed function breaks the traced benchmark run
    package = importlib.import_module(f"chainlock.{module}")
    assert callable(getattr(package, func, None)), f"chainlock.{module}.{func}"
