"""The benchmark tracer's names must exist in the package.

``bench/spans.py`` wraps functions by name and fails only when a traced
run starts; this reads its ``TRACED`` table (without importing the
benchmark) and resolves every entry on its gspline module.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def traced_names():
    tree = ast.parse(SPANS.read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "TRACED" for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/spans.py defines no TRACED table")


def test_every_traced_name_resolves():
    missing = []
    for module, names in traced_names().items():
        mod = importlib.import_module(f"gspline.{module}")
        for name in names:
            obj = mod
            for part in name.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append(f"{module}.{name}")
    assert not missing, missing
