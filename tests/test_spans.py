"""Every function the benchmark's tracer wraps must exist in the package.

perfbench/spans.py names them as "module:qualname" strings; a refactor that
renames or drops one would otherwise break only traced benchmark runs.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced() -> dict[str, list[str]]:
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no TRACED table")


def test_every_traced_name_resolves():
    targets = [target for names in _traced().values() for target in names]
    assert targets
    for target in targets:
        module, qualname = target.split(":")
        obj = importlib.import_module(module)
        for attr in qualname.split("."):
            assert hasattr(obj, attr), f"{target} does not resolve"
            obj = getattr(obj, attr)
        assert callable(obj), f"{target} is not callable"
