"""Every name the benchmark uses from the package must exist in it.

perfbench/spans.py names the functions its tracer wraps as "module:qualname"
strings, and the benchmark's code and tests import from kcover.  The tier-1
suite collects none of them, so a refactor that renames or drops one would
otherwise break only benchmark runs.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


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


def _kcover_imports() -> list[tuple[str, str, str | None]]:
    """(file, module, name) for each name taken from kcover under perfbench/.

    name is None for a plain `import kcover...`.  Where `from kcover import
    io` binds a submodule, each `io.<attr>` the file reads is listed too, as
    (file, "kcover.io", attr).
    """
    found = []
    for path in sorted(PERFBENCH.rglob("*.py")):
        tree = ast.parse(path.read_text())
        submodules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                if node.module == "kcover" or node.module.startswith("kcover."):
                    for a in node.names:
                        found.append((path.name, node.module, a.name))
                        if node.module == "kcover":
                            submodules[a.asname or a.name] = f"kcover.{a.name}"
            elif isinstance(node, ast.Import):
                found += [
                    (path.name, a.name, None)
                    for a in node.names
                    if a.name == "kcover" or a.name.startswith("kcover.")
                ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                module = submodules.get(node.value.id)
                if module is not None and importlib.util.find_spec(module):
                    found.append((path.name, module, node.attr))
    return found


def test_every_name_the_benchmark_imports_resolves():
    found = _kcover_imports()
    assert {f for f, _, _ in found} >= {"run.py", "workloads.py", "test_checks.py"}
    assert ("workloads.py", "kcover.io", "write_reduction") in found
    for path, module, name in found:
        obj = importlib.import_module(module)
        if name is None or hasattr(obj, name):
            continue
        # `from kcover import io` names a submodule
        submodule = hasattr(obj, "__path__") and importlib.util.find_spec(f"{module}.{name}")
        assert submodule, f"{path}: {name} is not found in {module}"
