"""Dead-code checks on src/kcover, by reading its syntax trees.

Every import of a module other than __init__.py is used in that module, and
every private top-level name or method is referenced somewhere in the package.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "kcover"
MODULES = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}


def _loaded_names(tree: ast.AST) -> set[str]:
    """Every name the tree reads, bare (x) or as an attribute (obj.x)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_every_import_is_used():
    unused = []
    for name, tree in MODULES.items():
        if name == "__init__.py":
            continue
        used = _loaded_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{name}:{node.lineno} {bound}")
    assert unused == []


def test_every_private_name_is_referenced():
    used = set().union(*map(_loaded_names, MODULES.values()))
    defined = []
    for name, tree in MODULES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((name, node.lineno, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(name, node.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
            if isinstance(node, ast.ClassDef):
                defined += [(name, item.lineno, item.name)
                            for item in node.body if isinstance(item, ast.FunctionDef)]
    unreferenced = [
        f"{module}:{line} {ident}"
        for module, line, ident in defined
        if ident.startswith("_") and not ident.startswith("__") and ident not in used
    ]
    assert unreferenced == []
