"""Sample mutants of a kcover module and report which ones the tests kill.

    python tools/mutants.py src/kcover/graph.py --count 30 \
        -- tests/test_graph.py tests/test_validate.py

Each mutant changes one site of the module: it swaps a comparison
(< and <=, > and >=, == and !=, in and not in, is and is not), swaps `and`
with `or`, or adds 1 to an integer constant.  The sites are listed with the
stdlib ast module, and --count of them are drawn with the fixed SEED (all
of them with --count 0), so a rerun draws the same mutants.  --function
keeps only the sites inside the named functions or methods.

src/ is copied to a temporary directory, and each mutant is written to the
copy, never under src/.  The pytest selection after `--` then runs against
the copy, one process at a time, stopping at its first failure or after
TIMEOUT seconds.  A failure or a timeout kills the mutant.  The copy's
unmutated module, written back the same way, must pass first.

It prints one line per mutant, then the module's kill rate and its
survivors.  The exit status is 0 whatever the kill rate, and 1 when the
selection fails without a mutant.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
TIMEOUT = 300.0  # seconds per test run; a mutant that loops forever is killed

SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
}
SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
    ast.NotEq: "!=", ast.In: "in", ast.NotIn: "not in", ast.Is: "is", ast.IsNot: "is not",
}


@dataclass(frozen=True)
class Site:
    """One mutable spot: the index-th site found in a walk of the module.
    line and column are where the comparison, `and`/`or` or constant starts."""

    index: int
    line: int
    column: int
    function: str
    change: str

    def __str__(self) -> str:
        return f"{self.line}:{self.column} {self.function}: {self.change}"


def _walk(tree: ast.Module):
    """(node, operator position or None, enclosing function) for every site,
    in a fixed order."""
    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    yield node, i, function
        elif isinstance(node, ast.BoolOp) or (
            isinstance(node, ast.Constant) and type(node.value) is int
        ):
            yield node, None, function
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function)

    yield from visit(tree, "<module>")


def list_sites(tree: ast.Module) -> list[Site]:
    sites = []
    for index, (node, op, function) in enumerate(_walk(tree)):
        if isinstance(node, ast.Compare):
            old = type(node.ops[op])
            change = f"{SYMBOLS[old]} -> {SYMBOLS[SWAPS[old]]}"
        elif isinstance(node, ast.BoolOp):
            change = "and -> or" if isinstance(node.op, ast.And) else "or -> and"
        else:
            change = f"{node.value} -> {node.value + 1}"
        sites.append(Site(index, node.lineno, node.col_offset + 1, function, change))
    return sites


def mutate(source: str, index: int | None) -> str:
    """The module's source with site `index` changed (none with None),
    written back through ast.unparse."""
    tree = ast.parse(source)
    if index is not None:
        node, op, _ = list(_walk(tree))[index]
        if isinstance(node, ast.Compare):
            node.ops[op] = SWAPS[type(node.ops[op])]()
        elif isinstance(node, ast.BoolOp):
            node.op = ast.Or() if isinstance(node.op, ast.And) else ast.And()
        else:
            node.value += 1
    return ast.unparse(tree) + "\n"


def run_tests(src: Path, selection: list[str]) -> str:
    """'passed', 'failed' or 'timeout' for the selection run against src."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env.pop("PYTHONPATH", None)
    cmd = [
        sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
        "-o", f"pythonpath={src}", *selection,
    ]
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, env=env, timeout=TIMEOUT,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    return "passed" if done.returncode == 0 else "failed"


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv:
        print("give the pytest selection after --", file=sys.stderr)
        return 2
    split = argv.index("--")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", type=Path, help="a module under src/")
    parser.add_argument("--count", type=int, default=30, help="mutants to draw; 0 for all")
    parser.add_argument("--function", action="append", default=[],
                        help="sample only sites inside this function (repeatable)")
    args = parser.parse_args(argv[:split])
    selection = argv[split + 1:]
    if not selection:
        parser.error("the pytest selection after -- is empty")
    if not args.module.resolve().is_relative_to(ROOT / "src"):
        parser.error("the module must lie under src/")
    relative = args.module.resolve().relative_to(ROOT)
    source = (ROOT / relative).read_text()
    sites = list_sites(ast.parse(source))
    if args.function:
        sites = [s for s in sites if s.function in args.function]
    if args.count:
        sites = random.Random(SEED).sample(sites, min(args.count, len(sites)))
        sites.sort(key=lambda s: s.index)

    survivors = []
    with tempfile.TemporaryDirectory(prefix="kcover-mutants-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        target = Path(tmp) / relative
        target.write_text(mutate(source, None))
        if run_tests(src, selection) != "passed":
            print(f"{relative}: the selection fails without a mutant", file=sys.stderr)
            return 1
        for site in sites:
            target.write_text(mutate(source, site.index))
            outcome = run_tests(src, selection)
            verdict = "survived" if outcome == "passed" else f"killed ({outcome})"
            print(f"{verdict:17} {relative}:{site}", flush=True)
            if outcome == "passed":
                survivors.append(site)
    killed = len(sites) - len(survivors)
    rate = f"{100 * killed / len(sites):.0f}%" if sites else "n/a"
    print(f"{relative}: {killed} of {len(sites)} mutants killed ({rate})")
    for site in survivors:
        print(f"  survivor {relative}:{site}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
