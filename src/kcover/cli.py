"""Command-line front end: solve, check, reduce, goodify, gen.

Exit codes: 0 success, 1 invalid input, 2 failed check or validation,
3 inconclusive brute-force search.  Verbosity comes from the COVER_LOG
environment variable (quiet, info, trace).
"""

from __future__ import annotations

import argparse
import functools
import logging
import os
import sys
import time
from pathlib import Path

from . import io
from .chordal import optimal_chordal_31
from .errors import InputError
from .generators import (
    gen_random_3partition,
    gen_random_chordal,
    gen_random_setcover,
    gen_random_tree,
)
from .graph import CoverSpec, validate_completion
from .oracle import InconclusiveError, OracleBudget, brute_min_completion, deepening_start
from .reductions import (
    build_setcover_k,
    build_setcover_k3,
    build_spider,
    goodify_3,
    goodify_k,
    setcover_gadget_order,
)
from .trees import (
    RootedTree,
    approx_tree_4,
    approx_tree_k,
    optimal_tree_31,
    spider_graph,
    worst_case_spider,
)

log = logging.getLogger("kcover")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILED = 2
EXIT_INCONCLUSIVE = 3

_TO_WRITE = "the graph to write would have"
_LOG_LEVELS = {"quiet": logging.WARNING, "info": logging.INFO, "trace": logging.DEBUG}


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through the normal error path."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise InputError(f"{self.prog}: {message}")


def _setup_logging() -> None:
    name = os.environ.get("COVER_LOG", "quiet").lower()
    if name not in _LOG_LEVELS:
        raise InputError(
            f"COVER_LOG must be one of {', '.join(_LOG_LEVELS)}; got {name!r}"
        )
    logging.basicConfig(
        level=_LOG_LEVELS[name],
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )


# name -> (the k it solves at, or None when --k sets it; solver on graph and k).
# The lambdas look each solver up by name when called, so a function swapped
# into this module's namespace (as the benchmark's tracer does) is the one run.
SOLVERS = {
    "tree-opt": (3, lambda g, k: optimal_tree_31(RootedTree.from_graph(g))),
    "chordal-opt": (3, lambda g, k: optimal_chordal_31(g)),
    "tree-approx": (None, lambda g, k: approx_tree_k(RootedTree.from_graph(g), k)),
    "tree-approx4": (4, lambda g, k: approx_tree_4(RootedTree.from_graph(g))),
}


def _solver_k(alg: str, k: int | None, l: int) -> int:
    """The k a SOLVERS entry runs at; a --k or --l it would ignore is refused."""
    fixed = SOLVERS[alg][0]
    if fixed is None and k is None:
        raise InputError(f"{alg} needs --k")
    if fixed is not None and k not in (None, fixed):
        raise InputError(f"{alg} solves k={fixed}, got --k {k}")
    if l != 1:
        raise InputError(f"{alg} solves l=1, got --l {l}")
    return k if fixed is None else fixed


def _cmd_solve(args: argparse.Namespace) -> int:
    g = io.read_graph(args.infile)
    started = time.perf_counter()
    if args.alg != "brute":
        completion = SOLVERS[args.alg][1](g, _solver_k(args.alg, args.k, args.l))
    else:
        spec = CoverSpec(args.k if args.k is not None else 3, args.l)
        budget = OracleBudget(max_additions=args.max_additions, max_nodes=args.max_nodes)
        result = brute_min_completion(g, spec, budget)
        log.info(
            "brute search visited %d nodes, deepening from size %d",
            result.nodes, deepening_start(g, spec),
        )
        if not result.ok:
            print(
                f"inconclusive: no completion within {budget.max_additions} "
                f"additions proven; at least {result.lower_bound} needed",
                file=sys.stderr,
            )
            return EXIT_INCONCLUSIVE
        completion = result.completion
    elapsed = (time.perf_counter() - started) * 1000.0
    log.info("%s solved n=%d m=%d in %.1f ms", args.alg, g.n, g.m, elapsed)
    io.write_completion(args.out, completion)
    print(f"additions={len(completion)}")
    return EXIT_OK


def _cmd_check(args: argparse.Namespace) -> int:
    g = io.read_graph(args.graph)
    completion = io.read_completion(args.completion)
    spec = CoverSpec(args.k, args.l)
    result = validate_completion(g, completion, spec)
    log.info(
        "checked n=%d m=%d additions=%d at k=%d l=%d: violations=%d connected=%s",
        g.n, g.m, len(completion), spec.k, spec.l,
        len(result.violations), result.connected,
    )
    if result.ok:
        print(f"OK: every edge lies in >= {spec.l} cliques of order {spec.k}")
        return EXIT_OK
    if not result.connected:
        print("completed graph is disconnected")
    for u, v in result.violations:
        print(f"unsaturated {u} {v}")
    return EXIT_FAILED


def _cmd_reduce(args: argparse.Namespace) -> int:
    if args.construction == "setcover":
        inst = io.parse_setcover_json(Path(args.infile).read_text())
        io.check_order(setcover_gadget_order(inst, args.k), _TO_WRITE)
        rg = build_setcover_k3(inst) if args.k == 3 else build_setcover_k(inst, args.k)
        io.write_reduction(args.out_graph, args.out_roles, rg)
        log.info(
            "reduction graph: n=%d m=%d sets=%d items=%d",
            rg.graph.n, rg.graph.m, rg.set_count, rg.item_count,
        )
        print(f"n={rg.graph.n} m={rg.graph.m}")
    else:
        inst = io.parse_three_partition_json(Path(args.infile).read_text())
        io.check_order(1 + sum(inst.values), _TO_WRITE)
        spider = build_spider(inst)
        io.write_graph(args.out_graph, spider)
        print(f"n={spider.n} m={spider.m}")
    return EXIT_OK


def _cmd_goodify(args: argparse.Namespace) -> int:
    rg = io.read_reduction(args.graph, args.roles)
    if args.k is not None and args.k != rg.k:
        raise InputError(f"--k {args.k} does not match the role file's k={rg.k}")
    completion = io.read_completion(args.completion)
    good = goodify_3(rg, completion) if rg.k == 3 else goodify_k(rg, completion, rg.k)
    io.write_completion(args.out, good)
    print(f"additions={len(good)} (input had {len(completion)})")
    return EXIT_OK


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.family in ("tree", "chordal", "worst-spider"):
        io.check_order(args.n, _TO_WRITE)
    if args.family == "tree":
        io.write_graph(args.out, gen_random_tree(args.n, args.seed))
    elif args.family == "chordal":
        io.write_graph(args.out, gen_random_chordal(args.n, args.width, args.seed))
    elif args.family == "spider":
        io.check_order(1 + sum(args.legs), _TO_WRITE)
        io.write_graph(args.out, spider_graph(args.legs))
    elif args.family == "worst-spider":
        io.write_graph(args.out, worst_case_spider(args.n))
    elif args.family == "setcover":
        inst = gen_random_setcover(args.items, args.sets, args.density, args.seed)
        Path(args.out).write_text(io.format_setcover_json(inst))
    else:
        inst, witness = gen_random_3partition(
            args.p, args.s, args.seed, yes=not args.likely_no
        )
        Path(args.out).write_text(io.format_three_partition_json(inst))
        if witness is not None:
            log.info("witness partition: %s", witness)
    print(f"wrote {args.out}")
    return EXIT_OK


@functools.cache
def _build_parser() -> _Parser:
    """The kcover parser, built on first use and shared by every later call."""
    parser = _Parser(prog="kcover", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="compute a completion set")
    p_solve.add_argument("--alg", required=True, choices=[*SOLVERS, "brute"])
    p_solve.add_argument("--in", dest="infile", required=True)
    p_solve.add_argument("--out", required=True)
    p_solve.add_argument("--k", type=int, default=None)
    p_solve.add_argument("--l", type=int, default=1)
    p_solve.add_argument("--max-additions", type=int, default=8)
    p_solve.add_argument("--max-nodes", type=int, default=10_000_000)
    p_solve.set_defaults(func=_cmd_solve)

    p_check = sub.add_parser("check", help="validate a completion set")
    p_check.add_argument("--k", type=int, required=True)
    p_check.add_argument("--l", type=int, default=1)
    p_check.add_argument("--graph", required=True)
    p_check.add_argument("--completion", required=True)
    p_check.set_defaults(func=_cmd_check)

    p_reduce = sub.add_parser("reduce", help="build a reduction graph")
    p_reduce.add_argument("construction", choices=["setcover", "3partition"])
    p_reduce.add_argument("--k", type=int, default=3)
    p_reduce.add_argument("--in", dest="infile", required=True)
    p_reduce.add_argument("--out-graph", required=True)
    p_reduce.add_argument("--out-roles", default=None)
    p_reduce.set_defaults(func=_cmd_reduce)

    p_good = sub.add_parser("goodify", help="rewrite a completion to anchor edges")
    p_good.add_argument("--k", type=int, default=None)
    p_good.add_argument("--graph", required=True)
    p_good.add_argument("--roles", required=True)
    p_good.add_argument("--completion", required=True)
    p_good.add_argument("--out", required=True)
    p_good.set_defaults(func=_cmd_goodify)

    p_gen = sub.add_parser("gen", help="generate an instance")
    p_gen.add_argument(
        "family",
        choices=["tree", "chordal", "spider", "worst-spider", "setcover", "3partition"],
    )
    p_gen.add_argument("--n", type=int, default=10)
    p_gen.add_argument("--width", type=int, default=3)
    p_gen.add_argument("--legs", type=_leg_list, default=None)
    p_gen.add_argument("--items", type=int, default=3)
    p_gen.add_argument("--sets", type=int, default=3)
    p_gen.add_argument("--density", type=float, default=0.4)
    p_gen.add_argument("--p", type=int, default=2)
    p_gen.add_argument("--s", type=int, default=9)
    p_gen.add_argument("--likely-no", action="store_true")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_gen)
    return parser


def _leg_list(raw: str) -> list[int]:
    try:
        return [int(part) for part in raw.split(",") if part]
    except ValueError:
        raise InputError(f"--legs expects comma-separated integers, got {raw!r}") from None


def main(argv: list[str] | None = None) -> int:
    try:
        _setup_logging()
        args = _build_parser().parse_args(argv)
        if args.command == "gen" and args.family == "spider" and args.legs is None:
            raise InputError("gen spider needs --legs")
        if args.command == "reduce" and args.construction == "setcover" and not args.out_roles:
            raise InputError("reduce setcover needs --out-roles")
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InconclusiveError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
