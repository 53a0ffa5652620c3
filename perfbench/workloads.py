"""The benchmark's workloads: what each generates, runs and checks.

A workload writes its inputs in setup(), which is timed, and derives in
prepare(), which is not, any input that needs the benchmark's own checks.
It lists the kcover commands of one round in steps, and gives every
answer-producing step a verify() that re-derives the right answer with
perfbench.checks, never with kcover.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Callable

from kcover import generators, io, reductions, trees
from kcover.graph import CompletionSet

import checks

# (problem or None, additions, reference size) for one output
Verdict = tuple[str | None, int, int]


@dataclass
class Step:
    label: str
    kind: str  # "solve" (answer-producing) or "check"
    argv: list[str]
    outputs: list[Path]
    verify: Callable[[], Verdict] | None = None
    attrs: dict = field(default_factory=dict)


class Workload:
    def __init__(self, seed: int, work: Path) -> None:
        self.work = work
        self.rng = random.Random(f"{self.name}/{seed}")
        self.steps: list[Step] = []

    def path(self, name: str) -> Path:
        return self.work / name

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self) -> None:
        """Finish the inputs after the last set-up, outside the timed region."""

    # consecutive steps share an input; keeping more would let the checks,
    # not the program, set the peak memory
    @lru_cache(maxsize=1)
    def graph(self, name: str) -> tuple[int, list[checks.Pair]]:
        return checks.read_edge_list(self.path(name))

    def pairs(self, name: str) -> list[checks.Pair]:
        return checks.read_pairs(self.path(name))

    def forget(self) -> None:
        """Drop the parsed input once a verification pass is over."""
        type(self).graph.cache_clear()

    def solve(self, graph: str, out: str, alg: list[str], verify, **attrs) -> None:
        self.steps.append(Step(
            f"solve {' '.join(alg)} {graph}", "solve",
            ["solve", *alg, "--in", str(self.path(graph)), "--out", str(self.path(out))],
            [self.path(out)], verify, attrs,
        ))

    def check(self, graph: str, completion: str, k: int, l: int = 1) -> None:
        self.steps.append(Step(
            f"check k={k} l={l} {completion}", "check",
            ["check", "--k", str(k), "--l", str(l),
             "--graph", str(self.path(graph)), "--completion", str(self.path(completion))],
            [],
        ))

    def cover_problem(self, graph: str, out: str, k: int, l: int = 1) -> str | None:
        n, edges = self.graph(graph)
        return checks.completion_problem(n, edges, self.pairs(out), k, l)


def _tree_problem(n: int, edges: list[checks.Pair]) -> str | None:
    if len(edges) != n - 1 or not checks.is_connected(checks.adjacency(n, edges)):
        return "input is not a tree"
    return None


class TreeLarge(Workload):
    """Random trees at two sizes a factor of two apart, plus a worst-case spider.

    tree-opt and tree-approx4 run on seeded trees of 2e4 and 4e4 vertices.
    tree-approx at k = 5, 6 runs at 4e3 and 8e3, because it is quadratic
    today, on two fixed trees: its time varies threefold between random
    trees of one size (0.35 s to 0.88 s at n = 8000, k = 5), which would move
    solve_s by more than any bound from seed to seed.  The spider has
    two-edge legs, the shape that is hardest for tree-approx4.  The sizes
    let two rounds fit in one run.
    """

    name = "tree-large"
    RANDOM = {"big-n": 20_000, "big-2n": 40_000, "small-n": 4_000, "small-2n": 8_000}
    FIXED = ("small-n", "small-2n")
    SPIDER = 10_001

    def __init__(self, seed: int, work: Path) -> None:
        super().__init__(seed, work)
        self.seeds = {name: n if name in self.FIXED else self.rng.randrange(2**31)
                      for name, n in self.RANDOM.items()}
        for name, size in (("big-n", "n"), ("big-2n", "2n"), ("spider", None)):
            for alg, k, solver in (("tree-opt", 3, "opt31"), ("tree-approx4", 4, "approx4")):
                out = f"{name}.{alg}.txt"
                double = {"doubling": solver, "size": size} if size else {}
                self.solve(f"{name}.txt", out, ["--alg", alg], self._verifier(name, out, k), **double)
                self.check(f"{name}.txt", out, k)
        for name, size in (("small-n", "n"), ("small-2n", "2n")):
            for k in (5, 6):
                out = f"{name}.k{k}.txt"
                self.solve(f"{name}.txt", out, ["--alg", "tree-approx", "--k", str(k)],
                           self._verifier(name, out, k), doubling="approxk", size=size)
                self.check(f"{name}.txt", out, k)

    def setup(self) -> None:
        for name, n in self.RANDOM.items():
            io.write_graph(self.path(f"{name}.txt"), generators.gen_random_tree(n, self.seeds[name]))
        io.write_graph(self.path("spider.txt"), trees.worst_case_spider(self.SPIDER))

    def _verifier(self, name: str, out: str, k: int):
        def verify() -> Verdict:
            n, edges = self.graph(f"{name}.txt")
            size = len(self.pairs(out))
            bound = checks.tree_lower_bound(n, k)
            problem = _tree_problem(n, edges) or self.cover_problem(f"{name}.txt", out, k)
            # the paper's guarantees: exact at k = 3, 2(n-1) at k = 4, 8/3 of the bound above
            if problem is None and k == 3 and size != bound:
                problem = f"tree-opt added {size}, the optimum is {bound}"
            if problem is None and k == 4 and size > 2 * (n - 1):
                problem = f"tree-approx4 added {size} > 2(n-1) = {2 * (n - 1)}"
            if problem is None and k >= 5 and not bound <= size <= 8 * bound / 3:
                problem = f"tree-approx added {size}, outside [{bound}, 8/3 x {bound}]"
            return problem, size, bound
        return verify


class ChordalLarge(Workload):
    """Random chordal graphs of 4e4 vertices at widths 2, 3 and 4."""

    name = "chordal-large"
    N = 40_000
    WIDTHS = (2, 3, 4)

    def __init__(self, seed: int, work: Path) -> None:
        super().__init__(seed, work)
        self.seeds = {w: self.rng.randrange(2**31) for w in self.WIDTHS}
        for w in self.WIDTHS:
            name, out = f"chordal-w{w}.txt", f"chordal-w{w}.opt.txt"
            self.solve(name, out, ["--alg", "chordal-opt"], self._verifier(name, out))
            self.check(name, out, 3)

    def setup(self) -> None:
        for w in self.WIDTHS:
            g = generators.gen_random_chordal(self.N, w, self.seeds[w])
            io.write_graph(self.path(f"chordal-w{w}.txt"), g)

    def _verifier(self, name: str, out: str):
        def verify() -> Verdict:
            n, edges = self.graph(name)
            size = len(self.pairs(out))
            optimum = checks.bridge_tree_optimum(n, edges)
            problem = checks.insertion_order_problem(n, edges) or self.cover_problem(name, out, 3)
            if problem is None and size != optimum:
                problem = f"chordal-opt added {size}, the bridge trees need {optimum}"
            return problem, size, optimum
        return verify


class ExactSmall(Workload):
    """A fixed corpus for the exact oracle, plus seeded SET COVER reductions.

    The oracle corpus does not depend on the seed: the search's cost varies
    tenfold between instances of one size, so a seeded corpus small enough
    to run would move solve_s by more than any bound from seed to seed.  The
    seed draws the SET COVER instances and the padding given to goodify.
    """

    name = "exact-small"
    TREES = [(n, 1000 * n + i) for n in (7, 8, 9) for i in range(3)]
    CHORDAL = [(n, w, 1000 * n + 10 * w + i) for n in (6, 7, 8) for w in (2, 3) for i in range(3)]
    SPECS = ((3, 1), (4, 1), (5, 1), (3, 2), (4, 2))
    MAX_ADDITIONS = 16
    SETCOVER = (20, 20, 0.3)  # items, sets, density
    SETCOVER_COUNT = 3
    SETCOVER_KS = (3, 4, 6)
    PADDING_GROUPS = 3
    NAIVE_CAP = 1500  # largest number of subsets the naive enumeration tries

    def __init__(self, seed: int, work: Path) -> None:
        super().__init__(seed, work)
        self.sc_seeds = [self.rng.randrange(2**31) for _ in range(self.SETCOVER_COUNT)]
        self.sc_sets: dict[int, list[list[int]]] = {}
        self.sc_min: dict[int, list[int]] = {}
        for n, s in self.TREES:
            name = f"tree{n}-{s}"
            # (4,2) takes the oracle 0.3 s on an 8-vertex tree and up to 13 s on a 9-vertex one
            specs = [spec for spec in self.SPECS if n == 7 or spec != (4, 2)]
            for k, l in specs:
                self._brute(name, k, l)
            opt = f"{name}.opt.txt"
            self.solve(f"{name}.txt", opt, ["--alg", "tree-opt"], self._tree_verifier(name, opt, 3))
            self.check(f"{name}.txt", opt, 3)
            a4 = f"{name}.a4.txt"
            self.solve(f"{name}.txt", a4, ["--alg", "tree-approx4"], self._tree_verifier(name, a4, 4))
            self.check(f"{name}.txt", a4, 4)
            a5 = f"{name}.a5.txt"
            self.solve(f"{name}.txt", a5, ["--alg", "tree-approx", "--k", "5"],
                       self._tree_verifier(name, a5, 5))
            self.check(f"{name}.txt", a5, 5)
        for n, w, s in self.CHORDAL:
            name = f"chordal{n}w{w}-{s}"
            for k, l in self.SPECS:
                self._brute(name, k, l)
            out = f"{name}.opt.txt"
            self.solve(f"{name}.txt", out, ["--alg", "chordal-opt"], self._chordal_verifier(name, out))
            self.check(f"{name}.txt", out, 3)
        for i in range(self.SETCOVER_COUNT):
            for k in self.SETCOVER_KS:
                self._setcover(i, k)

    def _brute(self, name: str, k: int, l: int) -> None:
        out = f"{name}.brute{k}{l}.txt"
        self.solve(f"{name}.txt", out,
                   ["--alg", "brute", "--k", str(k), "--l", str(l),
                    "--max-additions", str(self.MAX_ADDITIONS)],
                   self._brute_verifier(name, out, k, l))
        self.check(f"{name}.txt", out, k, l)

    def _setcover(self, i: int, k: int) -> None:
        base = f"sc{i}-k{k}"
        graph, roles, good = f"{base}.graph.txt", f"{base}.roles.json", f"{base}.good.txt"
        self.steps.append(Step(
            f"reduce setcover k={k} sc{i}", "solve",
            ["reduce", "setcover", "--k", str(k), "--in", str(self.path(f"sc{i}.json")),
             "--out-graph", str(self.path(graph)), "--out-roles", str(self.path(roles))],
            [self.path(graph), self.path(roles)], self._reduce_verifier(i, k),
        ))
        self.steps.append(Step(
            f"goodify k={k} sc{i}", "solve",
            ["goodify", "--k", str(k), "--graph", str(self.path(graph)),
             "--roles", str(self.path(roles)),
             "--completion", str(self.path(f"{base}.padded.txt")), "--out", str(self.path(good))],
            [self.path(good)], self._goodify_verifier(i, k),
        ))
        self.check(graph, good, k)

    def setup(self) -> None:
        for n, s in self.TREES:
            io.write_graph(self.path(f"tree{n}-{s}.txt"), generators.gen_random_tree(n, s))
        for n, w, s in self.CHORDAL:
            io.write_graph(self.path(f"chordal{n}w{w}-{s}.txt"), generators.gen_random_chordal(n, w, s))
        for i, seed in enumerate(self.sc_seeds):
            inst = generators.gen_random_setcover(*self.SETCOVER, seed)
            self.path(f"sc{i}.json").write_text(io.format_setcover_json(inst))
            self.sc_sets[i] = [sorted(s) for s in inst.sets]
            for k in self.SETCOVER_KS:
                rg = (reductions.build_setcover_k3(inst) if k == 3
                      else reductions.build_setcover_k(inst, k))
                io.write_reduction(self.path(f"sc{i}-k{k}.gadget.txt"),
                                   self.path(f"sc{i}-k{k}.gadget.json"), rg)

    def prepare(self) -> None:
        """Write goodify's inputs: a minimum cover's anchor edges plus padding."""
        for i, seed in enumerate(self.sc_seeds):
            self.sc_min[i] = checks.min_set_cover(self.SETCOVER[0], self.sc_sets[i])
            for k in self.SETCOVER_KS:
                n, edges = checks.read_edge_list(self.path(f"sc{i}-k{k}.gadget.txt"))
                _, roles = checks.read_roles(self.path(f"sc{i}-k{k}.gadget.json"))
                anchor_of = {j: e for e, j in checks.anchor_edges(k, roles).items()}
                given = [anchor_of[j] for j in self.sc_min[i]]
                given += _padding(n, edges, roles, random.Random(f"{seed}/{k}"), self.PADDING_GROUPS)
                io.write_completion(self.path(f"sc{i}-k{k}.padded.txt"), CompletionSet(given))

    def _brute_verifier(self, name: str, out: str, k: int, l: int):
        def verify() -> Verdict:
            n, edges = self.graph(f"{name}.txt")
            size = len(self.pairs(out))
            problem = self.cover_problem(f"{name}.txt", out, k, l)
            gaps = len(checks.non_edges(n, edges))
            if problem is None and size > 0 and math.comb(gaps, size - 1) <= self.NAIVE_CAP:
                smaller = checks.completion_of_size(n, edges, k, l, size - 1)
                if smaller is not None:
                    problem = f"the oracle's {size} additions are beaten by {smaller}"
            return problem, size, size
        return verify

    def _tree_verifier(self, name: str, out: str, k: int):
        def verify() -> Verdict:
            n, _ = self.graph(f"{name}.txt")
            size = len(self.pairs(out))
            opt = len(self.pairs(f"{name}.brute{k}1.txt"))
            problem = self.cover_problem(f"{name}.txt", out, k)
            factor = {3: 1, 4: 2, 5: 8 / 3}[k]
            if problem is None and not opt <= size <= factor * opt:
                problem = f"{size} additions at k={k}, outside [{opt}, {factor:.3g} x {opt}] of the optimum"
            if problem is None and k == 3 and size != math.ceil((n - 1) / 2):
                problem = f"tree-opt added {size}, ceil((n-1)/2) = {math.ceil((n - 1) / 2)}"
            return problem, size, opt
        return verify

    def _chordal_verifier(self, name: str, out: str):
        def verify() -> Verdict:
            n, edges = self.graph(f"{name}.txt")
            size = len(self.pairs(out))
            opt = len(self.pairs(f"{name}.brute31.txt"))
            bridges = checks.bridge_tree_optimum(n, edges)
            problem = checks.insertion_order_problem(n, edges) or self.cover_problem(f"{name}.txt", out, 3)
            if problem is None and not size == opt == bridges:
                problem = f"chordal-opt added {size}; the oracle needs {opt}, the bridge trees {bridges}"
            return problem, size, opt
        return verify

    def _reduce_verifier(self, i: int, k: int):
        def verify() -> Verdict:
            base = f"sc{i}-k{k}"
            n, edges = self.graph(f"{base}.graph.txt")
            role_k, roles = checks.read_roles(self.path(f"{base}.roles.json"))
            anchor_of = {j: e for e, j in checks.anchor_edges(role_k, roles).items()}
            cover = self.sc_min[i]
            if role_k != k or len(anchor_of) != len(self.sc_sets[i]):
                return f"role map has k={role_k} and {len(anchor_of)} sets", 0, 0
            problem = checks.completion_problem(n, edges, [anchor_of[j] for j in cover], k)
            if problem is not None:
                return f"anchors of a minimum cover do not complete the graph: {problem}", 0, 0
            # a minimum cover less one set misses an item, so its anchors must fall short
            if checks.completion_problem(n, edges, [anchor_of[j] for j in cover[:-1]], k) is None:
                return "anchors of a non-cover complete the graph", 0, 0
            return None, 0, 0
        return verify

    def _goodify_verifier(self, i: int, k: int):
        def verify() -> Verdict:
            base = f"sc{i}-k{k}"
            out, given = self.pairs(f"{base}.good.txt"), self.pairs(f"{base}.padded.txt")
            role_k, roles = checks.read_roles(self.path(f"{base}.roles.json"))
            minimum = len(self.sc_min[i])
            problem = (
                checks.goodify_problem(out, given, checks.anchor_edges(role_k, roles),
                                       self.SETCOVER[0], self.sc_sets[i], minimum)
                or self.cover_problem(f"{base}.graph.txt", f"{base}.good.txt", k)
            )
            return problem, len(out), minimum
        return verify


def _padding(n: int, edges, roles, rng: random.Random, groups: int) -> list[checks.Pair]:
    """Extra additions that keep a completion valid and that goodify must drop.

    Each group joins an aux vertex z to every vertex of an aux vertex's clique
    W next to it, so every new edge lies in the clique W + z.  No anchor,
    item pair or pair of set vertices is touched.
    """
    adj = checks.adjacency(n, list(edges))
    aux = [v for v, (kind, _) in enumerate(roles) if kind == "aux"]
    out: list[checks.Pair] = []
    added = 0
    while added < groups:
        a = rng.choice(aux)
        clique = adj[a] | {a}
        if any(not (clique - {w}) <= adj[w] for w in adj[a]):
            continue
        x = rng.choice(sorted(adj[a]))
        near = sorted(z for z in adj[x] if z not in clique and roles[z][0] == "aux")
        if not near:
            continue
        z = rng.choice(near)
        for w in sorted(clique - adj[z]):
            out.append((min(z, w), max(z, w)))
            adj[z].add(w)
            adj[w].add(z)
        added += 1
    return out


WORKLOADS = {w.name: w for w in (TreeLarge, ChordalLarge, ExactSmall)}
