"""Small graph builders and slow reference implementations shared by the tests.

The reference implementations here are deliberately naive (subset enumeration,
remove-and-recount, induced-cycle scans) so they share no code with the module
under test.
"""

from __future__ import annotations

import random
from itertools import combinations

from kcover import (
    CompletionSet,
    CoverCheck,
    CoverSpec,
    Graph,
    LabeledReductionGraph,
    RootedTree,
    SetCoverInstance,
    approx_tree_k,
    validate_completion,
)
from kcover.trees import _clique_cover_loop


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(n: int) -> Graph:
    return Graph(n, [(0, i) for i in range(1, n)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, list(combinations(range(n), 2)))


def common_neighbours(g: Graph, u: int, v: int) -> list[int]:
    """The vertices forming a triangle with the pair (u, v), in ascending order."""
    return sorted(set(g.adj[u]) & set(g.adj[v]))


def rooted(g: Graph) -> RootedTree:
    return RootedTree.from_graph(g)


def nonedges(g: Graph) -> list[tuple[int, int]]:
    return [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if not g.has_edge(u, v)
    ]


def cover_trace(g: Graph, k: int) -> tuple[CompletionSet, list[int], int]:
    """approx_tree_k's completion of the tree g, plus what its clique-cover loop
    reports: the tree edges covered at each iteration and the vertices the
    forest pool explored."""
    additions: list[tuple[int, int]] = []
    covered, explored = _clique_cover_loop(g.n, g.edges, k, set(g.edges), additions)
    completion = approx_tree_k(RootedTree.from_graph(g), k)
    assert completion == CompletionSet(additions)
    return completion, covered, explored


def naive_min_completion(g: Graph, spec: CoverSpec) -> CompletionSet:
    """Minimum completion by brute subset enumeration. Tiny graphs only."""
    candidates = nonedges(g)
    for size in range(len(candidates) + 1):
        for subset in combinations(candidates, size):
            c = CompletionSet(subset)
            if validate_completion(g, c, spec).ok:
                return c
    raise AssertionError("no completion exists even after filling every non-edge")


def slow_validate(g: Graph, pairs, k: int, l: int) -> CoverCheck:
    """validate_completion from first principles, for valid additions only.

    G + C is a set of pairs; an edge's k-cliques are the (k-2)-subsets of its
    endpoints' common neighbours (a scan of one endpoint's incident pairs) whose
    pairs are all edges.  Connectivity is a flood fill that rescans every edge
    until nothing new is reached.  Of kcover it reads only g.n and g.edges, and
    builds the CoverCheck record.
    """
    edges = set(g.edges) | {(min(u, v), max(u, v)) for u, v in pairs}
    linked = edges | {(v, u) for u, v in edges}
    touching: dict[int, list[int]] = {v: [] for v in range(g.n)}
    for u, v in edges:
        touching[u].append(v)
        touching[v].append(u)
    violations = []
    for u, v in sorted(edges):
        common = [w for w in touching[u] if (v, w) in linked]
        cliques = sum(
            1
            for rest in combinations(common, k - 2)
            if all(pair in linked for pair in combinations(rest, 2))
        )
        if cliques < l:
            violations.append((u, v))
    reached = {0} if g.n else set()
    grew = True
    while grew:
        before = len(reached)
        reached |= {b for a, b in linked if a in reached}
        grew = len(reached) > before
    connected = len(reached) == g.n
    return CoverCheck(
        ok=not violations and connected, violations=tuple(violations), connected=connected
    )


def refuse_graph(n, edges):
    """Stands in for Graph where a test must fail rather than allocate n vertices."""
    raise AssertionError(f"Graph({n}, ...) was built for an over-large header")


def brute_bridges(g: Graph) -> list[tuple[int, int]]:
    """An edge is a bridge iff removing it increases the component count."""
    base = len(g.components())
    return [e for e in g.edge_list() if len(g.without_edges([e]).components()) > base]


def brute_is_chordal(g: Graph) -> bool:
    """No induced cycle of length four or more."""
    for size in range(4, g.n + 1):
        for subset in combinations(range(g.n), size):
            new = {v: i for i, v in enumerate(subset)}
            sub = Graph(size, [(new[u], new[v]) for u, v in g.edges if u in new and v in new])
            if sub.m == size and all(len(a) == 2 for a in sub.adj) and sub.is_connected():
                return False
    return True


def random_cover(inst: SetCoverInstance, rng: random.Random) -> list[int]:
    """A random (not necessarily minimal) index set that covers the universe."""
    everything = set(range(inst.universe_size))
    while True:
        chosen = [j for j in range(len(inst.sets)) if rng.random() < 0.6]
        if set().union(*(inst.sets[j] for j in chosen), frozenset()) == everything:
            return chosen


def pad_with_decoys(
    rg: LabeledReductionGraph,
    base: CompletionSet,
    rng: random.Random,
    spec: CoverSpec,
) -> CompletionSet:
    """Pad a good completion with random non-edges, keeping it valid."""
    chosen = list(base)
    pool = [e for e in nonedges(rg.graph) if e not in base]
    rng.shuffle(pool)
    for decoy in pool[:6]:
        trial = CompletionSet(chosen + [decoy])
        if validate_completion(rg.graph, trial, spec).ok:
            chosen.append(decoy)
    rng.shuffle(chosen)
    return CompletionSet(chosen)


def valid_p3_partition(t: RootedTree, groups: list[tuple]) -> bool:
    """Groups must partition the tree's edges into paths of one or two edges."""
    seen: list[tuple[int, int]] = []
    for group in groups:
        if len(group) == 2:
            (a, b), (c, d) = group
            if not ({a, b} & {c, d}):
                return False
        elif len(group) != 1:
            return False
        seen.extend(group)
    return len(seen) == len(set(seen)) and sorted(seen) == t.base.edge_list()
