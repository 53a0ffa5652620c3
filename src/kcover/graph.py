"""Undirected simple graphs plus the clique-cover predicates used everywhere else.

Vertices are dense integers 0..n-1 and every edge is a normalized pair (u, v)
with u < v.  Graphs are immutable; edits return new graphs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import chain
from typing import Collection, Iterable, Iterator, Mapping, Sequence

from .errors import InputError

Edge = tuple[int, int]


def norm_edge(u: int, v: int) -> Edge:
    """Order the endpoints of an edge; self-loops are rejected."""
    if u == v:
        raise InputError(f"self-loop ({u},{v}) is not allowed")
    return (u, v) if u < v else (v, u)


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    __slots__ = ("n", "edges", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise InputError("vertex count must be non-negative")
        adj_lists: list[list[int]] = [[] for _ in range(n)]
        seen: set[Edge] = set()
        for u, v in edges:
            e = norm_edge(u, v)
            if e[0] < 0 or e[1] >= n:
                raise InputError(f"edge {e} out of range for n={n}")
            if e in seen:
                raise InputError(f"duplicate edge {e}")
            seen.add(e)
            adj_lists[e[0]].append(e[1])
            adj_lists[e[1]].append(e[0])
        self.n = n
        self.edges = frozenset(seen)
        self.adj = tuple(tuple(sorted(a)) for a in adj_lists)

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return norm_edge(u, v) in self.edges

    def edge_list(self) -> list[Edge]:
        return sorted(self.edges)

    def without_edges(self, pairs: Iterable[tuple[int, int]]) -> "Graph":
        drop = {norm_edge(u, v) for u, v in pairs}
        missing = drop - self.edges
        if missing:
            raise InputError(f"cannot remove non-edges {sorted(missing)}")
        return Graph(self.n, self.edges - drop)

    def components(self) -> list[list[int]]:
        return components(self.adj, range(self.n))

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def components(
    adj: Sequence[Iterable[int]] | Mapping[int, Iterable[int]], starts: Iterable[int]
) -> list[list[int]]:
    """Sorted vertex lists of the components that hold the starts, in the
    order of their first start.  adj[v] lists v's neighbours."""
    seen: set[int] = set()
    comps = []
    for start in starts:
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        for v in comp:
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
        comps.append(sorted(comp))
    return comps


def neighbour_sets(pairs: Iterable[Edge]) -> dict[int, set[int]]:
    """Neighbour sets of the vertices the pairs touch."""
    adj: dict[int, set[int]] = {}
    for u, v in pairs:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return adj


@dataclass(frozen=True)
class CoverSpec:
    """Target cover parameters: every edge must lie in at least l cliques of order k."""

    k: int
    l: int = 1

    def __post_init__(self) -> None:
        if self.k < 3:
            raise InputError(f"clique order k must be >= 3, got {self.k}")
        if self.l < 1:
            raise InputError(f"multiplicity l must be >= 1, got {self.l}")


class CompletionSet:
    """Ordered list of normalized edge additions with no duplicates."""

    __slots__ = ("additions",)

    def __init__(self, pairs: Iterable[tuple[int, int]] = ()):
        out: list[Edge] = []
        seen: set[Edge] = set()
        for u, v in pairs:
            e = norm_edge(u, v)
            if e in seen:
                raise InputError(f"duplicate addition {e}")
            seen.add(e)
            out.append(e)
        self.additions = tuple(out)

    def __len__(self) -> int:
        return len(self.additions)

    def __iter__(self) -> Iterator[Edge]:
        return iter(self.additions)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CompletionSet) and self.additions == other.additions

    def __hash__(self) -> int:
        return hash(self.additions)

    def __repr__(self) -> str:
        return f"CompletionSet({list(self.additions)!r})"


@dataclass(frozen=True)
class CoverCheck:
    """Verdict of a completion check: ok iff no violations and the result is connected."""

    ok: bool
    violations: tuple[Edge, ...]
    connected: bool


@dataclass(frozen=True)
class ChordalityResult:
    is_chordal: bool
    elimination_order: tuple[int, ...] | None
    certificate: int | None


def _count_cliques(
    nbr: Sequence[set[int]] | Mapping[int, set[int]],
    cands: Collection[int],
    need: int,
    cap: int,
) -> int:
    """Number of need-cliques among cands, counted up to cap.

    nbr[w] is the neighbour set of each candidate w.  The candidates of an
    edge's k-cliques are its endpoints' common neighbours, and need is k - 2.
    """
    if need == 1:
        return min(len(cands), cap)
    order = sorted(cands)
    count = 0
    for i in range(len(order) - need + 1):
        near = nbr[order[i]]
        ext = [x for x in order[i + 1 :] if x in near]
        if len(ext) >= need - 1:
            count += _count_cliques(nbr, ext, need - 1, cap - count)
            if count >= cap:
                return cap
    return count


def _unsaturated(nbr: Sequence[set[int]], edges: Iterable[Edge], spec: CoverSpec) -> list[Edge]:
    """The edges lying in fewer than spec.l cliques of order spec.k, sorted.

    nbr[v] is v's neighbour set in the graph that holds the edges.
    """
    need, cap = spec.k - 2, spec.l
    if need == 1:
        out = [(u, v) for u, v in edges if len(nbr[u] & nbr[v]) < cap]
    else:
        out = [
            (u, v) for u, v in edges if _count_cliques(nbr, nbr[u] & nbr[v], need, cap) < cap
        ]
    out.sort()
    return out


def unsaturated_edges(g: Graph, spec: CoverSpec) -> list[Edge]:
    """Edges lying in fewer than spec.l cliques of order spec.k, in lexicographic order."""
    return _unsaturated([set(a) for a in g.adj], g.edges, spec)


def apply_completion(g: Graph, c: CompletionSet) -> Graph:
    """Add every pair of c to g.  Pairs must be non-edges; duplicates are rejected."""
    for e in c:
        _check_addition(g, e)
    return Graph(g.n, list(g.edges) + list(c))


def _check_addition(g: Graph, e: Edge) -> None:
    if e[0] < 0 or e[1] >= g.n:
        raise InputError(f"addition {e} out of range for n={g.n}")
    if e in g.edges:
        raise InputError(f"addition {e} is already an edge")


def validate_completion(g: Graph, c: CompletionSet, spec: CoverSpec) -> CoverCheck:
    """Check that g plus c has a (k,l)-cover and is connected.

    The completed graph is never built: every edge of g + c is scanned once
    against neighbour sets that hold g's edges and c's pairs.  Only when g
    itself is disconnected are those sets searched for components.
    """
    nbr = [set(a) for a in g.adj]
    for e in c:
        _check_addition(g, e)
        u, v = e
        nbr[u].add(v)
        nbr[v].add(u)
    violations = tuple(_unsaturated(nbr, chain(g.edges, c), spec))
    connected = g.is_connected() or len(components(nbr, range(g.n))) == 1
    return CoverCheck(ok=not violations and connected, violations=violations, connected=connected)


def find_bridges(g: Graph) -> list[Edge]:
    """All bridges of g, in lexicographic order (iterative lowpoint search)."""
    n, adj = g.n, g.adj
    disc = [-1] * n
    low = [0] * n
    bridges: list[Edge] = []
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = timer
        timer += 1
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            v, parent, rest = stack[-1]
            for w in rest:
                if w == parent:
                    continue
                if disc[w] == -1:
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, v, iter(adj[w])))
                    break
                if disc[w] < low[v]:
                    low[v] = disc[w]
            else:
                stack.pop()
                if parent != -1:
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                    if low[v] > disc[parent]:
                        bridges.append((parent, v) if parent < v else (v, parent))
    return sorted(bridges)


def check_chordal(g: Graph) -> ChordalityResult:
    """Chordality test by one maximum cardinality search (MCS).

    MCS numbers next the unnumbered vertex with the most numbered neighbours,
    the smallest id among ties; the elimination order is the visit order
    reversed.  A vertex's later neighbours in that order are those numbered
    before it, and the clique test checks each against the nearest of them,
    the one numbered last.  The certificate, on failure, is the first vertex
    in elimination order that fails this test.  Its later neighbours are not
    a clique, though an earlier vertex's may not be one either.
    """
    n, adj, edges = g.n, g.adj, g.edges
    weight = [0] * n
    rank = [-1] * n  # visit position, -1 until numbered
    # buckets[w]: heap of the ids pushed at weight w; no weight exceeds a degree
    buckets = [list(range(n))] + [[] for _ in range(max(map(len, adj), default=0))]
    top = 0
    visit: list[int] = []
    certificate = None
    for v_rank in range(n):
        while True:
            while not buckets[top]:
                top -= 1
            v = heapq.heappop(buckets[top])
            if rank[v] < 0 and weight[v] == top:
                break
        rank[v] = v_rank
        visit.append(v)
        later = []
        for w in adj[v]:
            if rank[w] >= 0:
                later.append(w)
                continue
            wt = weight[w] = weight[w] + 1
            heapq.heappush(buckets[wt], w)
            if wt > top:
                top = wt
        if len(later) > 1:
            u = max(later, key=rank.__getitem__)
            for w in later:
                if w != u and ((u, w) if u < w else (w, u)) not in edges:
                    certificate = v
    if certificate is not None:
        return ChordalityResult(False, None, certificate)
    return ChordalityResult(True, tuple(visit[::-1]), None)
