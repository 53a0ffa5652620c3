"""Undirected simple graphs plus the clique-cover predicates used everywhere else.

Vertices are dense integers 0..n-1 and every edge is a normalized pair (u, v)
with u < v.  Graphs are immutable; edits return new graphs.
"""

from __future__ import annotations

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
        if self.n <= 1:
            return True
        return len(self.components()) == 1

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
    against neighbour sets that hold g's edges and c's pairs, and the
    components of g are merged through c's pairs.
    """
    nbr = [set(a) for a in g.adj]
    for e in c:
        _check_addition(g, e)
        u, v = e
        nbr[u].add(v)
        nbr[v].add(u)
    violations = tuple(_unsaturated(nbr, chain(g.edges, c), spec))
    connected = _joined(g.components(), c, g.n)
    return CoverCheck(ok=not violations and connected, violations=violations, connected=connected)


def _joined(comps: list[list[int]], pairs: Iterable[Edge], n: int) -> bool:
    """Whether the pairs join the components into one (union-find over them)."""
    parts = len(comps)
    if parts <= 1:
        return True
    comp_of = [0] * n
    for i, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = i
    root = list(range(parts))
    for u, v in pairs:
        a, b = comp_of[u], comp_of[v]
        while root[a] != a:
            root[a] = root[root[a]]
            a = root[a]
        while root[b] != b:
            root[b] = root[root[b]]
            b = root[b]
        if a != b:
            root[a] = b
            parts -= 1
            if parts == 1:
                return True
    return False


def find_bridges(g: Graph) -> list[Edge]:
    """All bridges of g, in lexicographic order (iterative lowpoint search)."""
    n = g.n
    disc = [-1] * n
    low = [0] * n
    bridges: list[Edge] = []
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = timer
        timer += 1
        stack: list[list[int]] = [[root, -1, 0]]
        while stack:
            frame = stack[-1]
            v, parent, i = frame
            if i < len(g.adj[v]):
                frame[2] += 1
                w = g.adj[v][i]
                if w == parent:
                    continue
                if disc[w] == -1:
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append([w, v, 0])
                elif disc[w] < low[v]:
                    low[v] = disc[w]
            else:
                stack.pop()
                if parent != -1:
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                    if low[v] > disc[parent]:
                        bridges.append(norm_edge(parent, v))
    return sorted(bridges)


def check_chordal(g: Graph) -> ChordalityResult:
    """Chordality test via maximum cardinality search.

    Returns the elimination order on success, or a certificate vertex whose
    later neighbors fail to form a clique under the attempted order.
    """
    import heapq

    n = g.n
    if n == 0:
        return ChordalityResult(True, (), None)
    weight = [0] * n
    numbered = [False] * n
    heap: list[tuple[int, int]] = [(0, v) for v in range(n)]
    heapq.heapify(heap)
    visit: list[int] = []
    while len(visit) < n:
        while True:
            negw, v = heapq.heappop(heap)
            if not numbered[v] and -negw == weight[v]:
                break
        numbered[v] = True
        visit.append(v)
        for w in g.adj[v]:
            if not numbered[w]:
                weight[w] += 1
                heapq.heappush(heap, (-weight[w], w))
    peo = visit[::-1]
    pos = [0] * n
    for idx, v in enumerate(peo):
        pos[v] = idx
    edges = g.edges
    for v in peo:
        later = [w for w in g.adj[v] if pos[w] > pos[v]]
        if not later:
            continue
        u = min(later, key=lambda w: pos[w])
        for w in later:
            if w != u and norm_edge(u, w) not in edges:
                return ChordalityResult(False, None, v)
    return ChordalityResult(True, tuple(peo), None)
