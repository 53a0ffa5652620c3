"""Undirected simple graphs plus the clique-cover predicates used everywhere else.

Vertices are dense integers 0..n-1 and every edge is a normalized pair (u, v)
with u < v.  Graphs are immutable; edits return new graphs.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, combinations, starmap
from operator import eq, itemgetter
from typing import Callable, Iterable, Iterator, Mapping, NoReturn, Sequence

from .errors import InputError

Edge = tuple[int, int]


def norm_edge(u: int, v: int) -> Edge:
    """Order the endpoints of an edge; self-loops are rejected."""
    if u == v:
        raise InputError(f"self-loop ({u},{v}) is not allowed")
    return (u, v) if u < v else (v, u)


def _checked_edges(
    pairs: Iterable[tuple[int, int]], n: int | None, noun: str = "edge"
) -> list[Edge]:
    """The pairs as (min, max) edges in input order.

    A negative n, a self-loop, an endpoint outside 0..n-1 (unless n is None)
    and a repeat (a duplicate noun) are refused.  Bulk checks find a fault; an
    in-order rescan, run only then, raises the first one.
    """
    if n is not None and n < 0:
        raise InputError("vertex count must be non-negative")
    # an ordered pair that is a tuple already is kept, not copied
    edges = [
        (p if type(p) is tuple else (u, v)) if u < v else (v, u) for p in pairs for u, v in (p,)
    ]
    if len(frozenset(edges)) < len(edges) or any(starmap(eq, edges)) or n is not None and (
        min(edges, default=(0,))[0] < 0 or max(map(itemgetter(1), edges), default=-1) >= n
    ):
        seen: set[Edge] = set()
        for e in edges:
            norm_edge(*e)  # refuses a self-loop
            if n is not None and (e[0] < 0 or e[1] >= n):
                raise InputError(f"edge {e} out of range for n={n}")
            if e in seen:
                raise InputError(f"duplicate {noun} {e}")
            seen.add(e)
    return edges


def _sorted_rows(
    n: int, pairs: Iterable[tuple[int, int]]
) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The sorted neighbour rows of the graph on 0..n-1 whose edges are the
    pairs, and the pair count, refusing what _checked_edges refuses.

    The rows show a fault in bulk: an endpoint of n or more, or below -n,
    stops the fill; one in -n..-1 heads a row; a repeat or a self-loop leaves
    equal neighbours side by side in a row, so its set is shorter.  Only then
    does _checked_edges rescan the pairs, which raises the first fault.
    """
    if n < 0:
        raise InputError("vertex count must be non-negative")
    if not isinstance(pairs, (list, tuple)):
        pairs = list(pairs)
    rows: list = [[] for _ in range(n)]  # lists while filled, then sorted tuples
    try:
        for u, v in pairs:
            rows[u].append(v)
            rows[v].append(u)
    except IndexError:
        _checked_edges(pairs, n)
    for v, row in enumerate(rows):  # each list is freed once its tuple is made
        row.sort()
        rows[v] = tuple(row)
    if (
        min(map(itemgetter(0), filter(None, rows)), default=0) < 0
        or sum(map(len, map(set, rows))) < 2 * len(pairs)
    ):
        _checked_edges(pairs, n)
    return tuple(rows), len(pairs)


def _in_row(row: Sequence[int], w: int) -> bool:
    """Whether w is in the ascending row, by bisection."""
    i = bisect_left(row, w)
    return i < len(row) and row[i] == w


def _upper_pairs(adj: Sequence[Sequence[int]]) -> Iterator[Edge]:
    """The edges (u, v), u < v, of the sorted neighbour rows adj, in order."""
    for u, row in enumerate(adj):
        for v in row[bisect_right(row, u):]:
            yield u, v


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1, held as its
    sorted neighbour rows: adj[v] lists v's neighbours in ascending order."""

    __slots__ = ("n", "m", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        self.n = n
        self.adj, self.m = _sorted_rows(n, edges)

    @property
    def edges(self) -> frozenset[Edge]:
        """The edge set, built on each read; the package reads the rows."""
        return frozenset(_upper_pairs(self.adj))

    def has_edge(self, u: int, v: int) -> bool:
        u, v = norm_edge(u, v)
        return 0 <= u and v < self.n and _in_row(self.adj[u], v)

    def edge_list(self) -> list[Edge]:
        return list(_upper_pairs(self.adj))

    def without_edges(self, pairs: Iterable[tuple[int, int]]) -> "Graph":
        drop = {norm_edge(u, v) for u, v in pairs}
        missing = sorted(e for e in drop if not self.has_edge(*e))
        if missing:
            raise InputError(f"cannot remove non-edges {missing}")
        return Graph(self.n, [e for e in _upper_pairs(self.adj) if e not in drop])

    def components(self) -> list[list[int]]:
        return components(self.adj, range(self.n))

    def is_connected(self) -> bool:
        return _is_connected(self.adj, self.n)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.adj == other.adj  # n is len(adj)

    def __hash__(self) -> int:
        return hash(self.adj)

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


def _is_connected(adj: Sequence[Iterable[int]] | Mapping[int, Iterable[int]], n: int) -> bool:
    """Whether vertices 0..n-1 form at most one component: a search from
    vertex 0 counts the vertices it reaches.  adj[v] lists v's neighbours."""
    if n <= 1:
        return True
    seen = bytearray(n)
    seen[0] = 1
    reached = [0]
    for v in reached:
        for w in adj[v]:
            if not seen[w]:
                seen[w] = 1
                reached.append(w)
    return len(reached) == n


def neighbour_sets(pairs: Iterable[Edge]) -> dict[int, set[int]]:
    """Neighbour sets of the vertices the pairs touch."""
    adj: defaultdict[int, set[int]] = defaultdict(set)
    for u, v in pairs:
        adj[u].add(v)
        adj[v].add(u)
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
        self.additions = tuple(_checked_edges(pairs, None, "addition"))

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


def _count_cliques(nbr: Mapping[int, set[int]], cands: set[int], need: int, cap: int) -> int:
    """Number of need-cliques among cands, counted up to cap.

    nbr[w] is the neighbour set of each candidate w.  The candidates of an
    edge's k-cliques are its endpoints' common neighbours, and need is k - 2.
    Each clique is counted from its first member in the iteration order of
    cands, by intersecting that member's neighbours with the members after it.
    """
    if need == 1:
        return min(len(cands), cap)
    rest = set(cands)
    count = 0
    for x in cands:
        if len(rest) < need:
            break
        rest.discard(x)
        count += _count_cliques(nbr, rest & nbr[x], need - 1, cap - count)
        if count >= cap:
            return cap
    return count


def _find_clique(
    nbr: Mapping[int, set[int]], cands: set[int], need: int
) -> tuple[int, ...] | None:
    """need pairwise adjacent vertices of cands, or None when there are none.

    nbr[w] is the neighbour set of each candidate w.  As in _count_cliques, a
    candidate is dropped once the cliques it heads have been searched.
    """
    if need == 1:
        for x in cands:
            return (x,)
        return None
    rest = set(cands)
    for x in cands:
        if len(rest) < need:
            break
        rest.discard(x)
        found = _find_clique(nbr, rest & nbr[x], need - 1)
        if found is not None:
            return (x, *found)
    return None


# Rows longer than this become sets for the k = 3 and 4 scans, which then walk
# no long row; at 8 a 4*10^4-vertex tree's k = 4 check peaks at 167 B/vertex,
# not 143, and at 64 a tree of 48-leaf hubs checks about a quarter slower.
LONG_ROW = 16


def _neighbour_rows(
    pairs: Iterable[tuple[int, int]], n: int, fault: Callable[[], NoReturn]
) -> defaultdict[int, list[int]]:
    """The neighbour rows of the vertices the pairs touch, as lists in the
    pairs' order, so memory follows the pairs and not n.  A vertex outside
    0..n-1 calls fault, which raises the first fault of the input."""
    rows: defaultdict[int, list[int]] = defaultdict(list)
    for u, v in pairs:
        rows[u].append(v)
        rows[v].append(u)
    if min(rows, default=0) < 0 or max(rows, default=-1) >= n:
        fault()
    return rows


def _rows_to_sets(
    rows: dict[int, Sequence[int]], longer_than: int, fault: Callable[[], NoReturn]
) -> None:
    """Replace each row longer than longer_than by its set, freeing the row.
    A set shorter than its row shows a repeated neighbour, a self-loop or an
    addition that is already an edge, and calls fault."""
    for u, row in rows.items():
        if len(row) > longer_than:
            su = set(row)
            if len(su) < len(row):
                fault()
            rows[u] = su


def _unsaturated(
    rows: dict[int, Sequence[int]], spec: CoverSpec, n: int, fault: Callable[[], NoReturn]
) -> list[Edge]:
    """The edges lying in fewer than spec.l cliques of order spec.k, sorted.

    rows maps each vertex of the graph on 0..n-1 that has a neighbour, and
    maybe others, to its neighbours, and the edges are scanned from it by
    lower end.  A row that repeats a neighbour calls fault, which raises the
    first fault of the input.  At l = 1 and k = 3 or 4, each row longer than
    LONG_ROW becomes its set, and each lower end u makes one temporary set of
    its row and tests it against its higher neighbours' rows.  Every other
    route turns the rows into sets first.  At l = 1 and k >= 5, a clique found
    for one edge covers all its pairs, so the lower ends are taken in
    ascending order, and the pairs of each clique found that the scan has yet
    to reach are marked and skipped when reached: as the integers u * n + v,
    or, at the current lower end, as its neighbour.  A mark is dropped when
    its edge is reached.  At l >= 2 each edge's cliques are counted, up to l.
    """
    need, cap = spec.k - 2, spec.l
    out: list[Edge] = []
    if cap == 1 and need <= 2:
        _rows_to_sets(rows, LONG_ROW, fault)
        for u, row in rows.items():
            su = row if len(row) > LONG_ROW else set(row)
            if len(su) < len(row):
                fault()
            for v in row:
                if v < u:
                    continue
                # k = 3: no common neighbour; the marks scan takes about twice as long
                if need == 1:
                    if su.isdisjoint(rows[v]):
                        out.append((u, v))
                    continue
                # k = 4: no edge among the common neighbours; marks would raise the peak
                common = su.intersection(rows[v])
                for x in common:
                    if not common.isdisjoint(rows[x]):
                        break
                else:
                    out.append((u, v))
        out.sort()
        return out
    _rows_to_sets(rows, 0, fault)
    nbr = rows  # every row is now a set
    if cap == 1:
        marks: set[int] = set()  # pairs of found cliques at higher lower ends
        here: set[int] = set()  # the current lower end's neighbours in them
        for u in sorted(nbr):
            here.clear()
            nu = nbr[u]
            for v in nu:
                if v < u or v in here:
                    continue
                key = u * n + v
                if key in marks:
                    marks.remove(key)
                    continue
                common = nu & nbr[v]
                found = _find_clique(nbr, common, need)
                if found is None:
                    out.append((u, v))
                    continue
                for a, b in combinations(sorted((u, v, *found)), 2):
                    if a > u:
                        marks.add(a * n + b)
                    elif a == u:
                        here.add(b)
    else:
        for u, nu in nbr.items():
            for v in nu:
                if v < u:
                    continue
                common = nu & nbr[v]
                if _count_cliques(nbr, common, need, cap) < cap:
                    out.append((u, v))
    out.sort()
    return out


def unsaturated_edges(g: Graph, spec: CoverSpec) -> list[Edge]:
    """Edges lying in fewer than spec.l cliques of order spec.k, in lexicographic order."""
    return list(validate_completion(g, CompletionSet(), spec).violations)


def apply_completion(g: Graph, c: CompletionSet) -> Graph:
    """Add every pair of c to g.  Pairs must be non-edges; duplicates are rejected."""
    for e in c:
        _check_addition(e, g.n, g.has_edge(*e))
    return Graph(g.n, [*_upper_pairs(g.adj), *c])


def _check_addition(e: Edge, n: int, is_edge: bool) -> None:
    if e[0] < 0 or e[1] >= n:
        raise InputError(f"addition {e} out of range for n={n}")
    if is_edge:
        raise InputError(f"addition {e} is already an edge")


def validate_pairs(
    n: int, pairs: Iterable[tuple[int, int]], c: CompletionSet, spec: CoverSpec
) -> CoverCheck:
    """Check that the graph on 0..n-1 with edges pairs, plus c, has a (k,l)-cover
    and is connected, raising the InputErrors of Graph(n, pairs) and of
    apply_completion.

    No Graph is built: the pairs and c's additions go into neighbour rows,
    held only for the vertices they touch, so memory follows the input and not
    n.  An endpoint out of range shows as a row key below 0 or of n or more,
    and a repeat, a self-loop or an addition that is already an edge as a row
    whose set is shorter, found as the scan makes that set; only a fault found
    so makes the in-order rescan run, which raises the first one.  Every edge
    is scanned once against the rows (see _cover_check).
    """
    if n < 0:
        raise InputError("vertex count must be non-negative")
    if not isinstance(pairs, (list, tuple)):
        pairs = list(pairs)

    def fault() -> NoReturn:
        edge_set = frozenset(_checked_edges(pairs, n))
        for e in c:
            _check_addition(e, n, e in edge_set)
        raise AssertionError("a fault was found in bulk but not in order")

    return _cover_check(n, _neighbour_rows(chain(pairs, c), n, fault), spec, fault)


def validate_completion(g: Graph, c: CompletionSet, spec: CoverSpec) -> CoverCheck:
    """Check that g plus c has a (k,l)-cover and is connected (see validate_pairs).

    g's edges were checked when g was built, so only c's additions are.  The
    rows are g's own, and a new list for each vertex that an addition touches.
    """

    def fault() -> NoReturn:
        for e in c:
            _check_addition(e, g.n, g.has_edge(*e))
        raise AssertionError("a fault was found in bulk but not in order")

    rows: dict[int, Sequence[int]] = dict(enumerate(g.adj))
    for v, added in _neighbour_rows(c, g.n, fault).items():
        rows[v] = [*rows[v], *added]
    return _cover_check(g.n, rows, spec, fault)


def _cover_check(
    n: int, rows: dict[int, Sequence[int]], spec: CoverSpec, fault: Callable[[], NoReturn]
) -> CoverCheck:
    """The verdict on the graph on 0..n-1 whose neighbour rows are rows.

    Every edge is scanned once against the rows.  With n > 1, a vertex that
    rows does not hold leaves the graph disconnected; otherwise one search
    from vertex 0 counts the vertices it reaches.
    """
    violations = tuple(_unsaturated(rows, spec, n, fault))
    connected = _is_connected(rows, n) if len(rows) == n else n <= 1
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


@dataclass(frozen=True)
class CardinalitySearch:
    """What one maximum cardinality search of a graph saw (see cardinality_search).

    visit is the visit order, certificate a vertex whose later neighbours are
    not a clique (None if there is none), restarts the number of vertices
    numbered with no numbered neighbour, which is the component count, and
    no_triangle the edges the search found in no triangle, sorted.
    """

    visit: list[int]
    certificate: int | None
    restarts: int
    no_triangle: list[Edge]


def cardinality_search(g: Graph) -> CardinalitySearch:
    """One maximum cardinality search (MCS) of g, with the chordality test and
    the edges in no triangle found on the way.

    MCS numbers next the unnumbered vertex with the most numbered neighbours,
    the smallest id among ties; the elimination order is the visit order
    reversed.  A vertex's later neighbours in that order are those numbered
    before it, and the clique test checks each against the nearest of them,
    the one numbered last.  The certificate, on failure, is the first vertex
    in elimination order that fails this test.  Its later neighbours are not
    a clique, though an earlier vertex's may not be one either.

    An edge (x, v) is a candidate when x is v's only numbered neighbour as v
    is numbered; a vertex numbered later with both x and v among its numbered
    neighbours strikes it.  What is left lies in no triangle, on any graph.
    On a chordal graph every vertex's numbered neighbours are a clique, so an
    edge that is never a candidate lies in a triangle and what is left is
    exactly the bridges (Tarjan and Yannakakis, SIAM J. Comput. 13(3), 1984).
    """
    n, adj = g.n, g.adj
    weight = [0] * n  # numbered neighbours, then -1 - visit position once numbered
    cand = [-1] * n  # x while (x, v) is a candidate, v numbered after x
    lone: list[int] = []  # each v numbered with one numbered neighbour
    # buckets[w]: heap of the ids pushed at weight w; no weight exceeds a degree
    buckets = [list(range(n))] + [[] for _ in range(max(map(len, adj), default=0))]
    top = 0
    visit: list[int] = []
    certificate = None
    restarts = 0
    for v_rank in range(n):
        while True:
            while not buckets[top]:
                top -= 1
            v = heapq.heappop(buckets[top])
            if weight[v] == top:
                break
        weight[v] = -1 - v_rank
        visit.append(v)
        row = adj[v]
        later = []
        for w in row:
            wt = weight[w]
            if wt < 0:
                later.append(w)
                continue
            wt = weight[w] = wt + 1
            heapq.heappush(buckets[wt], w)
            if wt > top:
                top = wt
        if len(later) > 1:
            u = min(later, key=weight.__getitem__)  # the one numbered last
            nearest = adj[u]
            for w in later:
                if w != u:
                    i = bisect_left(nearest, w)
                    if i == len(nearest) or nearest[i] != w:
                        certificate = v
                        break
            for b in later:
                x = cand[b]
                if x >= 0:
                    i = bisect_left(row, x)
                    if i < len(row) and row[i] == x:
                        cand[b] = -1
        elif later:
            cand[v] = later[0]
            lone.append(v)
        else:
            restarts += 1
    no_triangle = sorted(
        (x, v) if x < v else (v, x) for v in lone for x in (cand[v],) if x >= 0
    )
    return CardinalitySearch(visit, certificate, restarts, no_triangle)


def check_chordal(g: Graph) -> ChordalityResult:
    """Chordality test by one maximum cardinality search (see
    cardinality_search): the perfect elimination order, or a certificate."""
    search = cardinality_search(g)
    if search.certificate is not None:
        return ChordalityResult(False, None, search.certificate)
    return ChordalityResult(True, tuple(search.visit[::-1]), None)
