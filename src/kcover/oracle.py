"""Exact brute-force solvers.

These are deliberately independent of the fast algorithms: they search over
raw non-edge subsets and are used to certify everything else at small scale.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import combinations
from math import comb, inf

from .errors import InputError
from .graph import CompletionSet, CoverSpec, Edge, Graph, validate_completion
from .reductions import SetCoverInstance

log = logging.getLogger("kcover")


# _Search keeps one n-bit mask per vertex, so its memory grows as n^2; larger
# graphs are refused before it is built.
MAX_SEARCH_VERTICES = 1024


class InconclusiveError(Exception):
    """A brute-force search hit its stated limits before finishing."""


@dataclass(frozen=True)
class OracleBudget:
    """Caps on the exact search."""

    max_additions: int = 8
    max_nodes: int = 10_000_000

    def __post_init__(self) -> None:
        if self.max_additions < 1:
            raise InputError("max_additions must be positive")
        if self.max_nodes < 1:
            raise InputError("max_nodes must be positive")


@dataclass(frozen=True)
class OracleResult:
    """Outcome of an exact search.

    status is "optimal" or "inconclusive".  For inconclusive outcomes,
    lower_bound is the smallest size not yet refuted; for optimal ones it
    equals the optimum.  nodes counts visited search states.
    """

    status: str
    completion: CompletionSet | None
    lower_bound: int
    nodes: int

    @property
    def ok(self) -> bool:
        return self.status == "optimal"


class _Search:
    """Depth-first search over clique-placement branches at a fixed budget.

    Adjacency is a list of ints, one bitmask per vertex, so saturation
    checks are word-parallel intersections.  A state whose admissible lower
    bound exceeds the remaining budget is cut off: it holds no solution, so
    the first completion found is the one the unpruned search finds.
    """

    def __init__(self, g: Graph, spec: CoverSpec, max_nodes: int) -> None:
        self.n = g.n
        self.k = spec.k
        self.l = spec.l
        self.max_nodes = max_nodes
        # the neighbours' bits are distinct, so their sum is their union
        self.base = [sum(map((1).__lshift__, row)) for row in g.adj]
        # each edge of a solution has c_min common neighbours; n - 1 means none exists
        self.c_min = self.k - 2
        while self.c_min < self.n - 1 and comb(self.c_min, self.k - 2) < self.l:
            self.c_min += 1
        self.nodes = 0

    def lower_bound(self, adj: list[int], remaining: int | None = None) -> int:
        """Additions still needed, by degree and by common-neighbour deficits.

        Each vertex must reach degree c_min + 1, and each edge c_min common
        neighbours.  One addition raises two degrees by one, and the common
        count of at most two edges of a matching by one each, so either
        summed deficit halved (over a greedy matching of deficient edges, for
        the common neighbours) is admissible.

        Given `remaining`, only the comparison with it is exact: the degree
        deficit is summed first, and the matching runs only when that does
        not already exceed 2 * remaining, stopping once its own sum does.
        """
        need = self.c_min + 1
        degree = 0
        for count in map(int.bit_count, adj):
            if count < need:
                degree += need - count
        limit = inf if remaining is None else 2 * remaining
        common = self._common_deficit(adj, limit) if degree <= limit else 0
        return (max(degree, common) + 1) // 2

    def _common_deficit(self, adj: list[int], limit: float) -> int:
        # summed common-neighbour deficits over a greedy matching of deficient
        # edges; the sum only grows, so it stops once it exceeds limit
        need = self.c_min
        common = 0
        free = (1 << self.n) - 1
        for u in range(self.n):
            if not free >> u & 1:
                continue
            # match u to the free neighbour above it with the largest deficit
            nu = adj[u]
            best = mate = 0
            rest = nu & free & -(2 << u)
            while rest:
                low = rest & -rest
                gap = need - (nu & adj[low.bit_length() - 1]).bit_count()
                if gap > best:
                    best, mate = gap, low
                rest ^= low
            if best:
                common += best
                if common > limit:
                    return common
                free ^= mate | 1 << u
        return common

    def _cliques_in(self, adj: list[int], mask: int, need: int, cap: int) -> int:
        # number of `need`-cliques inside `mask`, counted in ascending vertex
        # order, stopping once `cap` is reached; need and cap are >= 1
        if need == 1:
            count = mask.bit_count()
            return count if count < cap else cap
        total = 0
        rest = mask
        while rest and total < cap:
            low = rest & -rest
            w = low.bit_length() - 1
            rest ^= low
            total += self._cliques_in(adj, rest & adj[w], need - 1, cap - total)
        return total

    def _first_unsaturated(self, adj: list[int]) -> Edge | None:
        need, cap = self.k - 2, self.l
        for u in range(self.n):
            rest = adj[u] >> (u + 1)
            v = u + 1
            while rest:
                if rest & 1 and self._cliques_in(adj, adj[u] & adj[v], need, cap) < cap:
                    return (u, v)
                rest >>= 1
                v += 1
        return None

    def run(self, adj: list[int], additions: list[Edge], remaining: int,
            memo: dict[frozenset[Edge], int]) -> list[Edge] | None:
        self.nodes += 1
        if self.nodes > self.max_nodes:
            raise InconclusiveError("node budget exhausted")
        if self.lower_bound(adj, remaining) > remaining:
            return None
        target = self._first_unsaturated(adj)
        if target is None:
            return list(additions)
        if remaining == 0:
            return None
        state = frozenset(additions)
        if memo.get(state, -1) >= remaining:
            return None
        memo[state] = remaining
        u, v = target
        others = [w for w in range(self.n) if w != u and w != v]
        for completers in combinations(others, self.k - 2):
            verts = sorted((u, v, *completers))
            missing = [
                (a, b)
                for a, b in combinations(verts, 2)
                if not adj[a] >> b & 1
            ]
            # a clique already present adds nothing; an oversized one cannot fit
            if not missing or len(missing) > remaining:
                continue
            for a, b in missing:
                adj[a] |= 1 << b
                adj[b] |= 1 << a
                additions.append((a, b))
            found = self.run(adj, additions, remaining - len(missing), memo)
            if found is not None:
                return found
            for a, b in missing:
                adj[a] &= ~(1 << b)
                adj[b] &= ~(1 << a)
                additions.pop()
        return None


def brute_min_completion(
    g: Graph, spec: CoverSpec, budget: OracleBudget | None = None
) -> OracleResult:
    """Minimum completion set by iterative deepening over addition counts.

    Every size below the answer is refuted, by the root's lower bound or by
    exhaustive search, so a returned optimum is exact.  A spec that no
    completion meets, not even the complete graph, ends in InputError.
    Branches place one missing clique on the lexicographically first
    unsaturated edge, which keeps the search deterministic.  The visited node count and the size the
    deepening starts at are logged at info level.
    """
    if budget is None:
        budget = OracleBudget()
    if g.n > MAX_SEARCH_VERTICES:
        raise InputError(f"search supports at most {MAX_SEARCH_VERTICES} vertices, got {g.n}")
    if g.n < spec.k:
        raise InputError(f"need at least {spec.k} vertices, got {g.n}")
    if not g.is_connected():
        raise InputError("search expects a connected graph")
    search = _Search(g, spec, budget.max_nodes)
    if search.c_min == g.n - 1:
        raise InputError(
            f"no completion exists: on {g.n} vertices an edge lies in at most "
            f"C({g.n - 2}, {spec.k - 2}) = {comb(g.n - 2, spec.k - 2)} cliques of order "
            f"{spec.k}, fewer than l = {spec.l}"
        )
    start = search.lower_bound(search.base)
    try:
        for size in range(start, budget.max_additions + 1):
            found = search.run(list(search.base), [], size, {})
            if found is not None:
                completion = CompletionSet(found)
                if not validate_completion(g, completion, spec).ok:
                    raise AssertionError("search returned an invalid completion")
                return OracleResult("optimal", completion, len(found), search.nodes)
    except InconclusiveError:
        # sizes below the current one are fully refuted
        return OracleResult("inconclusive", None, size, search.nodes)
    finally:
        log.info("brute search visited %d nodes, deepening from size %d", search.nodes, start)
    return OracleResult(
        "inconclusive", None, budget.max_additions + 1, search.nodes
    )


def brute_min_setcover(inst: SetCoverInstance, max_sets: int = 20) -> list[int]:
    """Lexicographically least minimum cover by subset enumeration."""
    nf = len(inst.sets)
    if nf > max_sets:
        raise InconclusiveError(f"{nf} sets exceeds the enumeration cap {max_sets}")
    full = (1 << inst.universe_size) - 1
    masks = []
    for s in inst.sets:
        m = 0
        for x in s:
            m |= 1 << x
        masks.append(m)
    for size in range(1, nf + 1):
        for subset in combinations(range(nf), size):
            cover = 0
            for j in subset:
                cover |= masks[j]
            if cover == full:
                return list(subset)
    raise AssertionError("instance invariant guarantees a full cover exists")
