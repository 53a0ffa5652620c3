"""Exact brute-force solvers.

These are deliberately independent of the fast algorithms: they search over
raw non-edge subsets and are used to certify everything else at small scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .errors import InputError
from .graph import CompletionSet, CoverSpec, Edge, Graph, validate_completion
from .reductions import SetCoverInstance


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
        self.base = [0] * g.n
        for u, v in g.edges:
            self.base[u] |= 1 << v
            self.base[v] |= 1 << u
        # each edge of a solution has c_min common neighbours; n - 1 means none exists
        self.c_min = self.k - 2
        while self.c_min < self.n - 1 and comb(self.c_min, self.k - 2) < self.l:
            self.c_min += 1
        self.nodes = 0

    def lower_bound(self, adj: list[int]) -> int:
        """Additions still needed, by degree and by common-neighbour deficits.

        Each vertex must reach degree c_min + 1, and each edge c_min common
        neighbours.  One addition raises two degrees by one, and the common
        count of at most two edges of a matching by one each, so either
        summed deficit halved (over a greedy matching of deficient edges, for
        the common neighbours) is admissible.
        """
        need = self.c_min
        degree = common = 0
        free = (1 << self.n) - 1
        for u in range(self.n):
            nu = adj[u]
            gap = need + 1 - nu.bit_count()
            if gap > 0:
                degree += gap
            if not free >> u & 1:
                continue
            # match u to the free neighbour above it with the largest deficit
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
                free ^= mate | 1 << u
        return (max(degree, common) + 1) // 2

    def _cliques_in(self, adj: list[int], mask: int, need: int, cap: int) -> int:
        # number of `need`-cliques inside `mask`, counted in ascending vertex
        # order, stopping once `cap` is reached
        if cap <= 0:
            return 0
        if need == 0:
            return 1
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

    def _saturated(self, adj: list[int], u: int, v: int) -> bool:
        common = adj[u] & adj[v]
        if self.k == 3:
            return common.bit_count() >= self.l
        return self._cliques_in(adj, common, self.k - 2, self.l) >= self.l

    def _first_unsaturated(self, adj: list[int]) -> Edge | None:
        for u in range(self.n):
            rest = adj[u] >> (u + 1)
            v = u + 1
            while rest:
                if rest & 1 and not self._saturated(adj, u, v):
                    return (u, v)
                rest >>= 1
                v += 1
        return None

    def run(self, adj: list[int], additions: list[Edge], remaining: int,
            memo: dict[frozenset[Edge], int]) -> list[Edge] | None:
        self.nodes += 1
        if self.nodes > self.max_nodes:
            raise InconclusiveError("node budget exhausted")
        if self.lower_bound(adj) > remaining:
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
    exhaustive search, so a returned optimum is exact.  Branches place one
    missing clique on the lexicographically first unsaturated edge, which
    keeps the search deterministic.
    """
    if budget is None:
        budget = OracleBudget()
    if g.n < spec.k:
        raise InputError(f"need at least {spec.k} vertices, got {g.n}")
    if not g.is_connected():
        raise InputError("search expects a connected graph")
    search = _Search(g, spec, budget.max_nodes)
    size = search.lower_bound(search.base)
    try:
        for size in range(size, budget.max_additions + 1):
            found = search.run(list(search.base), [], size, {})
            if found is not None:
                completion = CompletionSet(found)
                if not validate_completion(g, completion, spec).ok:
                    raise AssertionError("search returned an invalid completion")
                return OracleResult("optimal", completion, len(found), search.nodes)
    except InconclusiveError:
        # sizes below the current one are fully refuted
        return OracleResult("inconclusive", None, size, search.nodes)
    return OracleResult(
        "inconclusive", None, budget.max_additions + 1, search.nodes
    )


def deepening_start(g: Graph, spec: CoverSpec) -> int:
    """The size brute_min_completion's deepening starts at: the root's bound."""
    search = _Search(g, spec, 1)
    return search.lower_bound(search.base)


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
