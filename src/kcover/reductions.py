"""Hardness-reduction constructions and their correspondence maps.

Two graph families encode SET-COVER as a completion problem (one for
triangles, one for k >= 4), with goodification routines that rewrite any
valid completion into an equally small one using only anchor edges, so a
set cover can be read off.  A third family encodes 3-PARTITION as spider
completion.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .errors import InputError
from .graph import (
    CompletionSet,
    CoverSpec,
    Edge,
    Graph,
    _check_addition,
    _count_cliques,
    neighbour_sets,
    norm_edge,
    validate_completion,
)
from .trees import spider_graph

ROLE_KINDS = ("set", "item", "aux", "common", "set-subgraph", "item-endpoint")


@dataclass(frozen=True)
class SetCoverInstance:
    """Universe 0..universe_size-1 plus a family of covering sets."""

    universe_size: int
    sets: tuple[frozenset[int], ...]
    budget: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "sets", tuple(frozenset(s) for s in self.sets))
        if self.universe_size < 1:
            raise InputError("universe must be non-empty")
        if not self.sets:
            raise InputError("need at least one set")
        covered: set[int] = set()
        for idx, s in enumerate(self.sets):
            if not s:
                raise InputError(f"set {idx} is empty")
            for x in s:
                if not 0 <= x < self.universe_size:
                    raise InputError(f"set {idx} contains out-of-range item {x}")
            covered |= s
        if len(covered) != self.universe_size:
            # the first five gaps lie below len(covered) + 5: no scan of the universe
            below = range(min(self.universe_size, len(covered) + 5))
            first = [x for x in below if x not in covered][:5]
            raise InputError(
                f"{self.universe_size - len(covered)} of {self.universe_size} items are"
                f" not covered by any set, the first {first}"
            )
        if self.budget is not None and self.budget < 1:
            raise InputError("budget must be positive when given")


@dataclass(frozen=True)
class ThreePartitionInstance:
    """3p values, each strictly between target/4 and target/2, summing to p*target."""

    target: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))
        if len(self.values) == 0 or len(self.values) % 3 != 0:
            raise InputError("value count must be a positive multiple of 3")
        for v in self.values:
            if not (4 * v > self.target and 2 * v < self.target):
                raise InputError(
                    f"value {v} outside the open window ({self.target}/4, {self.target}/2)"
                )
        p = len(self.values) // 3
        if sum(self.values) != p * self.target:
            raise InputError(
                f"values sum to {sum(self.values)}, expected {p * self.target}"
            )


@dataclass(frozen=True)
class Role:
    kind: str
    index: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ROLE_KINDS:
            raise InputError(f"unknown role kind {self.kind!r}")
        if self.index is None and self.kind not in ("aux", "common"):
            raise InputError(f"a {self.kind!r} role needs an index")


@dataclass(frozen=True)
class LabeledReductionGraph:
    """A reduction graph with per-vertex roles and per-set anchor edges."""

    graph: Graph
    roles: tuple[Role, ...]
    k: int
    set_ids: tuple[tuple[int, ...], ...]
    item_ids: tuple[tuple[int, ...], ...]
    common: int

    @property
    def set_count(self) -> int:
        return len(self.set_ids)

    @property
    def item_count(self) -> int:
        return len(self.item_ids)

    def anchor_edge(self, j: int) -> Edge:
        """The one addition that 'buys' set j."""
        if not 0 <= j < self.set_count:
            raise InputError(f"set index {j} out of range")
        if self.k == 3:
            return norm_edge(self.set_ids[j][0], self.common)
        return norm_edge(self.set_ids[j][0], self.set_ids[j][1])

    def anchor_edges(self) -> dict[Edge, int]:
        return {self.anchor_edge(j): j for j in range(self.set_count)}

    def covering_sets(self, i: int) -> list[int]:
        """Indices of sets containing item i, read off the membership edges."""
        probe = self.item_ids[i][0]
        return [
            j
            for j in range(self.set_count)
            if self.graph.has_edge(probe, self.set_ids[j][0])
        ]

    @classmethod
    def from_roles(cls, graph: Graph, roles: Sequence[Role], k: int) -> "LabeledReductionGraph":
        if len(roles) != graph.n:
            raise InputError("one role per vertex required")
        sets: dict[int, list[int]] = {}
        items: dict[int, list[int]] = {}
        common = None
        for v, role in enumerate(roles):
            if role.kind in ("set", "set-subgraph"):
                sets.setdefault(role.index, []).append(v)
            elif role.kind in ("item", "item-endpoint"):
                items.setdefault(role.index, []).append(v)
            elif role.kind == "common":
                if common is not None:
                    raise InputError("more than one common vertex")
                common = v
        if common is None:
            raise InputError("no common vertex in roles")
        if sorted(sets) != list(range(len(sets))) or sorted(items) != list(range(len(items))):
            raise InputError("set/item indices must be dense")
        if k >= 4:
            for i, ids in items.items():
                if len(ids) != 2:
                    raise InputError(f"item {i} has {len(ids)} endpoints; k >= 4 needs 2")
        return cls(
            graph=graph,
            roles=tuple(roles),
            k=k,
            set_ids=tuple(tuple(sorted(sets[j])) for j in range(len(sets))),
            item_ids=tuple(tuple(sorted(items[i])) for i in range(len(items))),
            common=common,
        )


def build_setcover_k3(inst: SetCoverInstance) -> LabeledReductionGraph:
    """Encode SET-COVER as triangle completion.

    Minimum completions correspond to minimum covers: the only unsaturated
    edges connect the item blobs to the common vertex, and the cheapest way to
    fix a blob is the anchor edge of a covering set.
    """
    nf = len(inst.sets)
    nx = inst.universe_size
    roles: list[Role] = [Role("set", j) for j in range(nf)]
    edges: list[Edge] = []
    nxt = nf
    item_ids: list[tuple[int, ...]] = []
    for i in range(nx):
        ids = tuple(range(nxt, nxt + 2 * nx))
        nxt += 2 * nx
        item_ids.append(ids)
        roles += [Role("item", i)] * (2 * nx)
    for i in range(nx):
        for j in range(nf):
            if i not in inst.sets[j]:
                continue
            for v in item_ids[i]:
                edges.append(norm_edge(j, v))
                w = nxt
                nxt += 1
                roles.append(Role("aux"))
                edges.append(norm_edge(j, w))
                edges.append(norm_edge(v, w))
    common = nxt
    nxt += 1
    roles.append(Role("common"))
    for ids in item_ids:
        for v in ids:
            edges.append(norm_edge(v, common))
    return LabeledReductionGraph.from_roles(Graph(nxt, edges), roles, 3)


def build_setcover_k(inst: SetCoverInstance, k: int) -> LabeledReductionGraph:
    """Encode SET-COVER as (k,1) completion for k >= 4.

    Each set becomes a near-clique on k-2 vertices missing only its anchor
    edge; each item becomes an edge joined to the near-cliques of the sets
    containing it.  Every other edge is wrapped in a throwaway k-clique, so
    the item edges end up as the only unsaturated ones.
    """
    if k < 4:
        raise InputError(f"this construction needs k >= 4, got {k}")
    nf = len(inst.sets)
    nx = inst.universe_size
    roles: list[Role] = []
    edges: list[Edge] = []
    nxt = 0
    item_ids: list[tuple[int, int]] = []
    for i in range(nx):
        item_ids.append((nxt, nxt + 1))
        roles += [Role("item-endpoint", i)] * 2
        edges.append((nxt, nxt + 1))
        nxt += 2
    set_ids: list[tuple[int, ...]] = []
    for j in range(nf):
        ids = tuple(range(nxt, nxt + (k - 2)))
        nxt += k - 2
        roles += [Role("set-subgraph", j)] * (k - 2)
        set_ids.append(ids)
        for a, b in combinations(ids, 2):
            if (a, b) != (ids[0], ids[1]):
                edges.append((a, b))
    for i in range(nx):
        for j in range(nf):
            if i not in inst.sets[j]:
                continue
            for endpoint in item_ids[i]:
                for gv in set_ids[j]:
                    edges.append(norm_edge(endpoint, gv))
    item_edge_set = set(item_ids)

    def wrap(e: Edge) -> None:
        nonlocal nxt
        fresh = list(range(nxt, nxt + (k - 2)))
        nxt += k - 2
        roles.extend(Role("aux") for _ in fresh)
        for f in fresh:
            edges.append(norm_edge(e[0], f))
            edges.append(norm_edge(e[1], f))
        edges.extend(combinations(fresh, 2))

    for e in list(edges):
        if e not in item_edge_set:
            wrap(e)
    common = nxt
    nxt += 1
    roles.append(Role("common"))
    for j in range(nf):
        e = norm_edge(set_ids[j][0], common)
        edges.append(e)
        wrap(e)
    return LabeledReductionGraph.from_roles(Graph(nxt, edges), roles, k)


def setcover_gadget_order(inst: SetCoverInstance, k: int) -> int:
    """The vertex count of build_setcover_k3 (k = 3) or build_setcover_k, without building it."""
    nf, nx, members = len(inst.sets), inst.universe_size, sum(map(len, inst.sets))
    if k == 3:  # sets, 2nx vertices per item, one aux per (item vertex, set) and common
        return nf + 2 * nx * nx + 2 * nx * members + 1
    w = max(k - 2, 0)  # each set's near-clique, and each wrapped edge's fresh vertices
    wrapped = nf * (w * (w - 1) // 2 - 1) + 2 * w * members + nf
    return 2 * nx + nf * w + w * wrapped + 1


def unsaturated_item_targets(rg: LabeledReductionGraph) -> list[Edge]:
    """The edges the reduction leaves uncovered: item-to-common for k=3,
    the item edges themselves for k >= 4."""
    if rg.k == 3:
        return sorted(
            norm_edge(v, rg.common) for ids in rg.item_ids for v in ids
        )
    return sorted(norm_edge(*pair) for pair in rg.item_ids)


class _AnchorPurchase:
    """The anchor edges a goodify rewrite buys, in order, for a valid completion.

    nbr holds the neighbour sets of the reduction graph plus the bought edges,
    so an edge's saturation is probed without building a graph.
    """

    def __init__(self, rg: LabeledReductionGraph, c: CompletionSet, k: int):
        if not validate_completion(rg.graph, c, CoverSpec(k, 1)).ok:
            raise InputError("input is not a valid completion of the reduction graph")
        self.rg = rg
        self.k = k
        self.nbr = [set(a) for a in rg.graph.adj]
        self.out: list[Edge] = []

    def buy(self, j: int) -> None:
        e = self.rg.anchor_edge(j)
        _check_addition(self.rg.graph, e)
        u, v = e
        if v not in self.nbr[u]:
            self.nbr[u].add(v)
            self.nbr[v].add(u)
            self.out.append(e)

    def buy_anchors_in(self, c: CompletionSet) -> None:
        anchors = self.rg.anchor_edges()
        for e in c:
            if e in anchors:
                self.buy(anchors[e])

    def saturated(self, e: Edge) -> bool:
        """Whether edge e of the graph plus the bought edges lies in a k-clique."""
        u, v = e
        nbr = self.nbr
        if v not in nbr[u]:
            raise InputError(f"({u},{v}) is not an edge")
        return _count_cliques(nbr, nbr[u] & nbr[v], self.k - 2, 1) >= 1


def goodify_3(rg: LabeledReductionGraph, c: CompletionSet) -> CompletionSet:
    """Rewrite a valid triangle completion into anchor edges only, no larger."""
    if rg.k != 3:
        raise InputError("this rewrite applies to the k=3 construction")
    bought = _AnchorPurchase(rg, c, 3)
    for i, ids in enumerate(rg.item_ids):
        blob = set(ids)
        if any(u in blob and v in blob for (u, v) in c):
            bought.buy(min(rg.covering_sets(i)))
    bought.buy_anchors_in(c)
    for i, ids in enumerate(rg.item_ids):
        if not bought.saturated(norm_edge(ids[0], rg.common)):
            bought.buy(min(rg.covering_sets(i)))
    return CompletionSet(bought.out)


def goodify_k(rg: LabeledReductionGraph, c: CompletionSet, k: int) -> CompletionSet:
    """Rewrite a valid (k,1) completion (k >= 4) into anchor edges only."""
    if k < 4:
        raise InputError("this rewrite applies to the k >= 4 construction")
    if k != rg.k:
        raise InputError(f"k={k} does not match the construction's k={rg.k}")
    bought = _AnchorPurchase(rg, c, k)
    bought.buy_anchors_in(c)
    vertex_set = {v: j for j, ids in enumerate(rg.set_ids) for v in ids}
    for u, v in c:
        ju, jv = vertex_set.get(u), vertex_set.get(v)
        if ju is not None and jv is not None and ju != jv:
            bought.buy(min(ju, jv))
    added = neighbour_sets(c)  # the input's pairs by endpoint
    orig = rg.graph.edges
    while True:
        unsat = [
            i
            for i, pair in enumerate(rg.item_ids)
            if not bought.saturated(norm_edge(*pair))
        ]
        if not unsat:
            break
        i = unsat[0]
        xi, xj = rg.item_ids[i]
        v = None
        near_i, near_j = (set(rg.graph.adj[x]) | added.get(x, set()) for x in (xi, xj))
        for cand in sorted(near_i & near_j):
            touches = (norm_edge(xi, cand) in orig) + (norm_edge(xj, cand) in orig)
            if touches <= 1:
                v = cand
                break
        if v is None:
            raise AssertionError("every clique vertex is doubly attached in the base graph")
        bought.buy(min(rg.covering_sets(i)))
        for other in unsat[1:]:
            if v in rg.item_ids[other]:
                bought.buy(min(rg.covering_sets(other)))
                break
    return CompletionSet(bought.out)


def extract_set_cover(rg: LabeledReductionGraph, good: CompletionSet) -> list[int]:
    """Set indices bought by an anchors-only completion; must cover the universe."""
    anchors = rg.anchor_edges()
    chosen: set[int] = set()
    for e in good:
        if e not in anchors:
            raise InputError(f"edge {e} is not an anchor edge")
        chosen.add(anchors[e])
    _check_cover(rg, chosen)
    return sorted(chosen)


def completion_from_cover(rg: LabeledReductionGraph, cover: Iterable[int]) -> CompletionSet:
    """Anchor edges of the given sets; the cover must hit every item."""
    chosen = sorted(set(cover))
    completion = CompletionSet(rg.anchor_edge(j) for j in chosen)  # refuses a bad index
    _check_cover(rg, set(chosen))
    return completion


def _check_cover(rg: LabeledReductionGraph, chosen: set[int]) -> None:
    """Refuse a choice of sets that leaves some item uncovered."""
    uncovered = [i for i in range(rg.item_count) if not chosen.intersection(rg.covering_sets(i))]
    if uncovered:
        raise InputError(f"items {uncovered} are not covered by the chosen sets")


def build_spider(inst: ThreePartitionInstance) -> Graph:
    """Spider with one leg of length a per value a, legs numbered in value order."""
    return spider_graph(inst.values)


def spider_leg_vertices(inst: ThreePartitionInstance, leg: int) -> list[int]:
    if not 0 <= leg < len(inst.values):
        raise InputError(f"leg {leg} out of range")
    start = 1 + sum(inst.values[:leg])
    return list(range(start, start + inst.values[leg]))


def spider_leg_edges(inst: ThreePartitionInstance, leg: int) -> list[Edge]:
    verts = spider_leg_vertices(inst, leg)
    chain = [0] + verts
    return [norm_edge(a, b) for a, b in zip(chain, chain[1:])]


def _check_spider(inst: ThreePartitionInstance, spider: Graph) -> None:
    if spider != build_spider(inst):
        raise InputError("spider does not match the instance's leg layout")


def completion_from_partition(
    inst: ThreePartitionInstance, spider: Graph, partition: Sequence[Sequence[int]]
) -> CompletionSet:
    """Complete, per triple of legs, the center plus those legs into a clique.

    A valid partition into triples summing to the target yields exactly
    p * s * (s-1) / 2 additions for p triples and target s.
    """
    _check_spider(inst, spider)
    used: list[int] = []
    for triple in partition:
        if len(triple) != 3:
            raise InputError(f"group {tuple(triple)} is not a triple")
        used.extend(triple)
    if sorted(used) != list(range(len(inst.values))):
        raise InputError("partition must use every leg exactly once")
    additions: list[Edge] = []
    for triple in partition:
        total = sum(inst.values[i] for i in triple)
        if total != inst.target:
            raise InputError(
                f"legs {tuple(triple)} sum to {total}, expected {inst.target}"
            )
        verts = [0]
        for leg in triple:
            verts.extend(spider_leg_vertices(inst, leg))
        for a, b in combinations(sorted(verts), 2):
            if (a, b) not in spider.edges:
                additions.append((a, b))
    return CompletionSet(additions)


def partition_from_edge_partition(
    inst: ThreePartitionInstance,
    spider: Graph,
    groups: Sequence[Iterable[tuple[int, int]]],
) -> list[tuple[int, int, int]]:
    """Read a 3-partition back off a partition of the spider's edges into
    s-edge subtrees: each subtree must consist of whole legs, necessarily
    three of them."""
    _check_spider(inst, spider)
    leg_of: dict[Edge, int] = {}
    for leg in range(len(inst.values)):
        for e in spider_leg_edges(inst, leg):
            leg_of[e] = leg
    norm_groups: list[list[Edge]] = []
    seen: set[Edge] = set()
    for group in groups:
        g_edges = [norm_edge(u, v) for u, v in group]
        for e in g_edges:
            if e not in spider.edges:
                raise InputError(f"{e} is not a spider edge")
            if e in seen:
                raise InputError(f"edge {e} appears in two groups")
            seen.add(e)
        norm_groups.append(g_edges)
    if len(seen) != spider.m:
        raise InputError("groups do not cover every spider edge")
    triples: list[tuple[int, int, int]] = []
    for g_edges in norm_groups:
        if len(g_edges) != inst.target:
            raise InputError(
                f"group has {len(g_edges)} edges, expected {inst.target}"
            )
        legs = sorted({leg_of[e] for e in g_edges})
        for leg in legs:
            if not set(spider_leg_edges(inst, leg)).issubset(g_edges):
                raise InputError(f"leg {leg} is split between groups")
        if len(legs) != 3:
            raise InputError(f"group contains {len(legs)} whole legs, expected 3")
        triples.append((legs[0], legs[1], legs[2]))
    return triples

