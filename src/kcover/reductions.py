"""Hardness-reduction constructions and their correspondence maps.

Two graph families encode SET-COVER as a completion problem (one for
triangles, one for k >= 4), with goodification routines that rewrite any
valid completion into an equally small one using only anchor edges, so a
set cover can be read off.  A third family encodes 3-PARTITION as spider
completion.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate, combinations
from typing import Iterable, Sequence

from .errors import InputError
from .graph import (
    CompletionSet,
    CoverSpec,
    Edge,
    Graph,
    _check_addition,
    _find_clique,
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
        near = set(self.graph.adj[self.item_ids[i][0]])
        return [j for j, ids in enumerate(self.set_ids) if ids[0] in near]

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
            for j, ids in sets.items():
                if len(ids) < 2:
                    raise InputError(f"set {j} has one vertex; k >= 4 needs at least 2")
        return cls(
            graph=graph,
            roles=tuple(roles),
            k=k,
            set_ids=tuple(tuple(sorted(sets[j])) for j in range(len(sets))),
            item_ids=tuple(tuple(sorted(items[i])) for i in range(len(items))),
            common=common,
        )


class _Gadget:
    """Roles and edges of a reduction graph being built.  A new vertex has a
    larger id than every vertex it joins, so edges are appended already ordered."""

    def __init__(self) -> None:
        self.roles: list[Role] = []
        self.edges: list[Edge] = []

    def add(self, count: int, kind: str, index: int | None = None) -> range:
        """Record count new vertices of one role; return their ids."""
        start = len(self.roles)
        self.roles += [Role(kind, index)] * count
        return range(start, start + count)

    def build(self, k: int) -> LabeledReductionGraph:
        return LabeledReductionGraph.from_roles(Graph(len(self.roles), self.edges), self.roles, k)


def _memberships(inst: SetCoverInstance) -> list[tuple[int, int]]:
    """The (item, set) pairs with the item in the set, item by item."""
    return [(i, j) for i in range(inst.universe_size) for j, s in enumerate(inst.sets) if i in s]


def build_setcover_k3(inst: SetCoverInstance) -> LabeledReductionGraph:
    """Encode SET-COVER as triangle completion.

    Minimum completions correspond to minimum covers: the only unsaturated
    edges connect the item blobs to the common vertex, and the cheapest way to
    fix a blob is the anchor edge of a covering set.
    """
    g = _Gadget()
    for j in range(len(inst.sets)):  # set j is vertex j
        g.add(1, "set", j)
    nx = inst.universe_size
    item_ids = [g.add(2 * nx, "item", i) for i in range(nx)]
    for i, j in _memberships(inst):
        for v in item_ids[i]:
            (w,) = g.add(1, "aux")
            g.edges += [(j, v), (j, w), (v, w)]
    (common,) = g.add(1, "common")
    g.edges += [(v, common) for ids in item_ids for v in ids]
    return g.build(3)


def build_setcover_k(inst: SetCoverInstance, k: int) -> LabeledReductionGraph:
    """Encode SET-COVER as (k,1) completion for k >= 4.

    Each set becomes a near-clique on k-2 vertices missing only its anchor
    edge; each item becomes an edge joined to the near-cliques of the sets
    containing it.  Every other edge is wrapped in a throwaway k-clique, so
    the item edges end up as the only unsaturated ones.
    """
    if k < 4:
        raise InputError(f"this construction needs k >= 4, got {k}")
    g = _Gadget()
    item_ids = [g.add(2, "item-endpoint", i) for i in range(inst.universe_size)]
    set_ids = [g.add(k - 2, "set-subgraph", j) for j in range(len(inst.sets))]
    g.edges += [(x, y) for x, y in item_ids]

    def wrap(e: Edge) -> None:
        fresh = g.add(k - 2, "aux")
        g.edges.append(e)
        g.edges += [(u, f) for f in fresh for u in e]
        g.edges += combinations(fresh, 2)

    for ids in set_ids:
        for e in list(combinations(ids, 2))[1:]:  # all but the anchor (ids[0], ids[1])
            wrap(e)
    for i, j in _memberships(inst):
        for x in item_ids[i]:
            for v in set_ids[j]:
                wrap((x, v))
    (common,) = g.add(1, "common")
    for ids in set_ids:
        wrap((ids[0], common))
    return g.build(k)


def setcover_gadget_order(inst: SetCoverInstance, k: int) -> int:
    """The vertex count of build_setcover_k3 (k = 3) or build_setcover_k, without building it."""
    nf, nx, members = len(inst.sets), inst.universe_size, sum(map(len, inst.sets))
    if k == 3:  # sets, 2nx vertices per item, one aux per (item vertex, set) and common
        return nf + 2 * nx * nx + 2 * nx * members + 1
    w = max(k - 2, 0)  # each set's near-clique, and each wrapped edge's fresh vertices
    wrapped = nf * (w * (w - 1) // 2 - 1) + 2 * w * members + nf
    return 2 * nx + nf * w + w * wrapped + 1


def setcover_gadget_size(inst: SetCoverInstance, k: int) -> int:
    """The edge count of build_setcover_k3 (k = 3) or build_setcover_k, without building it."""
    nf, nx, members = len(inst.sets), inst.universe_size, sum(map(len, inst.sets))
    if k == 3:  # a triangle per (item vertex, set) membership, and each item vertex to common
        return 6 * nx * members + 2 * nx * nx
    w = max(k - 2, 0)  # each wrapped edge brings w fresh vertices and 2w + C(w, 2) edges
    wrapped = nf * (w * (w - 1) // 2) + 2 * w * members  # as in setcover_gadget_order
    return nx + wrapped * (1 + 2 * w + w * (w - 1) // 2)


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

    def __init__(self, rg: LabeledReductionGraph, c: CompletionSet):
        if not validate_completion(rg.graph, c, CoverSpec(rg.k, 1)).ok:
            raise InputError("input is not a valid completion of the reduction graph")
        self.rg = rg
        self.nbr = dict(enumerate(map(set, rg.graph.adj)))
        self.out: list[Edge] = []

    def buy(self, j: int) -> None:
        e = self.rg.anchor_edge(j)
        _check_addition(e, self.rg.graph.n, self.rg.graph.has_edge(*e))
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
        return _find_clique(nbr, nbr[u] & nbr[v], self.rg.k - 2) is not None

    def buy_cover_of(self, i: int) -> None:
        """Buy the lowest-numbered set holding item i."""
        sets = self.rg.covering_sets(i)
        if not sets:
            raise InputError(f"item {i} lies in no set of the reduction graph")
        self.buy(sets[0])


def goodify_3(rg: LabeledReductionGraph, c: CompletionSet) -> CompletionSet:
    """Rewrite a valid triangle completion into anchor edges only, no larger."""
    if rg.k != 3:
        raise InputError("this rewrite applies to the k=3 construction")
    bought = _AnchorPurchase(rg, c)
    for i, ids in enumerate(rg.item_ids):
        blob = set(ids)
        if any(u in blob and v in blob for (u, v) in c):
            bought.buy_cover_of(i)
    bought.buy_anchors_in(c)
    for i, ids in enumerate(rg.item_ids):
        if not bought.saturated(norm_edge(ids[0], rg.common)):
            bought.buy_cover_of(i)
    return CompletionSet(bought.out)


def goodify_k(rg: LabeledReductionGraph, c: CompletionSet, k: int) -> CompletionSet:
    """Rewrite a valid (k,1) completion (k >= 4) into anchor edges only."""
    if k < 4:
        raise InputError("this rewrite applies to the k >= 4 construction")
    if k != rg.k:
        raise InputError(f"k={k} does not match the construction's k={rg.k}")
    bought = _AnchorPurchase(rg, c)
    bought.buy_anchors_in(c)
    vertex_set = {v: j for j, ids in enumerate(rg.set_ids) for v in ids}
    for u, v in c:
        ju, jv = vertex_set.get(u), vertex_set.get(v)
        if ju is not None and jv is not None and ju != jv:
            bought.buy(min(ju, jv))
    added = neighbour_sets(c)  # the input's pairs by endpoint
    while True:
        before = len(bought.out)
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
        orig_i, orig_j = set(rg.graph.adj[xi]), set(rg.graph.adj[xj])
        near_i, near_j = orig_i | added.get(xi, set()), orig_j | added.get(xj, set())
        for cand in sorted(near_i & near_j):
            if (cand in orig_i) + (cand in orig_j) <= 1:
                v = cand
                break
        if v is None:
            raise AssertionError("every clique vertex is doubly attached in the base graph")
        bought.buy_cover_of(i)
        for other in unsat[1:]:
            if v in rg.item_ids[other]:
                bought.buy_cover_of(other)
                break
        if len(bought.out) == before:  # a gadget's pass always buys; this one would repeat
            raise InputError(f"item {i} stays unsaturated after its covering set is bought")
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
    """Refuse a graph other than build_spider(inst), checked on the graph given:
    with n and m right, it is that spider when every vertex is joined to the
    one before it on its leg, the center for a leg's first vertex."""
    n = 1 + sum(inst.values)
    firsts = set(accumulate(inst.values, initial=1))
    adj = spider.adj
    if spider.n != n or spider.m != n - 1 or not all(
        (0 if v in firsts else v - 1) in adj[v] for v in range(1, n)
    ):
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
    # leg i holds the vertices starts[i] .. starts[i + 1] - 1
    starts = list(accumulate(inst.values, initial=1))
    adj = spider.adj  # a row other than the center's holds at most two vertices
    additions: list[Edge] = []
    for triple in partition:
        total = sum(inst.values[i] for i in triple)
        if total != inst.target:
            raise InputError(
                f"legs {tuple(triple)} sum to {total}, expected {inst.target}"
            )
        verts = [0]
        for leg in triple:
            verts.extend(range(starts[leg], starts[leg + 1]))
        for a, b in combinations(sorted(verts), 2):
            if a not in adj[b]:
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
    # a spider edge belongs to the leg of its larger endpoint
    leg_of = [-1]  # the center
    for leg, length in enumerate(inst.values):
        leg_of += [leg] * length
    norm_groups: list[list[Edge]] = []
    seen: set[Edge] = set()
    for group in groups:
        g_edges = [norm_edge(u, v) for u, v in group]
        for e in g_edges:
            if not spider.has_edge(*e):
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
        # the groups' edges are distinct spider edges, so a leg is whole in a
        # group that holds as many of its edges as the leg has
        held = Counter(leg_of[v] for _, v in g_edges)
        legs = sorted(held)
        for leg in legs:
            if held[leg] != inst.values[leg]:
                raise InputError(f"leg {leg} is split between groups")
        if len(legs) != 3:
            raise InputError(f"group contains {len(legs)} whole legs, expected 3")
        triples.append((legs[0], legs[1], legs[2]))
    return triples

