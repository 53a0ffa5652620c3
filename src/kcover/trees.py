"""Tree completion solvers.

optimal_tree_31 adds exactly ceil((n-1)/2) edges so every tree edge lands in a
triangle, which is optimal.  approx_tree_k (k >= 5) and approx_tree_4 cover a
tree's edges by k-cliques within constant factors of the lower bound
(n-1)(k-2)/2.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Sequence

from .errors import InputError
from .graph import CompletionSet, Edge, Graph, components, neighbour_sets, norm_edge


@dataclass(frozen=True)
class RootedTree:
    """A tree with parent/depth arrays; the root is its own parent."""

    base: Graph
    root: int
    parent: tuple[int, ...]
    depth: tuple[int, ...]

    @classmethod
    def from_graph(cls, g: Graph, root: int = 0) -> "RootedTree":
        n = g.n
        if n < 1:
            raise InputError("tree must have at least one vertex")
        if not 0 <= root < n:
            raise InputError(f"root {root} out of range for n={n}")
        if g.m != n - 1:
            raise InputError(f"not a tree: n={n} needs {n - 1} edges, got {g.m}")
        parent = [-1] * n
        depth = [-1] * n
        parent[root] = root
        depth[root] = 0
        order = [root]
        for v in order:
            for w in g.adj[v]:
                if depth[w] == -1:
                    depth[w] = depth[v] + 1
                    parent[w] = v
                    order.append(w)
        if len(order) != n:
            raise InputError("not a tree: graph is disconnected")
        return cls(base=g, root=root, parent=tuple(parent), depth=tuple(depth))

    def children(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.base.n)]
        for v in range(self.base.n):
            if v != self.root:
                out[self.parent[v]].append(v)
        return out


class DepthIndex:
    """Per-depth buckets of (key, node) heap entries with lazy invalidation.

    Nodes never change depth, so the deepest non-empty bucket only moves
    toward the root.  Stale entries are filtered at pop time by the caller's
    validity check.
    """

    def __init__(self, depth_of: Sequence[int], max_depth: int):
        self.depth_of = depth_of
        self.buckets: list[list[tuple[int, int]]] = [[] for _ in range(max_depth + 1)]
        self.top = max_depth

    def push(self, node: int, key: int) -> None:
        heapq.heappush(self.buckets[self.depth_of[node]], (-key, node))

    def pop_deepest(self, valid: Callable[[int, int], bool]) -> tuple[int, int] | None:
        """Deepest bucket first, then highest key, then lowest node id."""
        while self.top >= 0:
            bucket = self.buckets[self.top]
            while bucket:
                neg_key, node = heapq.heappop(bucket)
                if valid(node, -neg_key):
                    return node, -neg_key
            self.top -= 1
        return None


def _pop_alive_child(heap: list[int], alive: list[bool], skip: int = -1) -> int | None:
    """Smallest alive child from a consume-only heap; `skip` is discarded too."""
    while heap:
        c = heapq.heappop(heap)
        if alive[c] and c != skip:
            return c
    return None


def _residual_index(t: RootedTree) -> tuple[list[int], list[list[int]], DepthIndex]:
    """Each vertex's child count, a consume-only heap of its children, and an
    empty depth index over t.

    children() lists every vertex's children in ascending order, which is
    already a min-heap.
    """
    child_heap = t.children()
    return [len(h) for h in child_heap], child_heap, DepthIndex(t.depth, max(t.depth))


def p3_partition(t: RootedTree) -> list[tuple[Edge, ...]]:
    """Partition the tree's edges into paths on three vertices.

    Repeatedly detaches a two-edge group around the deepest remaining leaf;
    when n-1 is odd a final single-edge group is left over.  Returns
    ceil((n-1)/2) groups.
    """
    g = t.base
    n = g.n
    if n < 3:
        raise InputError("edge partition needs at least 3 vertices")
    parent = t.parent
    alive = [True] * n
    child_count, child_heap, idx = _residual_index(t)
    for v in range(n):
        idx.push(v, 0)  # no priority needed; ties resolve to the lowest id
    live = n
    groups: list[tuple[Edge, ...]] = []
    while live >= 2:
        got = idx.pop_deepest(lambda node, key: alive[node])
        assert got is not None
        v = got[0]
        u = parent[v]
        # the deepest alive vertex is a leaf of the residual tree
        if live == 2:
            groups.append((norm_edge(u, v),))
            alive[u] = alive[v] = False
            live -= 2
            break
        if child_count[u] >= 2:
            v1 = _pop_alive_child(child_heap[u], alive, skip=v)
            assert v1 is not None
            groups.append(tuple(sorted((norm_edge(u, v), norm_edge(u, v1)))))
            alive[v] = alive[v1] = False
            child_count[u] -= 2
        else:
            w = parent[u]
            assert w != u, "a lone root-leaf pair is handled by the live==2 case"
            groups.append(tuple(sorted((norm_edge(u, v), norm_edge(w, u)))))
            alive[v] = alive[u] = False
            child_count[w] -= 1
        live -= 2
    return groups


def optimal_tree_31(t: RootedTree) -> CompletionSet:
    """Minimum completion putting every edge of a tree inside a triangle.

    One edge per partition group: the missing chord for a two-edge group, and
    for the leftover single edge a chord to a neighbor of one endpoint.
    Always returns exactly ceil((n-1)/2) additions.
    """
    g = t.base
    if g.n < 3:
        raise InputError("triangle completion needs at least 3 vertices")
    additions: list[Edge] = []
    leftover: Edge | None = None
    for grp in p3_partition(t):
        if len(grp) == 1:
            leftover = grp[0]
            continue
        # the chord joins the two endpoints the edges do not share
        additions.append(tuple(sorted(set(grp[0]) ^ set(grp[1]))))
    if leftover is not None:
        additions.append(bridge_chord(g, *leftover, set(additions)))
    return CompletionSet(additions)


def bridge_chord(g: Graph, u: int, v: int, added: set[Edge]) -> Edge:
    """A non-edge that puts the bridge (u, v) in a triangle and is not in added.

    It joins one endpoint to another neighbour of the other, trying u's
    neighbours first.  A bridge lies in no triangle, so no such pair may
    already be an edge of g.
    """
    for base, far in ((u, v), (v, u)):
        for x in g.adj[base]:
            if x == far:
                continue
            e = norm_edge(far, x)
            if e in g.edges:
                raise AssertionError("bridge endpoint neighbor already closes a triangle")
            if e not in added:
                return e
    raise AssertionError("no chord available for a bridge")


def spider_graph(legs: Sequence[int]) -> Graph:
    """Spider with center 0 and one path per entry of `legs`, laid out in
    order so consecutive id ranges identify the legs."""
    if not legs:
        raise InputError("spider needs at least one leg")
    edges: list[Edge] = []
    nxt = 1
    for length in legs:
        if length < 1:
            raise InputError(f"leg length must be positive, got {length}")
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Graph(nxt, edges)


def worst_case_spider(n: int) -> Graph:
    """Spider with two-edge legs (plus a one-edge leg when n-1 is odd)."""
    if n < 4:
        raise InputError("spider needs at least 4 vertices")
    legs = [2] * ((n - 1) // 2)
    if (n - 1) % 2:
        legs.append(1)
    return spider_graph(legs)


class _ForestPool:
    """Residual forest with components indexed for deterministic extraction.

    Components are tracked by min vertex id and bucketed by size so each
    extraction step can find either the smallest-id component overall or the
    smallest-id component with at least `budget` vertices.

    A carve deletes the edges inside the chosen subtree; every chosen vertex
    that keeps an edge roots one residual piece.  The pieces are explored in
    lockstep, one new vertex per piece per turn, until a single piece is left
    unfinished (Even and Shiloach, "An on-line edge-deletion problem", JACM
    1981).  Each finished piece gets a new record.  The unfinished piece keeps
    the old one: its size follows by subtraction, and its min id from a
    pointer that only moves forward through the old sorted vertex list.  A
    finished piece is no larger than the unfinished one, so it holds at most
    half of the old component.  Each vertex is therefore explored O(log n)
    times and the whole extraction costs O(n log n).  `explored` counts the
    explored vertices, the initial component search included.
    """

    def __init__(self, n: int, edges: Iterable[Edge], k: int):
        self.adj = neighbour_sets(edges)
        # sorted neighbour lists; entries of nbrs[v] before scan[v] are gone edges
        self.nbrs = {v: sorted(ws) for v, ws in self.adj.items()}
        self.scan = [0] * n
        self.owner = [-1] * n  # record id of each vertex's component, or -1
        self.k = k
        # record id -> [sorted vertex list, index of the min id in it, size]
        self.comps: dict[int, list] = {}
        self.next_id = 0
        # heap entries (min id, size, record id); a record only ever shrinks,
        # so an entry is live while its size matches the record's.  Size
        # buckets: exact sizes 2..k-1 plus one bucket for >= k
        self.by_size: list[list[tuple[int, int, int]]] = [[] for _ in range(k + 1)]
        self.any_heap: list[tuple[int, int, int]] = []
        self.explored = len(self.adj)
        for comp in components(self.adj, self.adj):
            self._register(comp)

    def _register(self, comp: list[int]) -> None:
        cid = self.next_id
        self.next_id += 1
        self.comps[cid] = [comp, 0, len(comp)]
        for v in comp:
            self.owner[v] = cid
        self._push(cid)

    def _push(self, cid: int) -> None:
        verts, lo, size = self.comps[cid]
        entry = (verts[lo], size, cid)
        heapq.heappush(self.by_size[min(size, self.k)], entry)
        heapq.heappush(self.any_heap, entry)

    def _peek(self, heap: list[tuple[int, int, int]]) -> tuple[int, int] | None:
        while heap:
            min_id, size, cid = heap[0]
            rec = self.comps.get(cid)
            if rec is not None and rec[2] == size:
                return min_id, cid
            heapq.heappop(heap)
        return None

    def smallest_id_comp(self) -> int | None:
        got = self._peek(self.any_heap)
        return got[1] if got else None

    def smallest_id_comp_at_least(self, budget: int) -> int | None:
        best: tuple[int, int] | None = None
        for bucket in range(budget, self.k + 1):
            got = self._peek(self.by_size[bucket])
            if got is not None and (best is None or got < best):
                best = got
        return best[1] if best else None

    def take_whole(self, cid: int) -> tuple[list[int], list[Edge]]:
        verts, lo, _ = self.comps.pop(cid)
        owner = self.owner
        # the list may still hold vertices carved away since it was built;
        # scanning it once costs no more than building it did
        comp = [v for v in verts[lo:] if owner[v] == cid]
        edges = []
        for v in comp:
            for w in self.adj.pop(v):
                if v < w:
                    edges.append((v, w))
            owner[v] = -1
        return comp, sorted(edges)

    def carve(self, cid: int, budget: int) -> tuple[list[int], list[Edge]]:
        """Extract a budget-vertex subtree (breadth-first from the min id)."""
        adj, nbrs, scan, owner = self.adj, self.nbrs, self.scan, self.owner
        rec = self.comps[cid]
        verts, lo, size = rec
        chosen = [verts[lo]]
        via = [-1]  # breadth-first parent of each chosen vertex
        edges = []
        qi = 0
        while len(chosen) < budget:
            v = chosen[qi]
            par = via[qi]
            qi += 1
            live = adj[v]
            row = nbrs[v]
            i = scan[v]
            while i < len(row) and len(chosen) < budget:
                w = row[i]
                i += 1
                if w != par and w in live:
                    chosen.append(w)
                    via.append(v)
                    edges.append((v, w) if v < w else (w, v))
            # every entry passed is now a removed or soon-removed edge
            scan[v] = i
        for u, v in edges:
            adj[u].discard(v)
            adj[v].discard(u)
        roots = []
        for v in chosen:
            if adj[v]:
                roots.append(v)
            else:
                del adj[v]
                owner[v] = -1
        if not roots:
            del self.comps[cid]
        else:
            size -= len(chosen) - len(roots)
            for piece in self._split(roots):
                size -= len(piece)
                piece.sort()
                self._register(piece)
            while owner[verts[lo]] != cid:
                lo += 1
            rec[1] = lo
            rec[2] = size
            self._push(cid)
        return sorted(chosen), sorted(edges)

    def _split(self, roots: list[int]) -> list[list[int]]:
        """Explore the residual pieces at `roots` in lockstep until at most one
        is unfinished; return the vertex lists of all pieces but one."""
        if len(roots) == 1:
            return []
        adj = self.adj
        pieces = [[r] for r in roots]
        stacks = [[(r, -1, iter(adj[r]))] for r in roots]
        active = list(range(len(roots)))
        finished: list[int] = []
        while len(active) > 1:
            unfinished = []
            for p in active:
                stack = stacks[p]
                while stack:
                    v, par, it = stack[-1]
                    for w in it:
                        if w != par:
                            break
                    else:
                        stack.pop()
                        continue
                    pieces[p].append(w)
                    stack.append((w, v, iter(adj[w])))
                    break
                (unfinished if stack else finished).append(p)
            active = unfinished
        self.explored += sum(map(len, pieces))
        if not active:
            finished.pop()  # all finished at once: the last keeps the old record
        return [pieces[p] for p in finished]


def _extract_step(pool: _ForestPool, k: int) -> tuple[list[int], list[Edge]]:
    """One maximal extraction: whole small components, then a carved subtree."""
    budget = k
    vertices: list[int] = []
    edges: list[Edge] = []
    while budget >= 2:
        big = pool.smallest_id_comp_at_least(budget)
        if big is not None:
            vs, es = pool.carve(big, budget)
            vertices += vs
            edges += es
            break
        cid = pool.smallest_id_comp()
        if cid is None:
            break
        vs, es = pool.take_whole(cid)
        vertices += vs
        edges += es
        budget -= len(vs)
    return sorted(vertices), sorted(edges)


def _pad_vertices(chosen: Iterable[int], n: int, want: int) -> list[int]:
    have = set(chosen)
    pads: list[int] = []
    v = 0
    while len(pads) < want:
        if v >= n:
            raise AssertionError("ran out of vertices while padding")
        if v not in have:
            pads.append(v)
        v += 1
    return pads


def _clique_cover_loop(
    n: int,
    forest_edges: Iterable[Edge],
    k: int,
    occupied: set[Edge],
    additions: list[Edge],
) -> tuple[list[int], int]:
    """Cover a forest's edges by k-cliques, extending `occupied` and `additions`.

    Returns the number of forest edges covered at each iteration and the
    number of vertices the forest pool explored.
    """
    pool = _ForestPool(n, forest_edges, k)
    covered: list[int] = []
    while pool.smallest_id_comp() is not None:
        vertices, edges = _extract_step(pool, k)
        if len(vertices) < k:
            vertices = sorted(vertices + _pad_vertices(vertices, n, k - len(vertices)))
        for a, b in combinations(vertices, 2):
            if (a, b) not in occupied:
                occupied.add((a, b))
                additions.append((a, b))
        covered.append(len(edges))
    return covered, pool.explored


def approx_tree_k(t: RootedTree, k: int) -> CompletionSet:
    """Cover every tree edge by a k-clique using at most 8/3 times the minimum
    number of additions."""
    g = t.base
    if k < 5:
        raise InputError(f"this solver needs k >= 5, got {k}")
    if g.n < k:
        raise InputError(f"tree has {g.n} vertices, needs at least k={k}")
    additions: list[Edge] = []
    _clique_cover_loop(g.n, g.edges, k, set(g.edges), additions)
    return CompletionSet(additions)


def approx_tree_4(t: RootedTree, check_invariants: bool = False) -> CompletionSet:
    """Cover every tree edge by a 4-clique using at most 2(n-1) additions.

    Phase one repeatedly completes a well-chosen 4-vertex subtree around the
    deepest leaf with the most siblings, banking at most one detached edge per
    step; phase two covers the banked forest with the generic k=4 loop.

    With check_invariants=True the residual shape is re-verified after every
    cut (at most two non-trivial components, any second one a single edge).
    """
    g = t.base
    n = g.n
    if n < 4:
        raise InputError(f"tree has {n} vertices, needs at least 4")
    parent = t.parent
    alive = [True] * n
    child_count, child_heap, idx = _residual_index(t)
    for v in range(n):
        if child_count[v]:
            idx.push(v, child_count[v])
    resid: dict[int, set[int]] | None = None
    if check_invariants:
        resid = {v: set(g.adj[v]) for v in range(n)}

    def cut(edges: list[Edge], banked_pair: Edge | None) -> None:
        if resid is None:
            return
        for u, v in edges:
            resid[u].discard(v)
            resid[v].discard(u)
        comps = [c for c in components(resid, resid) if len(c) > 1]
        if len(comps) > 2:
            raise AssertionError(f"cut left {len(comps)} non-trivial components")
        if len(comps) == 2 and banked_pair is None:
            raise AssertionError("two residual components but nothing banked")
        if banked_pair is not None:
            if not any(len(c) == 2 and set(c) == set(banked_pair) for c in comps):
                raise AssertionError("banked edge is not a residual component")
            bu, bv = banked_pair
            resid[bu].discard(bv)
            resid[bv].discard(bu)

    def valid(node: int, key: int) -> bool:
        return alive[node] and child_count[node] == key and child_count[node] > 0

    occupied = set(g.edges)
    additions: list[Edge] = []
    banked: list[Edge] = []
    live = n
    while live >= 4:
        got = idx.pop_deepest(valid)
        assert got is not None, "a residual tree on >= 4 vertices has an internal node"
        u = got[0]
        vj = _pop_alive_child(child_heap[u], alive)
        assert vj is not None
        banked_pair: Edge | None = None
        if child_count[u] >= 3:
            v1 = _pop_alive_child(child_heap[u], alive)
            v2 = _pop_alive_child(child_heap[u], alive)
            assert v1 is not None and v2 is not None
            quad = (vj, v1, v2, u)
            dead = (vj, v1, v2)
            tree_edges = [norm_edge(u, vj), norm_edge(u, v1), norm_edge(u, v2)]
            child_count[u] -= 3
            survivor = u
        elif child_count[u] == 2:
            v1 = _pop_alive_child(child_heap[u], alive)
            assert v1 is not None
            w = parent[u]
            assert w != u, "a star on >= 4 vertices has >= 3 leaves"
            quad = (vj, v1, u, w)
            dead = (vj, v1, u)
            tree_edges = [norm_edge(u, vj), norm_edge(u, v1), norm_edge(w, u)]
            child_count[w] -= 1
            survivor = w
        else:
            w = parent[u]
            assert w != u
            u1 = None
            if child_count[w] >= 2:
                u1 = _pop_alive_child(child_heap[w], alive, skip=u)
            if u1 is not None:
                quad = (vj, u, u1, w)
                tree_edges = [norm_edge(u, vj), norm_edge(w, u), norm_edge(w, u1)]
                child_count[w] -= 2
                if child_count[u1]:
                    c = _pop_alive_child(child_heap[u1], alive)
                    assert c is not None
                    banked_pair = norm_edge(u1, c)
                    banked.append(banked_pair)
                    dead = (vj, u, u1, c)
                else:
                    dead = (vj, u, u1)
                survivor = w
            else:
                x = parent[w]
                assert x != w, "a three-vertex path cannot have >= 4 vertices"
                quad = (vj, u, w, x)
                dead = (vj, u, w)
                tree_edges = [norm_edge(u, vj), norm_edge(w, u), norm_edge(x, w)]
                child_count[x] -= 1
                survivor = x
        for d in dead:
            alive[d] = False
        live -= len(dead)
        for a, b in combinations(sorted(quad), 2):
            if (a, b) not in occupied:
                occupied.add((a, b))
                additions.append((a, b))
        if child_count[survivor] > 0:
            idx.push(survivor, child_count[survivor])
        cut(tree_edges, banked_pair)
    # whatever is left around the root joins the banked forest
    stack = [t.root]
    while stack:
        v = stack.pop()
        while True:
            c = _pop_alive_child(child_heap[v], alive)
            if c is None:
                break
            banked.append(norm_edge(v, c))
            stack.append(c)
    if banked:
        _check_banked_shape(banked)
        _clique_cover_loop(n, banked, 4, occupied, additions)
    return CompletionSet(additions)


def _check_banked_shape(banked: list[Edge]) -> None:
    """The banked forest must consist of single edges plus at most one 2-edge path."""
    adj = neighbour_sets(banked)
    sizes = sorted(len(c) for c in components(adj, adj))
    if sizes and sizes[-1] > 3:
        raise AssertionError("banked component larger than a 2-edge path")
    if sizes.count(3) > 1:
        raise AssertionError("more than one 2-edge path banked")
