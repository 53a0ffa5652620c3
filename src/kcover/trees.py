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
from typing import Iterable, Iterator, Sequence

from .errors import InputError
from .graph import CompletionSet, Edge, Graph, _in_row, components, norm_edge


@dataclass(frozen=True)
class RootedTree:
    """A tree rooted at vertex 0 with parent/depth arrays; the root is its own parent."""

    base: Graph
    parent: tuple[int, ...]
    depth: tuple[int, ...]

    @classmethod
    def from_graph(cls, g: Graph) -> "RootedTree":
        n = g.n
        if n < 1:
            raise InputError("tree must have at least one vertex")
        if g.m != n - 1:
            raise InputError(f"not a tree: n={n} needs {n - 1} edges, got {g.m}")
        parent = [-1] * n
        depth = [-1] * n
        parent[0] = depth[0] = 0
        order = [0]
        for v in order:
            for w in g.adj[v]:
                if depth[w] == -1:
                    depth[w] = depth[v] + 1
                    parent[w] = v
                    order.append(w)
        if len(order) != n:
            raise InputError("not a tree: graph is disconnected")
        return cls(base=g, parent=tuple(parent), depth=tuple(depth))


def _next_child(
    rows: Sequence[Sequence[int]],
    parent: Sequence[int],
    count: Sequence[int],
    passed: list[int],
    v: int,
    skip: int = -1,
) -> int:
    """The smallest live child of v other than skip, in a residual tree whose
    `count` is each vertex's live-child count or -1 once it is gone (see
    _leave).

    rows[v] is v's ascending neighbour row, whose entries before passed[v]
    have been passed over.  v's parent, gone children and skip are passed
    over on the way, and so is the child found, so the caller must make it
    and skip leave: then no entry of a row is passed twice.
    """
    row, i, up = rows[v], passed[v], parent[v]
    while True:
        c = row[i]
        i += 1
        if c != up and c != skip and count[c] >= 0:
            passed[v] = i
            return c


def _leave(parent: Sequence[int], count: list[int], gone: Sequence[int]) -> None:
    """Take one step's vertices out of a residual tree, whose `count` is
    each vertex's live-child count or -1 once it is gone.  The root stays and
    no vertex leaves with a live child, so the live vertices stay one tree."""
    for d in gone:
        count[parent[d]] -= 1
    for d in gone:
        if count[d] or parent[d] == d:
            raise AssertionError("the root or a parent of a live vertex left")
        count[d] = -1


def _clique_pairs(vertices: Sequence[int], parent: Sequence[int]) -> Iterator[Edge]:
    """The pairs of the ascending `vertices` that are not tree edges, one end
    being the other's parent."""
    for e in combinations(vertices, 2):
        a, b = e
        if parent[b] != a and parent[a] != b:
            yield e


def _add_clique(
    vertices: Sequence[int], parent: Sequence[int], occupied: set[Edge], additions: list[Edge]
) -> None:
    """Add each of _clique_pairs(vertices, parent) that is not in `occupied`,
    the pairs added."""
    for e in _clique_pairs(vertices, parent):
        if e not in occupied:
            occupied.add(e)
            additions.append(e)


def _p3_paths(
    rows: Sequence[Sequence[int]], parent: Sequence[int], trees: Iterable[Sequence[int]]
) -> Iterator[tuple[int, ...]]:
    """Partition the edges of each tree of a rooted forest into paths on three
    vertices, a tree at a time.

    rows[v] is v's ascending neighbour row in the forest and parent[v] its
    parent, a root being its own; v's children are its row minus its parent.
    Each of trees lists one tree's vertices deepest first, ties to the lowest
    id.  Repeatedly detaches a two-edge path around the deepest remaining
    leaf, yielded as (a, b, c) for the edges a-b and b-c; when a tree's edge
    count is odd its last edge is left over, yielded as (parent, child).
    """
    count = [0] * len(rows)  # live children, -1 once gone
    passed = [0] * len(rows)  # entries of rows[v] passed over (see _next_child)
    for order in trees:
        for v in order:
            count[v] = len(rows[v]) - (parent[v] != v)
        live = len(order)
        for v in order:
            if live < 2:
                break
            if count[v] < 0:
                continue
            u = parent[v]
            # the deepest live vertex is a leaf of the residual tree
            if live == 2:
                yield u, v
                break
            # v leaves with a sibling if it has one, else with its parent
            if count[u] >= 2:
                mate = far = _next_child(rows, parent, count, passed, u, skip=v)
            else:
                mate, far = u, parent[u]
            _leave(parent, count, (v, mate))
            yield v, u, far
            live -= 2


def _peel_order(t: RootedTree) -> list[int]:
    """The tree's vertices deepest first, ties to the lowest id (the sort is stable)."""
    return sorted(range(t.base.n), key=t.depth.__getitem__, reverse=True)


def p3_partition(t: RootedTree) -> list[tuple[Edge, ...]]:
    """Partition the tree's edges into paths on three vertices (see _p3_paths).

    When n-1 is odd a final single-edge group is left over.  Returns
    ceil((n-1)/2) groups.
    """
    g = t.base
    if g.n < 3:
        raise InputError("edge partition needs at least 3 vertices")
    return [
        tuple(sorted((norm_edge(p[0], p[1]), norm_edge(p[1], p[2]))))
        if len(p) == 3 else (norm_edge(*p),)
        for p in _p3_paths(g.adj, t.parent, [_peel_order(t)])
    ]


def optimal_tree_31(t: RootedTree) -> CompletionSet:
    """Minimum completion putting every edge of a tree inside a triangle.

    One edge per partition group: the missing chord for a two-edge group, and
    for the leftover single edge a chord to a neighbor of one endpoint.
    Always returns exactly ceil((n-1)/2) additions.
    """
    g = t.base
    if g.n < 3:
        raise InputError("triangle completion needs at least 3 vertices")
    return CompletionSet(_path_chords(g.adj, t.parent, [_peel_order(t)], g.adj))


def _path_chords(
    rows: Sequence[Sequence[int]],
    parent: Sequence[int],
    trees: Iterable[Sequence[int]],
    lone_rows: Sequence[Sequence[int]],
) -> list[Edge]:
    """One chord per path of _p3_paths(rows, parent, trees): the pair that
    closes a two-edge path, and for a left-over edge a bridge_chord not added
    before, from lone_rows when the edge is a whole tree (both ends have one
    neighbour) and from rows otherwise.
    """
    additions: list[Edge] = []
    added: set[Edge] = set()
    for p in _p3_paths(rows, parent, trees):
        if len(p) == 3:
            e = norm_edge(p[0], p[2])
        else:
            u, v = norm_edge(*p)
            lone = len(rows[u]) == len(rows[v]) == 1
            e = bridge_chord(lone_rows if lone else rows, u, v, added)
        additions.append(e)
        added.add(e)
    return additions


def bridge_chord(rows: Sequence[Sequence[int]], u: int, v: int, added: set[Edge]) -> Edge:
    """A non-edge that puts the bridge (u, v) in a triangle and is not in added.

    rows are the ascending neighbour rows of a graph that holds the bridge.
    The chord joins one endpoint to another neighbour of the other, trying
    u's neighbours first.  A bridge lies in no triangle, so no such pair may
    already be an edge.
    """
    for base, far in ((u, v), (v, u)):
        near = rows[far]
        for x in rows[base]:
            if x == far:
                continue
            if _in_row(near, x):
                raise AssertionError("bridge endpoint neighbor already closes a triangle")
            e = norm_edge(far, x)
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
    extraction step can find the smallest-id component with at least
    `budget` vertices.  Every component has at least two, so a budget of 2
    finds the smallest-id component overall.

    The pool reads the forest's sorted neighbour rows and never changes them.
    In a forest an edge, once deleted, leaves its endpoints in different
    components for good, so an edge is live exactly while both endpoints
    belong to the same component record.

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

    def __init__(self, adj: Sequence[Sequence[int]], k: int):
        n = len(adj)
        self.nbrs = adj
        # entries of nbrs[v] before scan[v] are gone edges
        self.scan = [0] * n
        self.degree = [len(row) for row in adj]  # live edges at each vertex
        self.owner = [-1] * n  # record id of each vertex's component, or -1
        self.k = k
        # record id -> [sorted vertex list, index of the min id in it, size]
        self.comps: dict[int, list] = {}
        self.next_id = 0
        # heap entries (min id, size, record id); a record only ever shrinks,
        # so an entry is live while its size matches the record's.  Size
        # buckets: exact sizes 2..k-1 plus one bucket for >= k
        self.by_size: list[list[tuple[int, int, int]]] = [[] for _ in range(k + 1)]
        starts = [v for v in range(n) if adj[v]]
        self.explored = len(starts)
        for comp in components(adj, starts):
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
        heapq.heappush(self.by_size[min(size, self.k)], (verts[lo], size, cid))

    def _peek(self, heap: list[tuple[int, int, int]]) -> tuple[int, int] | None:
        while heap:
            min_id, size, cid = heap[0]
            rec = self.comps.get(cid)
            if rec is not None and rec[2] == size:
                return min_id, cid
            heapq.heappop(heap)
        return None

    def smallest_id_comp_at_least(self, budget: int) -> int | None:
        best: tuple[int, int] | None = None
        for bucket in range(budget, self.k + 1):
            got = self._peek(self.by_size[bucket])
            if got is not None and (best is None or got < best):
                best = got
        return best[1] if best else None

    def take_whole(self, cid: int) -> tuple[list[int], list[Edge]]:
        verts, lo, _ = self.comps.pop(cid)
        nbrs, owner = self.nbrs, self.owner
        # the list may still hold vertices carved away since it was built;
        # scanning it once costs no more than building it did
        comp = [v for v in verts[lo:] if owner[v] == cid]
        edges = [(v, w) for v in comp for w in nbrs[v] if v < w and owner[w] == cid]
        for v in comp:
            owner[v] = -1
        return comp, edges

    def carve(self, cid: int, budget: int) -> tuple[list[int], list[Edge]]:
        """Extract a budget-vertex subtree (breadth-first from the min id)."""
        nbrs, scan, degree, owner = self.nbrs, self.scan, self.degree, self.owner
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
            row = nbrs[v]
            i = scan[v]
            while i < len(row) and len(chosen) < budget:
                w = row[i]
                i += 1
                if w != par and owner[w] == cid:
                    chosen.append(w)
                    via.append(v)
                    edges.append((v, w) if v < w else (w, v))
            # every entry passed is now a removed or soon-removed edge
            scan[v] = i
        for u, v in edges:
            degree[u] -= 1
            degree[v] -= 1
        roots = []
        for v in chosen:
            if degree[v]:
                roots.append(v)
            else:
                owner[v] = -1
        if not roots:
            del self.comps[cid]
        else:
            size -= len(chosen) - len(roots)
            for piece in self._split(cid, roots, set(chosen)):
                size -= len(piece)
                piece.sort()
                self._register(piece)
            while owner[verts[lo]] != cid:
                lo += 1
            rec[1] = lo
            rec[2] = size
            self._push(cid)
        return sorted(chosen), sorted(edges)

    def _split(self, cid: int, roots: list[int], chosen: set[int]) -> list[list[int]]:
        """Explore the residual pieces at `roots` in lockstep until at most one
        is unfinished; return the vertex lists of all pieces but one.  Every
        piece is still owned by `cid`, so the edges just carved, which join
        chosen vertices, are skipped by name."""
        if len(roots) == 1:
            return []
        nbrs, owner = self.nbrs, self.owner
        pieces = [[r] for r in roots]
        stacks = [[(r, -1, iter(nbrs[r]))] for r in roots]
        active = list(range(len(roots)))
        finished: list[int] = []
        while len(active) > 1:
            unfinished = []
            for p in active:
                stack = stacks[p]
                while stack:
                    v, par, it = stack[-1]
                    for w in it:
                        if w != par and owner[w] == cid and w not in chosen:
                            break
                    else:
                        stack.pop()
                        continue
                    pieces[p].append(w)
                    stack.append((w, v, iter(nbrs[w])))
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
        cid = pool.smallest_id_comp_at_least(2)
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
    adj: Sequence[Sequence[int]],
    k: int,
    parent: Sequence[int],
    occupied: set[Edge],
    additions: list[Edge],
    names: Sequence[int],
) -> tuple[list[int], int]:
    """Cover by k-cliques the edges of a forest inside the tree whose parent
    array is `parent`, extending `occupied` and `additions` (see _add_clique).

    adj holds the forest's sorted neighbour rows, its vertex i standing for
    the tree's vertex names[i]; the names must ascend.  A clique short of k
    vertices is padded with the lowest ids of the tree.  Returns the number
    of forest edges covered at each iteration and the number of vertices the
    forest pool explored.
    """
    pool = _ForestPool(adj, k)
    covered: list[int] = []
    while pool.smallest_id_comp_at_least(2) is not None:
        vertices, edges = _extract_step(pool, k)
        vertices = [names[v] for v in vertices]
        if len(vertices) < k:
            vertices = sorted(vertices + _pad_vertices(vertices, len(parent), k - len(vertices)))
        _add_clique(vertices, parent, occupied, additions)
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
    _clique_cover_loop(g.adj, k, t.parent, set(), additions, range(g.n))
    return CompletionSet(additions)


def approx_tree_4(t: RootedTree) -> CompletionSet:
    """Cover every tree edge by a 4-clique using at most 2(n-1) additions.

    Phase one repeatedly completes a well-chosen 4-vertex subtree around the
    deepest leaf with the most siblings: three of its vertices leave the
    residual tree and one stays, and at most one detached edge is banked per
    step.  Every step checks that no vertex that left keeps a live child, so
    the live vertices still form one tree.  Each vertex's children are found
    by a cursor along its sorted neighbour row (see _next_child).  Two steps'
    cliques share at most the earlier step's survivor, as its other three
    vertices leave, so phase one adds each clique's pairs without looking for
    them among the earlier additions.  Phase two covers the banked forest
    with the generic k=4 loop, on the banked vertices renamed to 0, 1, ...
    in order, and drops its pairs that phase one added.
    """
    g = t.base
    n = g.n
    if n < 4:
        raise InputError(f"tree has {n} vertices, needs at least 4")
    rows, parent, depth = g.adj, t.parent, t.depth
    # live children: each row minus the parent, which the root has not
    count = [len(row) - 1 for row in rows]
    count[0] += 1
    passed = [0] * n
    # per-depth heaps of (-child count, vertex); vertices never change depth,
    # so the deepest non-empty one only moves toward the root
    top = max(depth)
    buckets: list[list[tuple[int, int]]] = [[] for _ in range(top + 1)]
    for v in range(n):
        if count[v]:
            heapq.heappush(buckets[depth[v]], (-count[v], v))
    additions: list[Edge] = []
    banked: list[Edge] = []
    live = n
    while live >= 4:
        # deepest first, then most children, then lowest id; an entry is
        # stale once its vertex's child count changed or it left
        while True:
            while not buckets[top]:
                top -= 1
                assert top >= 0, "a residual tree on >= 4 vertices has an internal node"
            neg_count, u = heapq.heappop(buckets[top])
            if count[u] == -neg_count:
                break
        # the cases only pick the three vertices that leave and the one that stays
        dead = [_next_child(rows, parent, count, passed, u)]
        if count[u] >= 3:
            dead += [_next_child(rows, parent, count, passed, u) for _ in range(2)]
            survivor = u
        elif count[u] == 2:
            dead += [_next_child(rows, parent, count, passed, u), u]
            survivor = parent[u]
        else:
            w = parent[u]
            if count[w] < 2:
                dead += [u, w]
                survivor = parent[w]
            else:
                u1 = _next_child(rows, parent, count, passed, w, skip=u)
                dead += [u, u1]
                survivor = w
                if count[u1]:
                    # u1's one child leaves too; its edge is banked for phase two
                    c = _next_child(rows, parent, count, passed, u1)
                    banked.append(norm_edge(u1, c))
                    dead.append(c)
        # the 4-clique: the survivor and the three that leave, not a banked child
        additions += _clique_pairs(sorted([survivor, *dead[:3]]), parent)
        _leave(parent, count, dead)
        live -= len(dead)
        if count[survivor] > 0:
            heapq.heappush(buckets[depth[survivor]], (-count[survivor], survivor))
    # what is left joins the banked forest; by the rule in _leave the root is
    # live and so is each live vertex's parent
    banked += [norm_edge(parent[v], v) for v in range(1, n) if count[v] >= 0]
    del passed, buckets, count
    if banked:
        names, forest = _banked_forest(banked)
        occupied: set[Edge] = set()
        extra: list[Edge] = []
        _clique_cover_loop(forest, 4, parent, occupied, extra, names)
        taken = occupied.intersection(additions)
        additions += [e for e in extra if e not in taken]
    return CompletionSet(additions)


def _banked_forest(banked: list[Edge]) -> tuple[list[int], list[list[int]]]:
    """The banked forest's vertices, ascending, and its sorted neighbour rows
    with each vertex renamed to its position among them.  The forest must
    consist of single edges plus at most one 2-edge path."""
    names = sorted({v for e in banked for v in e})
    position = {v: i for i, v in enumerate(names)}
    rows: list[list[int]] = [[] for _ in names]
    for u, v in banked:
        rows[position[u]].append(position[v])
        rows[position[v]].append(position[u])
    for row in rows:
        row.sort()
    sizes = sorted(len(c) for c in components(rows, range(len(rows))))
    if sizes[-1] > 3:
        raise AssertionError("banked component larger than a 2-edge path")
    if sizes.count(3) > 1:
        raise AssertionError("more than one 2-edge path banked")
    return names, rows
