"""Correctness checks for benchmark outputs, written apart from kcover.

Nothing here imports kcover: the files the program wrote are parsed again,
and every property is recomputed with separate code (set-based clique search,
a DFS cover-count bridge test, exhaustive enumeration).  Each check returns
None when the output is right and a one-line description of the first
problem otherwise.
"""

from __future__ import annotations

import json
import math
from itertools import combinations
from pathlib import Path

Pair = tuple[int, int]


def _int_pairs(lines: list[str]) -> list[Pair]:
    pairs = []
    for line in lines:
        a, b = line.split()
        pairs.append((int(a), int(b)))
    return pairs


def _content_lines(text: str) -> list[str]:
    return [s for s in (raw.strip() for raw in text.splitlines()) if s and not s.startswith("#")]


def read_edge_list(path: str | Path) -> tuple[int, list[Pair]]:
    """(n, edges) from an "n m" header followed by m "u v" lines."""
    lines = _content_lines(Path(path).read_text())
    n, m = (int(x) for x in lines[0].split())
    edges = _int_pairs(lines[1:])
    if len(edges) != m:
        raise ValueError(f"{path}: header says {m} edges, file has {len(edges)}")
    return n, edges


def read_pairs(path: str | Path) -> list[Pair]:
    """The "u v" lines of a completion file, in file order, as written."""
    return _int_pairs(_content_lines(Path(path).read_text()))


def read_roles(path: str | Path) -> tuple[int, list[tuple[str, int | None]]]:
    """(k, roles) from a role map; roles[v] is (kind, index)."""
    data = json.loads(Path(path).read_text())
    raw = data["roles"]
    roles: list[tuple[str, int | None]] = [("", None)] * len(raw)
    for key, entry in raw.items():
        roles[int(key)] = (entry["kind"], entry.get("index"))
    return data["k"], roles


def adjacency(n: int, edges: list[Pair]) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def cliques_with(adj: list[set[int]], candidates: set[int], need: int, cap: int) -> int:
    """Number of `need`-vertex cliques inside `candidates`, counted up to cap."""
    if need == 0:
        return 1
    if need == 1:
        return min(len(candidates), cap)
    total = 0
    order = sorted(candidates)
    for i, w in enumerate(order):
        later = adj[w].intersection(order[i + 1:])
        if len(later) >= need - 1:
            total += cliques_with(adj, later, need - 1, cap - total)
            if total >= cap:
                return cap
    return total


def is_connected(adj: list[set[int]]) -> bool:
    if len(adj) <= 1:
        return True
    seen = [False] * len(adj)
    seen[0] = True
    stack = [0]
    reached = 1
    while stack:
        for w in adj[stack.pop()]:
            if not seen[w]:
                seen[w] = True
                reached += 1
                stack.append(w)
    return reached == len(adj)


def completion_problem(
    n: int, edges: list[Pair], additions: list[Pair], k: int, l: int = 1
) -> str | None:
    """Why edges plus additions is not a connected graph with a (k,l)-cover.

    Every addition must be an in-range non-edge listed once; afterwards the
    graph must be connected and every edge, old or new, must lie in at least
    l cliques of order k.
    """
    adj = adjacency(n, edges)
    seen: set[Pair] = set()
    for u, v in additions:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            return f"addition ({u},{v}) is not a pair of distinct vertices in 0..{n - 1}"
        pair = (min(u, v), max(u, v))
        if pair in seen:
            return f"addition {pair} is listed twice"
        if v in adj[u]:
            return f"addition {pair} is already an edge"
        seen.add(pair)
        adj[u].add(v)
        adj[v].add(u)
    if not is_connected(adj):
        return "completed graph is disconnected"
    for u in range(n):
        for v in adj[u]:
            if v > u and cliques_with(adj, adj[u] & adj[v], k - 2, l) < l:
                return f"edge ({u},{v}) lies in fewer than {l} cliques of order {k}"
    return None


def bridges(n: int, edges: list[Pair]) -> set[Pair]:
    """Bridges by counting, for each DFS tree edge, the back edges that jump over it.

    A tree edge is a bridge exactly when no back edge starts in the subtree
    below it and ends above it.
    """
    adj = adjacency(n, edges)
    parent = [-1] * n
    depth = [-1] * n
    preorder: list[int] = []
    for root in range(n):
        if depth[root] != -1:
            continue
        depth[root] = 0
        preorder.append(root)
        stack = [(root, iter(adj[root]))]
        while stack:
            v, it = stack[-1]
            for w in it:
                if depth[w] == -1:
                    depth[w] = depth[v] + 1
                    parent[w] = v
                    preorder.append(w)
                    stack.append((w, iter(adj[w])))
                    break
            else:
                stack.pop()
    crossing = [0] * n
    for u, v in edges:
        if parent[v] == u or parent[u] == v:
            continue
        low, high = (u, v) if depth[u] > depth[v] else (v, u)
        crossing[low] += 1
        crossing[high] -= 1
    out: set[Pair] = set()
    for v in reversed(preorder):
        p = parent[v]
        if p == -1:
            continue
        if crossing[v] == 0:
            out.add((min(p, v), max(p, v)))
        crossing[p] += crossing[v]
    return out


def bridge_tree_optimum(n: int, edges: list[Pair]) -> int:
    """Sum of ceil(|E(T)|/2) over the trees formed by the bridges of a graph."""
    found = bridges(n, edges)
    root = list(range(n))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for u, v in found:
        root[find(u)] = find(v)
    per_tree: dict[int, int] = {}
    for u, _ in found:
        r = find(u)
        per_tree[r] = per_tree.get(r, 0) + 1
    return sum(math.ceil(count / 2) for count in per_tree.values())


def insertion_order_problem(n: int, edges: list[Pair]) -> str | None:
    """Why vertex order 0..n-1 is not the insertion order of a chordal graph.

    Each vertex's earlier neighbours must form a clique; then the reversed
    order is a perfect elimination ordering.
    """
    adj = adjacency(n, edges)
    for v in range(n):
        earlier = [u for u in adj[v] if u < v]
        for a, b in combinations(earlier, 2):
            if b not in adj[a]:
                return f"earlier neighbours {a} and {b} of vertex {v} are not adjacent"
    return None


def tree_lower_bound(n: int, k: int) -> int:
    """ceil((n-1)(k-2)/2): every tree edge needs k-2 more neighbours in common."""
    return math.ceil((n - 1) * (k - 2) / 2)


def non_edges(n: int, edges: list[Pair]) -> list[Pair]:
    present = set(edges)
    return [p for p in combinations(range(n), 2) if p not in present]


def completion_of_size(n: int, edges: list[Pair], k: int, l: int, size: int) -> list[Pair] | None:
    """A valid completion with exactly `size` additions, by trying every subset.

    Adding edges never breaks a cover, so when none of this size exists, no
    smaller one does either.
    """
    for subset in combinations(non_edges(n, edges), size):
        if completion_problem(n, edges, list(subset), k, l) is None:
            return list(subset)
    return None


def min_set_cover(universe: int, sets: list[list[int]]) -> list[int]:
    """Lexicographically first minimum cover, by enumerating index subsets."""
    full = (1 << universe) - 1
    masks = [sum(1 << x for x in set(s)) for s in sets]
    for size in range(1, len(sets) + 1):
        for subset in combinations(range(len(sets)), size):
            got = 0
            for j in subset:
                got |= masks[j]
            if got == full:
                return list(subset)
    raise ValueError("the sets do not cover the universe")


def anchor_edges(k: int, roles: list[tuple[str, int | None]]) -> dict[Pair, int]:
    """Anchor edge -> set index, read off a role map.

    For k = 3 set j's anchor joins its vertex to the common vertex; for
    k >= 4 it is the missing edge between the two lowest vertices of set
    j's near-clique.
    """
    members: dict[int, list[int]] = {}
    common = None
    for v, (kind, index) in enumerate(roles):
        if kind in ("set", "set-subgraph"):
            members.setdefault(index, []).append(v)
        elif kind == "common":
            common = v
    out = {}
    for j, vs in members.items():
        a, b = (vs[0], common) if k == 3 else (vs[0], vs[1])
        out[(min(a, b), max(a, b))] = j
    return out


def goodify_problem(
    output: list[Pair],
    given: list[Pair],
    anchors: dict[Pair, int],
    universe: int,
    sets: list[list[int]],
    minimum: int | None,
) -> str | None:
    """Why a goodified completion is wrong.

    It must consist of anchor edges only, be no larger than its input, buy
    sets covering the universe, and have exactly `minimum` edges when the
    input came from a minimum cover.
    """
    chosen = []
    for u, v in output:
        pair = (min(u, v), max(u, v))
        if pair not in anchors:
            return f"{pair} is not an anchor edge"
        chosen.append(anchors[pair])
    if len(output) > len(given):
        return f"output has {len(output)} edges, input only {len(given)}"
    covered = set().union(*(sets[j] for j in chosen))
    if covered != set(range(universe)):
        return f"bought sets {sorted(chosen)} leave items {sorted(set(range(universe)) - covered)} uncovered"
    if minimum is not None and len(output) != minimum:
        return f"output has {len(output)} edges, the minimum cover has {minimum} sets"
    return None
