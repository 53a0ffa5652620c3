"""Small graph builders and slow reference implementations shared by the tests.

The reference implementations here are deliberately naive (subset enumeration,
remove-and-recount, induced-cycle scans) so they share no code with the module
under test.
"""

from __future__ import annotations

import heapq
import random
from collections import Counter
from itertools import combinations, combinations_with_replacement
from types import SimpleNamespace

from kcover import (
    ChordalityResult,
    CompletionSet,
    CoverCheck,
    CoverSpec,
    Graph,
    InputError,
    LabeledReductionGraph,
    RootedTree,
    SetCoverInstance,
    ThreePartitionInstance,
    approx_tree_k,
    norm_edge,
    validate_completion,
)
from kcover.io import check_order, check_size
from kcover.trees import _clique_cover_loop


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(n: int) -> Graph:
    return Graph(n, [(0, i) for i in range(1, n)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, list(combinations(range(n), 2)))


def common_neighbours(g: Graph, u: int, v: int) -> list[int]:
    """The vertices forming a triangle with the pair (u, v), in ascending order."""
    return sorted(set(g.adj[u]) & set(g.adj[v]))


def rooted(g: Graph) -> RootedTree:
    return RootedTree.from_graph(g)


def permuted(g: Graph, seed: int) -> Graph:
    """g with its vertices relabelled by a seeded random permutation."""
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def nonedges(g: Graph) -> list[tuple[int, int]]:
    return [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if not g.has_edge(u, v)
    ]


def cover_trace(g: Graph, k: int) -> tuple[CompletionSet, list[int], int]:
    """approx_tree_k's completion of the tree g, plus what its clique-cover loop
    reports: the tree edges covered at each iteration and the vertices the
    forest pool explored."""
    additions: list[tuple[int, int]] = []
    covered, explored = _clique_cover_loop(g.n, g.edges, k, set(g.edges), additions)
    completion = approx_tree_k(RootedTree.from_graph(g), k)
    assert completion == CompletionSet(additions)
    return completion, covered, explored


def naive_min_completion(g: Graph, spec: CoverSpec) -> CompletionSet:
    """Minimum completion by brute subset enumeration. Tiny graphs only."""
    candidates = nonedges(g)
    for size in range(len(candidates) + 1):
        for subset in combinations(candidates, size):
            c = CompletionSet(subset)
            if validate_completion(g, c, spec).ok:
                return c
    raise AssertionError("no completion exists even after filling every non-edge")


def slow_validate(g: Graph, pairs, k: int, l: int) -> CoverCheck:
    """validate_completion from first principles, for valid additions only.

    G + C is a set of pairs; an edge's k-cliques are the (k-2)-subsets of its
    endpoints' common neighbours (a scan of one endpoint's incident pairs) whose
    pairs are all edges.  Connectivity is a flood fill that rescans every edge
    until nothing new is reached.  Of kcover it reads only g.n and g.edges, and
    builds the CoverCheck record.
    """
    edges = set(g.edges) | {(min(u, v), max(u, v)) for u, v in pairs}
    linked = edges | {(v, u) for u, v in edges}
    touching: dict[int, list[int]] = {v: [] for v in range(g.n)}
    for u, v in edges:
        touching[u].append(v)
        touching[v].append(u)
    violations = []
    for u, v in sorted(edges):
        common = [w for w in touching[u] if (v, w) in linked]
        cliques = sum(
            1
            for rest in combinations(common, k - 2)
            if all(pair in linked for pair in combinations(rest, 2))
        )
        if cliques < l:
            violations.append((u, v))
    reached = {0} if g.n else set()
    grew = True
    while grew:
        before = len(reached)
        reached |= {b for a, b in linked if a in reached}
        grew = len(reached) > before
    connected = len(reached) == g.n
    return CoverCheck(
        ok=not violations and connected, violations=tuple(violations), connected=connected
    )


def counting_heapq(counts: Counter) -> SimpleNamespace:
    """A stand-in for a module's `heapq` that counts pushes and pops in `counts`."""

    def heappush(heap, item):
        counts["push"] += 1
        heapq.heappush(heap, item)

    def heappop(heap):
        counts["pop"] += 1
        return heapq.heappop(heap)

    return SimpleNamespace(heappush=heappush, heappop=heappop)


def refuse_graph(n, edges):
    """Stands in for Graph where a test must fail rather than allocate n vertices."""
    raise AssertionError(f"Graph({n}, ...) was built for an over-large header")


def brute_bridges(g: Graph) -> list[tuple[int, int]]:
    """An edge is a bridge iff removing it increases the component count."""
    base = len(g.components())
    return [e for e in g.edge_list() if len(g.without_edges([e]).components()) > base]


def brute_is_chordal(g: Graph) -> bool:
    """No induced cycle of length four or more."""
    for size in range(4, g.n + 1):
        for subset in combinations(range(g.n), size):
            new = {v: i for i, v in enumerate(subset)}
            sub = Graph(size, [(new[u], new[v]) for u, v in g.edges if u in new and v in new])
            if sub.m == size and all(len(a) == 2 for a in sub.adj) and sub.is_connected():
                return False
    return True


# check_chordal as it was before its one-pass rewrite: one heap of
# (-weight, id) pairs, then a second pass over the elimination order.
def heap_check_chordal(g: Graph) -> ChordalityResult:
    """Chordality test via maximum cardinality search.

    Returns the elimination order on success, or a certificate vertex whose
    later neighbors fail to form a clique under the attempted order.
    """
    n = g.n
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


def random_cover(inst: SetCoverInstance, rng: random.Random) -> list[int]:
    """A random (not necessarily minimal) index set that covers the universe."""
    everything = set(range(inst.universe_size))
    while True:
        chosen = [j for j in range(len(inst.sets)) if rng.random() < 0.6]
        if set().union(*(inst.sets[j] for j in chosen), frozenset()) == everything:
            return chosen


def pad_with_decoys(
    rg: LabeledReductionGraph,
    base: CompletionSet,
    rng: random.Random,
    spec: CoverSpec,
) -> CompletionSet:
    """Pad a good completion with random non-edges, keeping it valid."""
    chosen = list(base)
    pool = [e for e in nonedges(rg.graph) if e not in base]
    rng.shuffle(pool)
    for decoy in pool[:6]:
        trial = CompletionSet(chosen + [decoy])
        if validate_completion(rg.graph, trial, spec).ok:
            chosen.append(decoy)
    rng.shuffle(chosen)
    return CompletionSet(chosen)


def valid_p3_partition(t: RootedTree, groups: list[tuple]) -> bool:
    """Groups must partition the tree's edges into paths of one or two edges."""
    seen: list[tuple[int, int]] = []
    for group in groups:
        if len(group) == 2:
            (a, b), (c, d) = group
            if not ({a, b} & {c, d}):
                return False
        elif len(group) != 1:
            return False
        seen.extend(group)
    return len(seen) == len(set(seen)) and sorted(seen) == t.base.edge_list()


def enumerated_3partition(p: int, s: int, seed: int, yes: bool = True):
    """gen_random_3partition for valid p and feasible s, as it was when it drew
    each triple with random.choice from a list of every feasible triple."""
    lo, hi = s // 4 + 1, (s - 1) // 2
    triples = [
        t for t in combinations_with_replacement(range(lo, hi + 1), 3) if sum(t) == s
    ]
    rng = random.Random(seed)
    values: list[int] = []
    for _ in range(p):
        triple = list(rng.choice(triples))
        rng.shuffle(triple)
        values.extend(triple)
    if yes:
        return ThreePartitionInstance(s, tuple(values))
    positions = list(range(3 * p))
    for _ in range(200):
        i, j = rng.sample(positions, 2)
        if i // 3 != j // 3 and values[i] < hi and values[j] > lo:
            values[i] += 1
            values[j] -= 1
            return ThreePartitionInstance(s, tuple(values))
    return None


# io.parse_edge_pairs and io.parse_completion as they were when every line was
# stripped, split and converted in Python, with the two helpers they called.
def linewise_data_lines(text: str) -> tuple[list[tuple[int, str]], list[str]]:
    """The numbered data lines of text, and its '#' comment lines, stripped."""
    data, comments = [], []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("#"):
            comments.append(line)
        elif line:
            data.append((no, line))
    return data, comments


def linewise_pair(line: str, no: int) -> tuple[int, int]:
    parts = line.split()
    if len(parts) != 2:
        raise InputError(f"line {no}: expected two integers, got {line!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise InputError(f"line {no}: expected two integers, got {line!r}") from None


def linewise_edge_pairs(text: str, connected: bool = False) -> tuple[int, list[tuple[int, int]]]:
    """The vertex count and the pairs of "n m" followed by m "u v" lines; '#'
    starts a comment.  The pairs are returned as read, unchecked.

    With connected (the solvers need a connected graph), a header that
    declares fewer than n - 1 edges, or more than MAX_EDGES, is refused
    before any edge is read.
    """
    lines = linewise_data_lines(text)[0]
    if not lines:
        raise InputError("empty edge list: missing the 'n m' header line")
    no, head = lines[0]
    n, m = linewise_pair(head, no)
    check_order(n, f"line {no}: header declares")
    if connected:
        check_size(m, f"line {no}: header declares")
        if m < n - 1:
            raise InputError(
                f"line {no}: header declares n={n} vertices and m={m} edges; "
                f"a connected graph needs at least {n - 1}"
            )
    if len(lines) - 1 != m:
        raise InputError(
            f"header announces {m} edges but the file has {len(lines) - 1}"
        )
    return n, [linewise_pair(line, no) for no, line in lines[1:]]


def linewise_completion(text: str) -> CompletionSet:
    """Completion file: "u v" lines, counted by an optional "# additions=N" (the last one)."""
    lines, comments = linewise_data_lines(text)
    declared: int | None = None
    for line in comments:
        if "additions=" in line:
            try:
                declared = int(line.split("additions=", 1)[1])
            except ValueError:
                raise InputError(f"bad additions count in {line!r}") from None
    pairs = [linewise_pair(line, no) for no, line in lines]
    if declared is not None and declared != len(pairs):
        raise InputError(f"file declares additions={declared} but lists {len(pairs)} pairs")
    return CompletionSet(pairs)
