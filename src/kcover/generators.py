"""Seeded instance generators.

Everything here is a pure function of its parameters and seed, so test
corpora and benchmark runs are reproducible byte for byte.
"""

from __future__ import annotations

import heapq
import random
from itertools import combinations, combinations_with_replacement, product
from typing import Iterator

from .errors import InputError
from .graph import Edge, Graph, norm_edge
from .reductions import SetCoverInstance, ThreePartitionInstance


def _tree_from_prufer(seq: tuple[int, ...], n: int) -> list[Edge]:
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges: list[Edge] = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append(norm_edge(leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append(norm_edge(heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def enumerate_labeled_trees(n: int) -> Iterator[Graph]:
    """All n^(n-2) labeled trees on vertices 0..n-1, streamed in sequence order."""
    if not 3 <= n <= 8:
        raise InputError(f"exhaustive enumeration is capped at 3 <= n <= 8, got {n}")
    for seq in product(range(n), repeat=n - 2):
        yield Graph(n, _tree_from_prufer(seq, n))


def gen_random_tree(n: int, seed: int) -> Graph:
    """Uniform random labeled tree, deterministic per (n, seed)."""
    if n < 1:
        raise InputError("tree needs at least one vertex")
    if n == 1:
        return Graph(1, [])
    rng = random.Random(seed)
    seq = tuple(rng.randrange(n) for _ in range(n - 2))
    return Graph(n, _tree_from_prufer(seq, n))


def gen_random_chordal(n: int, width: int, seed: int) -> Graph:
    """Random connected chordal graph grown vertex by vertex.

    Each new vertex attaches to a random subset (size 1..width) of a clique
    around a random earlier vertex, so insertion order reversed is a perfect
    elimination ordering.  Size-1 attachments create bridges, giving the
    decomposition into trees something to chew on.
    """
    if width < 1 or n < width + 1:
        raise InputError(f"need n >= width+1 >= 2, got n={n}, width={width}")
    rng = random.Random(seed)
    base = width + 1
    edges: list[Edge] = list(combinations(range(base), 2))
    clique_of: list[tuple[int, ...]] = [tuple(range(base))] * base
    for v in range(base, n):
        host_clique = clique_of[rng.randrange(v)]
        size = rng.randint(1, min(width, len(host_clique)))
        attach = tuple(sorted(rng.sample(host_clique, size)))
        edges.extend(norm_edge(u, v) for u in attach)
        clique_of.append(attach + (v,))
    return Graph(n, edges)


def gen_random_setcover(
    nx: int, nf: int, density: float = 0.4, seed: int = 0
) -> SetCoverInstance:
    """Random membership matrix at the given density, repaired so no item is
    orphaned and no set is empty."""
    if nx < 1 or nf < 1:
        raise InputError("need at least one item and one set")
    if not 0.0 <= density <= 1.0:
        raise InputError(f"density must be within [0, 1], got {density}")
    rng = random.Random(seed)
    sets: list[set[int]] = [set() for _ in range(nf)]
    for i in range(nx):
        for j in range(nf):
            if rng.random() < density:
                sets[j].add(i)
    for i in range(nx):
        if not any(i in s for s in sets):
            sets[rng.randrange(nf)].add(i)
    for j in range(nf):
        if not sets[j]:
            sets[j].add(rng.randrange(nx))
    return SetCoverInstance(nx, tuple(frozenset(s) for s in sets))


def _feasible_triples(s: int) -> list[tuple[int, int, int]]:
    lo = s // 4 + 1
    hi = (s - 1) // 2
    return [
        t
        for t in combinations_with_replacement(range(lo, hi + 1), 3)
        if sum(t) == s
    ]


def gen_random_3partition(
    p: int, s: int, seed: int, yes: bool = True
) -> tuple[ThreePartitionInstance, list[tuple[int, int, int]] | None]:
    """Random 3-partition instance with p triples and target s.

    In yes mode the values are drawn triple by triple, so the returned
    partition (consecutive index triples) is a witness.  Otherwise mass is
    shifted between triples and None is returned: the instance is merely
    *likely* unsatisfiable, never certified.
    """
    if p < 1:
        raise InputError("need at least one triple")
    triples = _feasible_triples(s)
    if not triples:
        raise InputError(
            f"no three integers strictly between {s}/4 and {s}/2 sum to {s}"
        )
    rng = random.Random(seed)
    values: list[int] = []
    for _ in range(p):
        triple = list(rng.choice(triples))
        rng.shuffle(triple)
        values.extend(triple)
    witness = [(3 * g, 3 * g + 1, 3 * g + 2) for g in range(p)]
    if yes:
        return ThreePartitionInstance(s, tuple(values)), witness
    if p < 2:
        raise InputError("a single-triple instance is always satisfiable")
    lo, hi = s // 4 + 1, (s - 1) // 2
    positions = list(range(3 * p))
    for _ in range(200):
        i, j = rng.sample(positions, 2)
        if i // 3 != j // 3 and values[i] < hi and values[j] > lo:
            values[i] += 1
            values[j] -= 1
            return ThreePartitionInstance(s, tuple(values)), None
    raise InputError(
        f"cannot perturb values within the window ({s}/4, {s}/2); "
        "the window is too tight for a likely-unsatisfiable instance"
    )
