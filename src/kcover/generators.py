"""Seeded instance generators.

Everything here is a pure function of its parameters and seed, so test
corpora and benchmark runs are reproducible byte for byte.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_right
from functools import partial
from itertools import accumulate, chain, combinations, product
from typing import Callable, Iterator, Sequence

from .errors import InputError
from .graph import Edge, Graph, PairSource
from .reductions import SetCoverInstance, ThreePartitionInstance


# random.Random.sample draws from a copied pool, one below() per member, for a
# population of at most this many; above it, it may switch to a set of picks.
_POOL_LIMIT = 21


def _below(rng: random.Random) -> Callable[[int], int]:
    """below(m): a uniform integer of range(m), m >= 1, drawn exactly as
    rng.randrange(m) draws it (Random._randbelow_with_getrandbits) but without
    randrange's argument handling, so the stream and every graph stay as they
    were.  tests/test_generators.py checks this against the Python in use."""
    getrandbits = rng.getrandbits

    def below(m: int) -> int:
        k = m.bit_length()
        r = getrandbits(k)
        while r >= m:
            r = getrandbits(k)
        return r

    return below


def _sample(
    rng: random.Random, below: Callable[[int], int], population: Sequence[int], size: int
) -> list[int]:
    """rng.sample(population, size), 1 <= size <= len(population), draw for
    draw: below is _below(rng), and a population of at most _POOL_LIMIT
    members is drawn from a pool as Random.sample draws it."""
    h = len(population)
    if h > _POOL_LIMIT:
        return rng.sample(population, size)
    pool = list(population)
    picks = []
    for i in range(h - 1, h - 1 - size, -1):
        j = below(i + 1)
        picks.append(pool[j])
        pool[j] = pool[i]
    return picks


def _tree_from_prufer(seq: Sequence[int], n: int) -> list[Edge]:
    """The tree of a Prüfer sequence over 0..n-1, n >= 2: each step joins the
    smallest leaf to the next entry.  A forward-only pointer finds that leaf,
    since a vertex that becomes a leaf behind it is the smallest one."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    ptr = leaf = degree.index(1)
    # The leaves first, then the edges: leaf ids made among the edge tuples
    # would pin the tuples' memory pages once the tuples are freed, and raise
    # the peak RSS of writing a large tree.
    leaves = []
    for x in seq:
        leaves.append(leaf)
        degree[x] -= 1
        if x < ptr and degree[x] == 1:
            leaf = x
        else:
            ptr = leaf = degree.index(1, ptr + 1)
    edges: list[Edge] = [(u, x) if u < x else (x, u) for u, x in zip(leaves, seq)]
    edges.append((leaf, n - 1))
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
    below = _below(random.Random(seed))
    seq = [below(n) for _ in range(n - 2)]
    return Graph(n, _tree_from_prufer(seq, n))


def gen_random_chordal(n: int, width: int, seed: int) -> Graph:
    """Random connected chordal graph grown vertex by vertex.

    Each new vertex attaches to a random subset (size 1..width) of a clique
    around a random earlier vertex, so insertion order reversed is a perfect
    elimination ordering.  Size-1 attachments create bridges, giving the
    decomposition into trees something to chew on.  The edges are kept as
    one flat list of their ends, which Graph reads two at a time.
    """
    if width < 1 or n < width + 1:
        raise InputError(f"need n >= width+1 >= 2, got n={n}, width={width}")
    rng = random.Random(seed)
    below = _below(rng)
    base = width + 1
    ends: list[int] = list(chain.from_iterable(combinations(range(base), 2)))
    clique_of: list[tuple[int, ...]] = [tuple(range(base))] * base
    for v in range(base, n):
        # as randrange(v), randint(1, ...) and sample(host, size) would draw
        host = clique_of[below(v)]
        size = 1 + below(min(width, len(host)))
        attach = tuple(sorted(_sample(rng, below, host, size)))
        for u in attach:
            ends += u, v
        clique_of.append(attach + (v,))
    del clique_of
    return Graph(n, PairSource(len(ends) // 2, partial(iter, ends)))


def chordal_size_bound(n: int, width: int) -> int:
    """The most edges gen_random_chordal(n, width, seed) can have for any seed:
    a (w+1)-clique and at most w edges per later vertex, w = min(width, n-1)."""
    w = min(width, n - 1)
    return (w + 1) * w // 2 + (n - w - 1) * w


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
    members: list[list[int]] = [[] for _ in range(nf)]
    covered = bytearray(nx)
    for i in range(nx):
        for j in range(nf):
            if rng.random() < density:
                members[j].append(i)
                covered[i] = 1
    for i in range(nx):
        if not covered[i]:
            members[rng.randrange(nf)].append(i)
    for j in range(nf):
        if not members[j]:
            members[j].append(rng.randrange(nx))
    return SetCoverInstance(nx, tuple(frozenset(m) for m in members))


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
    # The feasible triples a <= b <= c inside the window, in lexicographic
    # order, without listing them: those with a = lo + i have b from
    # max(a, s - a - hi) to min(hi, (s - a) // 2), and starts[i] counts the
    # triples before them.
    lo, hi = s // 4 + 1, (s - 1) // 2
    starts = array("q", accumulate(
        (max(0, min(hi, (s - a) // 2) - max(a, s - a - hi) + 1) for a in range(lo, hi + 1)),
        initial=0,
    ))
    if not starts[-1]:
        raise InputError(
            f"no three integers strictly between {s}/4 and {s}/2 sum to {s}"
        )
    rng = random.Random(seed)
    values: list[int] = []
    for _ in range(p):
        # randrange(m) and choice over m items draw the same index
        index = rng.randrange(starts[-1])
        i = bisect_right(starts, index) - 1
        a = lo + i
        b = max(a, s - a - hi) + index - starts[i]
        triple = [a, b, s - a - b]
        rng.shuffle(triple)
        values.extend(triple)
    witness = [(3 * g, 3 * g + 1, 3 * g + 2) for g in range(p)]
    if yes:
        return ThreePartitionInstance(s, tuple(values)), witness
    if p < 2:
        raise InputError("a single-triple instance is always satisfiable")
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
