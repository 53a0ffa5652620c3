import hashlib
import random
from itertools import product

import pytest

from kcover import (
    Graph,
    InputError,
    check_chordal,
    enumerate_labeled_trees,
    gen_random_3partition,
    gen_random_chordal,
    gen_random_setcover,
    gen_random_tree,
)
from kcover.generators import _below, _sample, _tree_from_prufer, chordal_size_bound
from kcover.io import format_edge_list

from helpers import enumerated_3partition, heap_prufer_tree


def test_enumerate_labeled_trees_counts():
    # Cayley's formula: n^(n-2) labeled trees
    for n, want in ((3, 3), (4, 16), (5, 125)):
        trees = list(enumerate_labeled_trees(n))
        assert len(trees) == want
        assert len(set(trees)) == want
        for t in trees:
            assert t.n == n and t.m == n - 1 and t.is_connected()


def test_enumerate_labeled_trees_bounds():
    with pytest.raises(InputError):
        list(enumerate_labeled_trees(2))
    with pytest.raises(InputError):
        list(enumerate_labeled_trees(9))


def test_gen_random_tree():
    assert gen_random_tree(1, 0) == Graph(1, [])
    assert gen_random_tree(2, 0) == Graph(2, [(0, 1)])
    for seed in range(20):
        g = gen_random_tree(12, seed)
        assert g.m == 11 and g.is_connected()
    assert gen_random_tree(12, 3) == gen_random_tree(12, 3)
    assert len({gen_random_tree(12, seed) for seed in range(20)}) > 1


# sha256 of format_edge_list over _drawn_graphs below, recorded while both
# generators drew through random.Random's own randrange, randint and sample and
# Prüfer sequences were decoded with a heap; any rewrite must reproduce it.
GOLDEN_DRAWN_GRAPHS_SHA256 = "a484d3ab28ec6b0e1e651b0b9691de62b55608345f82bd4f1c9c1fda24aaeef8"


def _drawn_graphs():
    """Trees at sizes around powers of two (where bit_length moves), chordal
    graphs at widths on both sides of random.sample's 21-member pool limit,
    the 4*10^4-vertex graphs of the benchmark, and every labeled tree to n = 7."""
    for n in (1, 2, 3, 4, 5, 63, 64, 65, 300, 20_000, 40_000):
        for seed in range(3):
            yield gen_random_tree(n, seed)
    for n, widths in ((200, (1, 2, 3, 4, 20, 21, 22, 25, 60)), (40_000, (2, 3, 4))):
        for width in widths:
            for seed in range(3):
                yield gen_random_chordal(n, width, seed)
    for n in range(3, 8):
        yield from enumerate_labeled_trees(n)


def test_drawn_graphs_golden_hash():
    h = hashlib.sha256()
    for g in _drawn_graphs():
        h.update(format_edge_list(g).encode())
    assert h.hexdigest() == GOLDEN_DRAWN_GRAPHS_SHA256


def test_below_and_sample_draw_as_random_does():
    # The generators draw through _below and _sample so that their graphs stay
    # those of random.Random's randrange, randint and sample.  A Python whose
    # random draws differently fails here by name, not as a changed graph.
    bounds = [*range(1, 71), 10**6]
    for j in range(7, 31):
        bounds += [2**j - 1, 2**j, 2**j + 1]
    for seed in (0, 1, 2026):
        ours, theirs = random.Random(seed), random.Random(seed)
        below = _below(ours)
        for m in bounds:
            assert below(m) == theirs.randrange(m), (seed, m)
            assert 1 + below(m) == theirs.randint(1, m), (seed, m)
        # every (population, size) gen_random_chordal reaches for width <= 24
        for h in range(1, 26):
            population = tuple(range(100, 100 + 3 * h, 3))
            for size in range(1, h + 1):
                want = theirs.sample(population, size)
                assert _sample(ours, below, population, size) == want, (seed, h, size)
        assert ours.getstate() == theirs.getstate()


def test_linear_prufer_decoder_matches_the_heap_decoder():
    for n in range(2, 8):
        for seq in product(range(n), repeat=n - 2):
            assert _tree_from_prufer(seq, n) == heap_prufer_tree(seq, n), seq


def test_gen_random_chordal():
    for seed in range(20):
        g = gen_random_chordal(15, 1 + seed % 4, seed)
        assert g.is_connected()
        assert check_chordal(g).is_chordal
    assert gen_random_chordal(15, 3, 7) == gen_random_chordal(15, 3, 7)
    # width 1 only ever attaches through a single vertex, so the result is a tree
    t = gen_random_chordal(12, 1, 5)
    assert t.m == 11
    with pytest.raises(InputError):
        gen_random_chordal(3, 0, 0)
    with pytest.raises(InputError):
        gen_random_chordal(2, 2, 0)


def test_chordal_size_bound_holds_and_is_reached():
    for seed in range(40):
        n, width = 5 + seed, 1 + seed % 4
        assert gen_random_chordal(n, width, seed).m <= chordal_size_bound(n, width)
    # a tree at width 1, and a single clique when width is n - 1
    assert gen_random_chordal(30, 1, 0).m == chordal_size_bound(30, 1) == 29
    assert gen_random_chordal(8, 7, 0).m == chordal_size_bound(8, 7) == 28
    assert chordal_size_bound(8, 100) == 28


def test_gen_random_setcover_bounds():
    with pytest.raises(InputError):
        gen_random_setcover(0, 3)
    with pytest.raises(InputError):
        gen_random_setcover(3, 0)
    with pytest.raises(InputError):
        gen_random_setcover(3, 3, density=1.5)


# sha256 of the seeded SET COVER instances listed by _setcover_outputs below,
# recorded while gen_random_setcover filled Python sets and then copied them.
GOLDEN_SETCOVER_SHA256 = "b6ea495263a6448bc1e32aceb2f247eaaefe77add8d99d6221b16baf59c0ccdf"


def _setcover_outputs():
    """gen_random_setcover over a grid of sizes, densities and seeds, as text;
    the sparse points orphan items and leave sets empty."""
    for nx, nf in ((1, 1), (1, 5), (5, 1), (7, 3), (3, 9), (40, 25)):
        for density in (0.0, 0.05, 0.3, 0.9, 1.0):
            for seed in range(4):
                inst = gen_random_setcover(nx, nf, density, seed)
                yield repr([sorted(s) for s in inst.sets])


def test_gen_random_setcover_golden_hash():
    h = hashlib.sha256()
    for text in _setcover_outputs():
        h.update(text.encode())
    assert h.hexdigest() == GOLDEN_SETCOVER_SHA256


def test_gen_random_3partition_yes_instances():
    for s in (7, 9, 10, 11, 12):
        inst, witness = gen_random_3partition(2, s, seed=s)
        assert inst.target == s and len(inst.values) == 6
        assert witness == [(0, 1, 2), (3, 4, 5)]
        for a, b, c in witness:
            assert inst.values[a] + inst.values[b] + inst.values[c] == s
    again, _ = gen_random_3partition(2, 9, seed=9)
    assert again == gen_random_3partition(2, 9, seed=9)[0]


def test_gen_random_3partition_infeasible_target():
    # strictly between 8/4 and 8/2 leaves only the value 3, and 3+3+3 != 8
    with pytest.raises(InputError):
        gen_random_3partition(2, 8, seed=0)


def test_gen_random_3partition_likely_no_instances():
    inst, witness = gen_random_3partition(3, 10, seed=4, yes=False)
    assert witness is None
    # the consecutive triples no longer all hit the target
    sums = [sum(inst.values[3 * g : 3 * g + 3]) for g in range(3)]
    assert any(s != 10 for s in sums)
    # but every value still sits inside the forced window
    assert all(4 * v > 10 and 2 * v < 10 for v in inst.values)
    with pytest.raises(InputError):
        gen_random_3partition(1, 10, seed=0, yes=False)


def test_gen_random_3partition_draws_as_the_enumeration_did():
    # every feasible s from 7 to 60 (8 has no triple), p up to 5, both modes
    for s in (7, *range(9, 61)):
        for p in (2, 5) if s % 2 else (3,):
            for seed in range(4):
                for yes in (True, False):
                    want = enumerated_3partition(p, s, seed, yes)
                    if want is None:
                        with pytest.raises(InputError):
                            gen_random_3partition(p, s, seed, yes)
                    else:
                        assert gen_random_3partition(p, s, seed, yes)[0] == want
    assert gen_random_3partition(1, 100, 0)[0] == enumerated_3partition(1, 100, 0)


def test_gen_random_3partition_is_linear_in_s():
    # listing every feasible triple at s = 10**5 would take some 10**10 steps
    inst, _ = gen_random_3partition(4, 100_000, seed=1)
    assert sum(inst.values) == 4 * 100_000
    assert all(4 * v > 100_000 and 2 * v < 100_000 for v in inst.values)
