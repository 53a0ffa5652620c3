import gc
import hashlib
import math
import random
import time
from collections import Counter

import pytest

from kcover import (
    CoverSpec,
    Graph,
    InputError,
    OracleBudget,
    RootedTree,
    approx_tree_4,
    approx_tree_k,
    brute_min_completion,
    gen_random_tree,
    optimal_tree_31,
    p3_partition,
    spider_graph,
    validate_completion,
    worst_case_spider,
)
from kcover import trees
from kcover.io import format_completion
from kcover.trees import _extract_step, _ForestPool

from helpers import (
    counting_heapq, cover_trace, path_graph, rooted, star_graph, valid_p3_partition,
)


def test_rooted_tree_from_path():
    t = rooted(path_graph(5))
    assert t.parent == (0, 0, 1, 2, 3)
    assert t.depth == (0, 1, 2, 3, 4)
    kids = t.children()
    assert kids[0] == [1] and kids[3] == [4] and kids[4] == []


def test_rooted_tree_rejects_non_trees():
    with pytest.raises(InputError):
        RootedTree.from_graph(Graph(3, [(0, 1), (1, 2), (0, 2)]))
    with pytest.raises(InputError):
        RootedTree.from_graph(Graph(4, [(0, 1), (2, 3)]))


def test_p3_partition_examples():
    # P5 has exactly one valid pairing, so the output is forced.
    groups = p3_partition(rooted(path_graph(5)))
    assert {frozenset(grp) for grp in groups} == {
        frozenset({(0, 1), (1, 2)}),
        frozenset({(2, 3), (3, 4)}),
    }

    star = p3_partition(rooted(star_graph(4)))
    assert sorted(len(grp) for grp in star) == [1, 2]

    assert p3_partition(rooted(path_graph(3))) == [((0, 1), (1, 2))]


def test_p3_partition_rejects_tiny_trees():
    with pytest.raises(InputError):
        p3_partition(rooted(path_graph(2)))


def test_p3_partition_validity_random():
    for seed in range(80):
        n = 3 + seed % 38
        t = rooted(gen_random_tree(n, seed))
        groups = p3_partition(t)
        assert len(groups) == math.ceil((n - 1) / 2)
        assert sum(1 for grp in groups if len(grp) == 1) == (n - 1) % 2
        assert valid_p3_partition(t, groups)


def test_optimal_tree_31_examples():
    assert list(optimal_tree_31(rooted(path_graph(3)))) == [(0, 2)]

    p5 = optimal_tree_31(rooted(path_graph(5)))
    assert set(p5) == {(0, 2), (2, 4)}

    star = optimal_tree_31(rooted(star_graph(4)))
    assert set(star) == {(1, 2), (1, 3)}

    with pytest.raises(InputError):
        optimal_tree_31(rooted(path_graph(2)))


def test_optimal_tree_31_random_trees():
    spec = CoverSpec(3, 1)
    for seed in range(60):
        n = 3 + seed % 30
        g = gen_random_tree(n, seed)
        c = optimal_tree_31(rooted(g))
        assert len(c) == math.ceil((n - 1) / 2)
        assert validate_completion(g, c, spec).ok


def test_spider_graph_layout():
    g = spider_graph([2, 2])
    assert g.n == 5
    assert g.edge_list() == [(0, 1), (0, 3), (1, 2), (3, 4)]
    with pytest.raises(InputError):
        spider_graph([])
    with pytest.raises(InputError):
        spider_graph([2, 0])


def test_worst_case_spider_shapes():
    g15 = worst_case_spider(15)
    assert g15.n == 15 and len(g15.adj[0]) == 7
    assert sorted(map(len, g15.adj)).count(1) == 7

    g5 = worst_case_spider(5)
    assert len(g5.adj[0]) == 2 and g5.m == 4

    g6 = worst_case_spider(6)  # two 2-edge legs plus one 1-edge leg
    assert len(g6.adj[0]) == 3 and g6.m == 5
    assert sorted(map(len, g6.adj)) == [1, 1, 1, 2, 2, 3]

    g4 = worst_case_spider(4)
    assert len(g4.adj[0]) == 2

    with pytest.raises(InputError):
        worst_case_spider(3)


def _random_forest(seed: int) -> Graph:
    rng = random.Random(seed)
    sizes = [rng.randint(2, 6)] + [rng.randint(1, 6) for _ in range(rng.randint(0, 3))]
    edges: list[tuple[int, int]] = []
    base = 0
    for size in sizes:
        if size >= 2:
            tree = gen_random_tree(size, rng.randrange(10**6))
            edges.extend((u + base, v + base) for u, v in tree.edge_list())
        base += size
    return Graph(base, edges)


def _first_cut(f: Graph, k: int) -> tuple[list[int], list[tuple[int, int]]]:
    """The vertices and edges of the first piece approx_tree_k's loop takes from f."""
    return _extract_step(_ForestPool(f.n, f.edges, k), k)


def test_extract_subforest_examples():
    assert _first_cut(Graph(2, [(0, 1)]), 4) == ([0, 1], [(0, 1)])

    # One component with >= 7 vertices: a 7-vertex subtree of it.
    big = Graph(11, [(i, i + 1) for i in range(8)] + [(9, 10)])
    vertices, edges = _first_cut(big, 7)
    assert vertices == [0, 1, 2, 3, 4, 5, 6] and len(edges) == 6

    # Two components of 5 vertices each, k=7: whole first + 2 carved vertices.
    two = Graph(10, [(i, i + 1) for i in range(4)] + [(i, i + 1) for i in range(5, 9)])
    vertices, edges = _first_cut(two, 7)
    assert vertices == [0, 1, 2, 3, 4, 5, 6]
    assert set(edges) == {(0, 1), (1, 2), (2, 3), (3, 4), (5, 6)}


def test_extract_subforest_maximality_random():
    for seed in range(60):
        f = _random_forest(seed)
        k = 2 + seed % 6
        vertices, edges = _first_cut(f, k)
        verts = set(vertices)
        assert len(verts) <= k
        assert set(edges) <= f.edges
        touched = {v for e in edges for v in e}
        assert touched == verts  # every chosen vertex lies on a chosen edge
        # maximal: either the budget cannot hold another K2, or nothing is left
        budget = k - len(verts)
        assert budget <= 1 or set(edges) == f.edges


def test_approx_tree_k_frozen_paths():
    p5 = path_graph(5)
    completion, covered, _ = cover_trace(p5, 5)
    assert len(completion) == 6
    assert covered == [4]
    assert validate_completion(p5, completion, CoverSpec(5, 1)).ok

    p9 = path_graph(9)
    completion, covered, _ = cover_trace(p9, 5)
    assert len(completion) == 12
    assert covered == [4, 4]
    assert validate_completion(p9, completion, CoverSpec(5, 1)).ok
    assert validate_completion(p9, completion, CoverSpec(3, 3)).ok


def test_approx_tree_k_rejects_bad_inputs():
    with pytest.raises(InputError):
        approx_tree_k(rooted(path_graph(6)), 4)
    with pytest.raises(InputError):
        approx_tree_k(rooted(path_graph(4)), 5)


def test_approx_tree_k_properties_random():
    for k in (5, 6, 7):
        for seed in range(20):
            n = k + seed * 2
            g = gen_random_tree(n, 1000 * k + seed)
            completion, covered, _ = cover_trace(g, k)
            assert validate_completion(g, completion, CoverSpec(k, 1)).ok
            assert validate_completion(g, completion, CoverSpec(3, k - 2)).ok
            assert sum(covered) == n - 1
            # every non-final iteration removes at least floor(k/2) tree edges
            assert all(c >= k // 2 for c in covered[:-1])


def test_approx_tree_k_explores_n_log_n_vertices():
    # A deterministic stand-in for a doubling-time test: the forest pool
    # counts the vertices its component searches visit.  Re-searching the
    # whole remaining component after every cut would visit about
    # n^2 / (2(k-1)) vertices on the path.
    for g in (
        path_graph(10_000),
        spider_graph([100] * 100),
        star_graph(10_001),
        gen_random_tree(10_000, 1),
    ):
        n = g.n
        explored = cover_trace(g, 5)[2]
        assert explored <= n * (2 * math.ceil(math.log2(n)) + 1)


def test_approx_tree_k_even_k_addition_bound():
    # for even k and n >= 2k the additions stay below I*C(k,2) - (n-1)
    k = 6
    for seed in range(15):
        n = 2 * k + seed * 3
        g = gen_random_tree(n, seed)
        completion, covered, _ = cover_trace(g, k)
        assert len(completion) <= len(covered) * math.comb(k, 2) - (n - 1)


# sha256 of the concatenated completions below, recorded on the original
# quadratic _ForestPool; any rewrite of the pool must reproduce it exactly.
GOLDEN_TREE_APPROX_SHA256 = "92941159b41e8c916f85f94037b4d48fee611df310237062cffa795ccffef88d"


def test_tree_approximations_golden_hash():
    h = hashlib.sha256()
    for n in (5, 6, 7, 9, 12, 20, 50, 200, 1000):
        for seed in range(8):
            t = rooted(gen_random_tree(n, seed))
            for k in (5, 6, 7, 9):
                if n >= k:
                    h.update(format_completion(approx_tree_k(t, k)).encode())
            if n >= 4:
                h.update(format_completion(approx_tree_4(t)).encode())
    for n in (11, 21, 101):
        t = rooted(worst_case_spider(n))
        for k in (5, 6):
            h.update(format_completion(approx_tree_k(t, k)).encode())
    assert h.hexdigest() == GOLDEN_TREE_APPROX_SHA256


def test_approx_tree_4_frozen_examples():
    star = star_graph(4)
    c = approx_tree_4(rooted(star))
    assert len(c) == 3  # matches the exhaustive-search optimum
    assert validate_completion(star, c, CoverSpec(4, 1)).ok

    p4 = path_graph(4)
    c = approx_tree_4(rooted(p4))
    assert len(c) == 3
    assert validate_completion(p4, c, CoverSpec(4, 1)).ok

    spider = worst_case_spider(15)
    c = approx_tree_4(rooted(spider))
    assert len(c) == 19
    assert len(c) <= 2 * 14
    assert validate_completion(spider, c, CoverSpec(4, 1)).ok

    with pytest.raises(InputError):
        approx_tree_4(rooted(path_graph(3)))


def test_approx_tree_4_random_trees():
    for seed in range(50):
        n = 4 + seed * 3
        g = gen_random_tree(n, seed)
        c = approx_tree_4(rooted(g))
        assert len(c) <= 2 * (n - 1)
        assert validate_completion(g, c, CoverSpec(4, 1)).ok
        assert validate_completion(g, c, CoverSpec(3, 2)).ok


def test_approx_tree_4_deterministic():
    g = gen_random_tree(40, 11)
    assert list(approx_tree_4(rooted(g))) == list(approx_tree_4(rooted(g)))


def test_approx_tree_4_counted_heap_work_scales_per_doubling(monkeypatch):
    # A deterministic stand-in for a doubling-time test: every heap push and
    # pop in kcover.trees is counted (approx_tree_4's depth buckets and child
    # heaps, and the forest pool's heaps in phase two).  O(n log n) work grows
    # at most 2.2x per doubling of n here; on these inputs it is 1.99-2.01x.
    counts = Counter()
    monkeypatch.setattr(trees, "heapq", counting_heapq(counts))
    for family in (lambda n: gen_random_tree(n, 7), lambda n: worst_case_spider(n + 1)):
        work = []
        for n in (10_000, 20_000, 40_000):
            t = rooted(family(n))
            counts.clear()
            approx_tree_4(t)
            work.append((counts["push"], counts["pop"]))
        assert min(work[0]) > 0
        for small, large in zip(work, work[1:]):
            assert all(b <= 2.2 * a for a, b in zip(small, large)), work


def _lying_depths(seed: int) -> RootedTree:
    """A rooted random tree on 6-40 vertices with two non-root depths swapped."""
    rng = random.Random(seed)
    t = rooted(gen_random_tree(6 + seed % 35, seed))
    a, b = rng.sample(range(1, t.base.n), 2)
    depth = list(t.depth)
    depth[a], depth[b] = depth[b], depth[a]
    return RootedTree(t.base, t.parent, tuple(depth))


def test_tree_solvers_refuse_or_stay_valid_when_the_depth_order_lies():
    # Peeling from the deepest vertex up relies on the depth order.  When it
    # lies, a vertex may leave the residual tree while it keeps a live child;
    # the solvers must then raise AssertionError, never return a bad result.
    raised = 0
    for seed in range(400):
        t = _lying_depths(seed)
        g, n = t.base, t.base.n
        checks = (
            (p3_partition, lambda out: len(out) == math.ceil((n - 1) / 2)
             and valid_p3_partition(t, out)),
            (optimal_tree_31, lambda out: len(out) == math.ceil((n - 1) / 2)
             and validate_completion(g, out, CoverSpec(3, 1)).ok),
            (approx_tree_4, lambda out: len(out) <= 2 * (n - 1)
             and validate_completion(g, out, CoverSpec(4, 1)).ok),
        )
        for solve, valid in checks:
            try:
                out = solve(t)
            except AssertionError:
                raised += 1
                continue
            assert valid(out), (seed, solve.__name__)
    assert raised > 0


def _best_of(times: int, fn) -> float:
    best = math.inf
    for _ in range(times):
        gc.collect()
        gc.disable()
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
        gc.enable()
    return best


def test_k_clique_approximations_are_3_l_completions_on_trees():
    """The paper's (3, k-2) tree claim, checked against the oracle.

    Every edge of a k-clique lies in k-2 of its triangles, so approx_tree_4
    output is a (3,2) completion and approx_tree_k(k=l+2) output a (3,l) one.
    Their size stays within twice the oracle's (3,l) optimum here.  The 2 is
    an empirical constant for these small trees (the worst ratio seen is
    1.25), not the paper's approximation factor.
    """
    for n in (6, 7, 8):
        for seed in range(15):
            g = gen_random_tree(n, seed)
            t = rooted(g)
            for l, c in ((2, approx_tree_4(t)), (3, approx_tree_k(t, 5))):
                spec = CoverSpec(3, l)
                assert validate_completion(g, c, spec).ok
                opt = brute_min_completion(g, spec, OracleBudget(max_additions=16))
                assert opt.ok and len(c) <= 2 * len(opt.completion)


def test_optimal_tree_31_linear_time_smoke():
    t = rooted(path_graph(1_000_000))
    assert _best_of(2, lambda: optimal_tree_31(t)) < 5.0


def test_approx_tree_4_scaling_smoke():
    # O(n log n)-consistent: time at most ~2.2x per doubling, with slack for
    # interpreter noise on a shared machine.
    timed = []
    for n in (250_000, 500_000, 1_000_000):
        t = rooted(gen_random_tree(n, 7))
        timed.append(_best_of(2, lambda: approx_tree_4(t)))
    assert timed[1] / timed[0] < 2.6
    assert timed[2] / timed[1] < 2.6
