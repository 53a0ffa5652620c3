"""End-to-end acceptance suite.

One test per criterion; each prints a single "ACCEPTANCE <n> <name>: PASS"
line with its measured detail (run pytest with -s to see them).  A failed
assertion inside a test is that criterion's FAIL.
"""

import gc
import math
import random
import time
from collections import Counter

import pytest

from kcover import (
    CompletionSet,
    CoverSpec,
    OracleBudget,
    SetCoverInstance,
    apply_completion,
    approx_tree_4,
    approx_tree_k,
    brute_min_completion,
    brute_min_setcover,
    build_setcover_k,
    build_setcover_k3,
    build_spider,
    check_chordal,
    completion_from_cover,
    completion_from_partition,
    enumerate_labeled_trees,
    extract_set_cover,
    gen_random_3partition,
    gen_random_chordal,
    gen_random_setcover,
    gen_random_tree,
    goodify_3,
    goodify_k,
    optimal_chordal_31,
    optimal_tree_31,
    partition_from_edge_partition,
    spider_leg_edges,
    unsaturated_item_targets,
    validate_completion,
    worst_case_spider,
)

from kcover import graph

from helpers import common_neighbours, counting_heapq, pad_with_decoys, random_cover, rooted

SPEC31 = CoverSpec(3, 1)
FIG = SetCoverInstance(3, [frozenset({0, 1}), frozenset({1, 2}), frozenset({2})])
MICRO = SetCoverInstance(1, [frozenset({0})])


def _report(num: int, name: str, detail: str = "") -> None:
    line = f"ACCEPTANCE {num} {name}: PASS"
    if detail:
        line += f" ({detail})"
    print(line)


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


@pytest.fixture(scope="module")
def tree_corpus():
    """Every labeled tree on 3..7 vertices with its oracle-optimal completion."""
    corpus: dict[int, list[tuple[object, CompletionSet]]] = {}
    for n in range(3, 8):
        entries = []
        for g in enumerate_labeled_trees(n):
            res = brute_min_completion(g, SPEC31)
            assert res.ok, f"oracle gave up on an n={n} tree"
            entries.append((g, res.completion))
        corpus[n] = entries
    return corpus


def test_criterion_1_tree_optimality(tree_corpus):
    started = time.perf_counter()
    checked = 0
    for n, entries in tree_corpus.items():
        want = math.ceil((n - 1) / 2)
        for g, oracle_completion in entries:
            mine = optimal_tree_31(rooted(g))
            assert len(mine) == want == len(oracle_completion)
            assert validate_completion(g, mine, SPEC31).ok
            checked += 1
    for n in (8, 9):
        want = math.ceil((n - 1) / 2)
        for trial in range(1000):
            g = gen_random_tree(n, 10_000 * n + trial)
            mine = optimal_tree_31(rooted(g))
            res = brute_min_completion(g, SPEC31)
            assert res.ok
            assert len(mine) == want == len(res.completion)
            assert validate_completion(g, mine, SPEC31).ok
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    _report(1, "tree optimality", f"{checked} trees, {elapsed:.1f}s")


def test_criterion_2_chordal_optimality():
    for seed in range(200):
        n = 4 + seed % 6
        width = 1 + seed % min(3, n - 1)
        g = gen_random_chordal(n, width, seed)
        mine = optimal_chordal_31(g)
        res = brute_min_completion(g, SPEC31)
        assert res.ok
        assert len(mine) == len(res.completion)
        assert validate_completion(g, mine, SPEC31).ok

    timed = []
    for n in (10_000, 20_000, 40_000):
        g = gen_random_chordal(n, 3, 11)
        timed.append(_best_of(3, lambda: optimal_chordal_31(g)))
    assert timed[1] / timed[0] <= 2.5
    assert timed[2] / timed[1] <= 2.5
    _report(
        2,
        "chordal optimality",
        f"200 instances exact; doubling x{timed[1] / timed[0]:.2f}, x{timed[2] / timed[1]:.2f}",
    )


def test_check_chordal_counted_heap_work_scales_per_doubling(monkeypatch):
    # A deterministic stand-in for criterion 2's wall-clock doubling: every
    # heap push and pop of check_chordal's maximum cardinality search is
    # counted.  It grows at most 2.2x per doubling of n here; on these inputs
    # the pushes grow 2.00x.
    counts = Counter()
    monkeypatch.setattr(graph, "heapq", counting_heapq(counts))
    work = []
    for n in (10_000, 20_000, 40_000):
        g = gen_random_chordal(n, 3, 11)
        counts.clear()
        assert check_chordal(g).is_chordal
        work.append((counts["push"], counts["pop"]))
    assert min(work[0]) > 0
    for small, large in zip(work, work[1:]):
        assert all(b <= 2.2 * a for a, b in zip(small, large)), work


def test_find_bridges_counted_scans_scale_per_doubling():
    # A deterministic stand-in for a doubling-time test of the bridge search:
    # every neighbour entry its iterators yield is counted, through rows of a
    # tuple subclass.  It grows at most 2.2x per doubling of n here; on these
    # inputs it is 2m, which grows 2.00x.
    scanned = Counter()

    class CountedRow(tuple):
        def __iter__(self):
            for w in tuple.__iter__(self):
                scanned["entry"] += 1
                yield w

    work = []
    for n in (10_000, 20_000, 40_000):
        g = gen_random_chordal(n, 3, 11)
        plain = graph.find_bridges(g)
        g.adj = tuple(map(CountedRow, g.adj))
        scanned.clear()
        assert graph.find_bridges(g) == plain
        assert scanned["entry"] >= 2 * g.m  # every edge is scanned from both ends
        work.append(scanned["entry"])
    for small, large in zip(work, work[1:]):
        assert large <= 2.2 * small, work


def test_criterion_3_k_approximation_ratio(tree_corpus):
    checked = 0
    for k in (5, 6, 7):
        for n in range(2 * k, 301):
            bound = (8 / 3) * (n - 1) * (k - 2) / 2
            for trial in range(100):
                g = gen_random_tree(n, 1_000_000 * k + 1_000 * n + trial)
                assert len(approx_tree_k(rooted(g), k)) <= bound
                checked += 1

    # small-n cross-check against the exact oracle at k=5
    spec5 = CoverSpec(5, 1)
    budget = OracleBudget(max_additions=16, max_nodes=50_000_000)
    small = 0
    for g, _ in tree_corpus[5] + tree_corpus[6]:
        res = brute_min_completion(g, spec5, budget)
        assert res.ok
        assert len(approx_tree_k(rooted(g), 5)) <= (8 / 3) * len(res.completion)
        small += 1
    for n in (7, 8, 9):
        for trial in range(100):
            g = gen_random_tree(n, 555_000 + 100 * n + trial)
            res = brute_min_completion(g, spec5, budget)
            assert res.ok
            assert len(approx_tree_k(rooted(g), 5)) <= (8 / 3) * len(res.completion)
            small += 1
    _report(3, "k-clique approximation ratio", f"{checked} grid runs + {small} oracle checks")


def test_criterion_4_four_clique_bounds():
    rng = random.Random(4)
    for _ in range(1000):
        n = rng.randint(4, 500)
        g = gen_random_tree(n, rng.randrange(10**9))
        c = approx_tree_4(rooted(g))
        assert len(c) <= 2 * (n - 1)
    for _ in range(50):
        n = rng.randint(500, 1200)
        g = gen_random_tree(n, rng.randrange(10**9))
        c = approx_tree_4(rooted(g))
        assert len(c) <= 1.26 * (n - 1)

    ratios = {}
    for n in (15, 99, 1001):
        spider = worst_case_spider(n)
        c = approx_tree_4(rooted(spider))
        assert validate_completion(spider, c, CoverSpec(4, 1)).ok
        ratios[n] = len(c) / (n - 1)
        assert ratios[n] <= 2.0
    assert ratios[1001] <= 1.26
    detail = ", ".join(f"spider n={n} ratio {r:.4f}" for n, r in ratios.items())
    _report(4, "four-clique bounds", detail)


def _item_target_set(rg) -> set[tuple[int, int]]:
    if rg.k == 3:
        return {(v, rg.common) for ids in rg.item_ids for v in ids}
    return set(rg.item_ids)


def test_criterion_5_reduction_fidelity():
    checked = 0
    for idx in range(51):
        if idx == 0:
            inst = FIG
        else:
            inst = gen_random_setcover(1 + idx % 4, 1 + (idx // 4) % 4, seed=idx)
        for k in (3, 4):
            rg = build_setcover_k3(inst) if k == 3 else build_setcover_k(inst, k)
            assert set(unsaturated_item_targets(rg)) == _item_target_set(rg)
            cover = brute_min_setcover(inst)
            completion = completion_from_cover(rg, cover)
            assert len(completion) == len(cover)
            assert validate_completion(rg.graph, completion, CoverSpec(k, 1)).ok
            checked += 1
    _report(5, "reduction fidelity", f"{checked} construction checks")


def test_criterion_6_goodification():
    rng = random.Random(6)
    for k in (3, 4):
        spec = CoverSpec(k, 1)
        for trial in range(500):
            inst = gen_random_setcover(1 + trial % 4, 1 + (trial // 4) % 4, seed=trial)
            rg = build_setcover_k3(inst) if k == 3 else build_setcover_k(inst, k)
            base = completion_from_cover(rg, random_cover(inst, rng))
            c = pad_with_decoys(rg, base, rng, spec)
            assert validate_completion(rg.graph, c, spec).ok
            out = goodify_3(rg, c) if k == 3 else goodify_k(rg, c, k)
            assert set(out) <= set(rg.anchor_edges())
            assert validate_completion(rg.graph, out, spec).ok
            assert len(out) <= len(c)
            cover = extract_set_cover(rg, out)
            covered = set().union(*(inst.sets[j] for j in cover))
            assert covered == set(range(inst.universe_size))
    _report(6, "goodification", "500 trials per construction, zero violations")


def test_criterion_7_spider_reduction():
    cases = 0
    for idx in range(20):
        p = 1 + idx % 3
        s = (7, 9, 10, 11, 12)[idx % 5]
        inst, witness = gen_random_3partition(p, s, seed=idx)
        assert witness is not None
        spider = build_spider(inst)
        completion = completion_from_partition(inst, spider, witness)
        assert len(completion) == p * s * (s - 1) // 2
        assert validate_completion(spider, completion, CoverSpec(s + 1, 1)).ok
        groups = [
            [e for leg in triple for e in spider_leg_edges(inst, leg)]
            for triple in witness
        ]
        assert partition_from_edge_partition(inst, spider, groups) == witness
        cases += 1
    _report(7, "spider reduction", f"{cases} YES instances")


def test_criterion_8_micro_equivalence():
    assert len(brute_min_setcover(MICRO)) == 1

    rg3 = build_setcover_k3(MICRO)
    res3 = brute_min_completion(rg3.graph, CoverSpec(3, 1))
    assert res3.ok and len(res3.completion) == 1

    rg4 = build_setcover_k(MICRO, 4)
    res4 = brute_min_completion(rg4.graph, CoverSpec(4, 1))
    assert res4.ok and len(res4.completion) == 1
    _report(8, "micro equivalence", "completion OPT = cover OPT = 1 for k=3,4")


def test_criterion_9_triangle_necessity(tree_corpus):
    additions = 0
    for entries in tree_corpus.values():
        for g, completion in entries:
            done = apply_completion(g, completion)
            for u, v in completion:
                assert any(
                    g.has_edge(u, w) or g.has_edge(v, w)
                    for w in common_neighbours(done, u, v)
                ), "an oracle-optimal addition forms no triangle with a tree edge"
                additions += 1
    _report(9, "triangle necessity", f"{additions} oracle-optimal additions checked")
