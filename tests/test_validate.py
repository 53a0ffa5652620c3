"""validate_completion against the independent slow checker in helpers.py."""

import hashlib
import random

import pytest

from kcover import (
    CompletionSet,
    CoverSpec,
    Graph,
    InputError,
    apply_completion,
    approx_tree_4,
    approx_tree_k,
    build_setcover_k,
    build_setcover_k3,
    completion_from_cover,
    gen_random_chordal,
    gen_random_setcover,
    gen_random_tree,
    optimal_chordal_31,
    optimal_tree_31,
    unsaturated_edges,
    validate_completion,
    validate_pairs,
)

from kcover import graph

from helpers import nonedges, rooted, slow_validate

ORDERS = (3, 4, 5, 6)
MULTIPLICITIES = (1, 2, 3)

# sha256 of the verdicts of validate_pairs, validate_completion and
# unsaturated_edges on the cases of _cover_check_cases below at every k in
# ORDERS and l in MULTIPLICITIES, recorded before the clique scan's special
# routes were cut; any rewrite of the scan must reproduce it.
GOLDEN_COVER_CHECK_SHA256 = "42f3ea7004a8d7ad6b7b85e894df76f92db374fabc0062fb60eca1b795b534ea"

# sha256 of the verdicts of validate_pairs and validate_completion on the
# cases of _large_check_cases below, recorded while the check still held
# neighbour sets; a new neighbour store must reproduce it.
GOLDEN_LARGE_CHECK_SHA256 = "2d7b66339e69a4a1cf49d9c302162ecb126a1ab0e1731ae3490e08f24f08cf78"


def _disjoint(a: Graph, b: Graph) -> Graph:
    return Graph(a.n + b.n, list(a.edges) + [(u + a.n, v + a.n) for u, v in b.edges])


def _instances():
    """(graph, completions that some solver or gadget says are valid)."""
    for n in (1, 2, 5, 8, 11):
        for seed in range(3):
            g = gen_random_tree(n, seed)
            solved = []
            if n >= 4:
                t = rooted(g)
                solved = [optimal_tree_31(t), approx_tree_4(t)]
                solved += [approx_tree_k(t, k) for k in (5, 6) if n >= k]
            yield g, solved
    for n, width in ((6, 2), (8, 3), (10, 4)):
        for seed in range(2):
            g = gen_random_chordal(n, width, seed)
            yield g, [optimal_chordal_31(g)]
    for seed in range(2):
        inst = gen_random_setcover(2 + seed, 2 + seed, 0.5, seed)
        for k in ORDERS:
            rg = build_setcover_k3(inst) if k == 3 else build_setcover_k(inst, k)
            yield rg.graph, [completion_from_cover(rg, range(rg.set_count))]
    for seed in range(3):
        yield _disjoint(gen_random_tree(4, seed), gen_random_tree(5, seed + 10)), []
        tree = gen_random_tree(9, seed)
        yield tree.without_edges([tree.edge_list()[seed]]), []
    yield Graph(0), []
    yield Graph(3), []


def _completions(g: Graph, solved: list[CompletionSet], rng: random.Random):
    free = nonedges(g)
    yield CompletionSet()
    for c in solved:
        yield c
        pairs = list(c)
        if pairs:
            del pairs[rng.randrange(len(pairs))]
            yield CompletionSet(pairs)
    for _ in range(2):
        yield CompletionSet(rng.sample(free, rng.randint(0, min(len(free), 2 * g.n))))
    if g.n <= 10:
        yield CompletionSet(free)


def test_validate_completion_matches_slow_checker():
    rng = random.Random(2025)
    seen = {"ok": 0, "failing": 0, "disconnected": 0}
    for g, solved in _instances():
        for c in _completions(g, solved, rng):
            for k in ORDERS:
                for l in MULTIPLICITIES:
                    want = slow_validate(g, c, k, l)
                    assert validate_completion(g, c, CoverSpec(k, l)) == want, (g, c, k, l)
                    seen["ok" if want.ok else "failing"] += 1
                    seen["disconnected"] += not want.connected
    assert min(seen.values()) >= 100, seen


def test_validate_completion_rejects_bad_additions():
    g = Graph(4, [(0, 1), (1, 2)])
    with pytest.raises(InputError, match=r"^addition \(2, 4\) out of range for n=4$"):
        validate_completion(g, CompletionSet([(0, 2), (2, 4)]), CoverSpec(3, 1))
    with pytest.raises(InputError, match=r"^addition \(1, 2\) is already an edge$"):
        validate_completion(g, CompletionSet([(0, 3), (2, 1)]), CoverSpec(3, 1))


def test_l1_check_searches_a_clique_once_for_all_its_edges(monkeypatch):
    # counted work: at l = 1 a clique found for one edge covers all its pairs,
    # so the top-level searches stay a fifth of the edges or fewer (6.7-11.1%
    # when this gate was set); one search per edge would be near 100%
    find = graph._find_clique
    searches = depth = 0

    def counting(nbr, cands, need):
        nonlocal searches, depth
        searches += depth == 0
        depth += 1
        try:
            return find(nbr, cands, need)
        finally:
            depth -= 1

    monkeypatch.setattr(graph, "_find_clique", counting)
    inst = gen_random_setcover(20, 20, 0.3, 1)
    tree = gen_random_tree(2000, 7)
    cases = [(build_setcover_k(inst, k), k) for k in (5, 6)]
    cases = [(rg.graph, CompletionSet(sorted(rg.anchor_edges())), k) for rg, k in cases]
    cases += [(tree, approx_tree_k(rooted(tree), k), k) for k in (5, 6)]
    for g, c, k in cases:
        searches = 0
        assert validate_completion(g, c, CoverSpec(k, 1)).ok
        assert searches <= 0.2 * (g.m + len(c)), (k, g.n, searches)


def _cover_check_cases():
    """(graph, completion): seeded trees and chordal graphs of 100-2,000
    vertices and the k = 4 and k = 6 SET COVER gadgets, each with a solver's
    or the anchors' completion and with a seeded half of it."""
    rng = random.Random(25)
    cases = []
    for n, seed in ((100, 1), (1000, 2)):
        g = gen_random_tree(n, seed)
        t = rooted(g)
        cases += [(g, c) for c in (optimal_tree_31(t), approx_tree_4(t))]
        cases += [(g, approx_tree_k(t, k)) for k in (5, 6)]
    for n, width, seed in ((300, 2, 3), (2000, 4, 4)):
        g = gen_random_chordal(n, width, seed)
        cases.append((g, optimal_chordal_31(g)))
    inst = gen_random_setcover(4, 4, 0.5, 5)
    for k in (4, 6):
        rg = build_setcover_k(inst, k)
        cases.append((rg.graph, completion_from_cover(rg, range(rg.set_count))))
    for g, c in cases:
        yield g, c
        pairs = list(c)
        yield g, CompletionSet(rng.sample(pairs, len(pairs) // 2))


def test_cover_check_golden_hash():
    h = hashlib.sha256()
    verdicts = {"ok": 0, "failing": 0}
    for g, c in _cover_check_cases():
        pairs, joined = g.edge_list(), apply_completion(g, c)
        for k in ORDERS:
            for l in MULTIPLICITIES:
                spec = CoverSpec(k, l)
                for check in (validate_pairs(g.n, pairs, c, spec), validate_completion(g, c, spec)):
                    h.update(f"{check.violations} {check.connected}\n".encode())
                    verdicts["ok" if not check.violations else "failing"] += 1
                h.update(f"{unsaturated_edges(joined, spec)}\n".encode())
    assert min(verdicts.values()) >= 20, verdicts
    assert h.hexdigest() == GOLDEN_COVER_CHECK_SHA256


def _large_check_cases():
    """(graph, completion, specs): a 4*10^4-vertex tree at k = 3 and 4 with
    the optimal (3,1) and the k = 4 completions, chordal graphs of 4*10^4
    vertices at widths 2-4 at k = 3, an 8*10^3-vertex tree at k = 5 and 6
    and at l = 2, and stars of 2*10^4 leaves centred at the lowest and at
    the highest id; each completion also with seeded 50% and 90% subsets."""
    rng = random.Random(27)
    cases = []
    g = gen_random_tree(40_000, 3)
    t = rooted(g)
    cases += [(g, c, [(3, 1), (4, 1)]) for c in (optimal_tree_31(t), approx_tree_4(t))]
    for width in (2, 3, 4):
        g = gen_random_chordal(40_000, width, width)
        cases.append((g, optimal_chordal_31(g), [(3, 1)]))
    g = gen_random_tree(8_000, 5)
    t = rooted(g)
    specs = [(5, 1), (6, 1), (3, 2), (4, 2)]
    cases += [(g, c, specs) for c in (approx_tree_4(t), approx_tree_k(t, 5), approx_tree_k(t, 6))]
    n = 20_001
    for centre in (0, n - 1):
        g = Graph(n, [(centre, v) for v in range(n) if v != centre])
        t = rooted(g)
        cases += [(g, c, [(3, 1), (4, 1)]) for c in (optimal_tree_31(t), approx_tree_4(t))]
    for g, c, specs in cases:
        pairs = list(c)
        for share in (100, 50, 90):
            yield g, CompletionSet(rng.sample(pairs, len(pairs) * share // 100)), specs


def test_large_check_golden_hash():
    h = hashlib.sha256()
    verdicts = {"ok": 0, "failing": 0}
    for g, c, specs in _large_check_cases():
        pairs = g.edge_list()
        for k, l in specs:
            spec = CoverSpec(k, l)
            for check in (validate_pairs(g.n, pairs, c, spec), validate_completion(g, c, spec)):
                h.update(f"{check.violations} {check.connected}\n".encode())
                verdicts["ok" if check.ok else "failing"] += 1
    assert min(verdicts.values()) >= 20, verdicts
    assert h.hexdigest() == GOLDEN_LARGE_CHECK_SHA256
