import hashlib
import math
import random

import pytest

from kcover import (
    CompletionSet,
    CoverSpec,
    Graph,
    InconclusiveError,
    InputError,
    OracleBudget,
    SetCoverInstance,
    brute_min_completion,
    brute_min_setcover,
    gen_random_chordal,
    gen_random_tree,
    validate_completion,
)

from kcover import oracle
from kcover.oracle import deepening_start

from helpers import (
    complete_graph,
    naive_min_completion,
    nonedges,
    path_graph,
    star_graph,
)

FIG = SetCoverInstance(3, [frozenset({0, 1}), frozenset({1, 2}), frozenset({2})])

# sha256 of the oracle's verdicts over the exact-small corpus, recorded before
# the search was pruned; any change to a verdict or completion moves it
GOLDEN_ORACLE_SHA256 = "b97ce5235ae8bd4ebfeffd4d8ee895bbdac9a219cf129c699e4a85452dd7abf3"


def test_oracle_on_path_three():
    res = brute_min_completion(path_graph(3), CoverSpec(3, 1))
    assert res.status == "optimal" and res.ok
    assert list(res.completion) == [(0, 2)]
    assert res.nodes >= 1


def test_oracle_on_path_five():
    res = brute_min_completion(path_graph(5), CoverSpec(3, 1))
    assert res.ok and len(res.completion) == 2


def test_oracle_on_star():
    res = brute_min_completion(star_graph(4), CoverSpec(3, 1))
    assert res.ok and set(res.completion) == {(1, 2), (1, 3)}
    res4 = brute_min_completion(star_graph(4), CoverSpec(4, 1))
    assert res4.ok and len(res4.completion) == 3


def test_oracle_on_already_covered_graphs():
    res = brute_min_completion(complete_graph(4), CoverSpec(3, 2))
    assert res.ok and len(res.completion) == 0
    res = brute_min_completion(complete_graph(3), CoverSpec(3, 1))
    assert res.ok and len(res.completion) == 0


def test_oracle_rejects_bad_inputs():
    with pytest.raises(InputError):
        brute_min_completion(Graph(4, [(0, 1), (2, 3)]), CoverSpec(3, 1))
    with pytest.raises(InputError):
        brute_min_completion(path_graph(3), CoverSpec(4, 1))  # n < k


def test_oracle_budget_validation():
    with pytest.raises(InputError):
        OracleBudget(max_additions=0)
    with pytest.raises(InputError):
        OracleBudget(max_nodes=0)


def test_oracle_reports_inconclusive_on_exhausted_additions():
    res = brute_min_completion(
        star_graph(4), CoverSpec(3, 1), OracleBudget(max_additions=1)
    )
    assert res.status == "inconclusive" and not res.ok
    assert res.completion is None
    assert res.lower_bound == 2  # sizes 0 and 1 were fully refuted


def test_oracle_reports_inconclusive_on_node_cap():
    res = brute_min_completion(
        path_graph(3), CoverSpec(3, 1), OracleBudget(max_additions=4, max_nodes=1)
    )
    assert res.status == "inconclusive"
    assert res.lower_bound == 1  # only size 0 was fully refuted


def _random_connected(n: int, seed: int) -> Graph:
    rng = random.Random(seed)
    g = gen_random_tree(n, seed)
    pool = nonedges(g)
    rng.shuffle(pool)
    return Graph(n, list(g.edges) + pool[: rng.randint(0, 3)])


NAIVE_SPECS = tuple(
    CoverSpec(k, l) for k, l in ((3, 1), (3, 2), (4, 1), (5, 1), (4, 2), (3, 3))
)


def _feasible(n: int, spec: CoverSpec) -> bool:
    # in K_n every edge lies in C(n-2, k-2) k-cliques
    return n >= spec.k and math.comb(n - 2, spec.k - 2) >= spec.l


def _naive_cases():
    for seed in range(16):
        g = _random_connected(4 + seed % 3, seed)
        for spec in NAIVE_SPECS:
            if _feasible(g.n, spec):
                yield g, spec


def _disagreements_with_naive() -> int:
    # the oracle's budget is exactly the naive optimum, so it must prove that
    # size optimal without room for a larger completion
    wrong = 0
    for g, spec in _naive_cases():
        optimum = len(naive_min_completion(g, spec))
        res = brute_min_completion(g, spec, OracleBudget(max_additions=max(1, optimum)))
        wrong += not res.ok or len(res.completion) != optimum
        assert res.completion is None or validate_completion(g, res.completion, spec).ok
    return wrong


def test_oracle_matches_naive_enumeration():
    assert _disagreements_with_naive() == 0


def test_oracle_root_bound_is_admissible():
    for seed in range(12):
        g = _random_connected(3 + seed % 4, 100 + seed)
        for k in (3, 4, 5):
            for l in (1, 2, 3):
                spec = CoverSpec(k, l)
                if _feasible(g.n, spec):
                    assert deepening_start(g, spec) <= len(naive_min_completion(g, spec))


def test_oracle_with_an_inflated_bound_disagrees_with_naive(monkeypatch):
    # negative control: a bound one too high prunes optimal completions away,
    # and the naive comparison must notice
    exact = oracle._Search.lower_bound
    monkeypatch.setattr(oracle._Search, "lower_bound", lambda self, adj: exact(self, adj) + 1)
    assert _disagreements_with_naive() > 0


def test_oracle_node_count_on_a_nine_vertex_tree():
    # counted work: the unpruned search visits 605,335 nodes here
    res = brute_min_completion(
        gen_random_tree(9, 9002), CoverSpec(4, 2), OracleBudget(max_additions=16)
    )
    assert res.ok and len(res.completion) == 15
    assert res.nodes <= 300_000


def test_oracle_clique_threshold_search_stops_at_n(monkeypatch):
    # No edge of a 4-vertex graph lies in more than C(2, 1) = 2 triangles.
    # The search for c_min tries one candidate per comb call; counting up
    # to l = 3,000,000 would take seconds, so the wrapper stops it early.
    calls = []

    def counting_comb(n, k):
        calls.append(n)
        assert len(calls) <= 300, "the c_min search is counting up to l"
        return math.comb(n, k)

    monkeypatch.setattr(oracle, "comb", counting_comb)
    spec = CoverSpec(3, 3_000_000)
    # with c_min = n - 1 = 3 every vertex needs degree 4: (3 + 2 + 2 + 3) / 2
    assert deepening_start(path_graph(4), spec) == 5
    res = brute_min_completion(path_graph(4), spec, OracleBudget(max_additions=8))
    assert (res.status, res.lower_bound) == ("inconclusive", 9)


def test_oracle_respects_tree_lower_bound():
    # on a tree, any (k,1) completion has at least ceil((n-1)(k-2)/2) edges
    for seed in range(10):
        n = 6 + seed % 2
        g = gen_random_tree(n, seed)
        for k in (3, 4):
            res = brute_min_completion(g, CoverSpec(k, 1))
            assert res.ok
            assert len(res.completion) >= math.ceil((n - 1) * (k - 2) / 2)


def test_oracle_is_deterministic():
    g = _random_connected(6, 99)
    a = brute_min_completion(g, CoverSpec(3, 1))
    b = brute_min_completion(g, CoverSpec(3, 1))
    assert list(a.completion) == list(b.completion)


def test_setcover_oracle_examples():
    assert brute_min_setcover(FIG) == [0, 1]
    assert brute_min_setcover(SetCoverInstance(2, [frozenset({0, 1})])) == [0]
    disjoint = SetCoverInstance(3, [frozenset({0}), frozenset({1}), frozenset({2})])
    assert brute_min_setcover(disjoint) == [0, 1, 2]


def test_setcover_oracle_prefers_lexicographically_least():
    tie = SetCoverInstance(2, [frozenset({0, 1}), frozenset({0, 1})])
    assert brute_min_setcover(tie) == [0]
    shadowed = SetCoverInstance(2, [frozenset({0}), frozenset({0, 1}), frozenset({1})])
    assert brute_min_setcover(shadowed) == [1]


def test_setcover_oracle_refuses_oversized_instances():
    with pytest.raises(InconclusiveError):
        brute_min_setcover(FIG, max_sets=2)


def _exact_small_corpus():
    # the fixed corpus of perfbench's exact-small workload, at the same specs
    specs = ((3, 1), (4, 1), (5, 1), (3, 2), (4, 2))
    for n in (7, 8, 9):
        for i in range(3):
            for k, l in specs:
                if n == 7 or (k, l) != (4, 2):
                    yield gen_random_tree(n, 1000 * n + i), CoverSpec(k, l)
    for n in (6, 7, 8):
        for w in (2, 3):
            for i in range(3):
                g = gen_random_chordal(n, w, 1000 * n + 10 * w + i)
                for k, l in specs:
                    yield g, CoverSpec(k, l)


def test_oracle_golden_hash():
    h = hashlib.sha256()
    verdicts = 0
    for g, spec in _exact_small_corpus():
        res = brute_min_completion(g, spec, OracleBudget(max_additions=16))
        completion = sorted(res.completion) if res.completion is not None else None
        h.update(f"{res.status} {completion} {res.lower_bound}\n".encode())
        verdicts += 1
    assert verdicts == 129
    assert h.hexdigest() == GOLDEN_ORACLE_SHA256
