from itertools import combinations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from kcover import (
    CompletionSet,
    CoverSpec,
    InputError,
    LabeledReductionGraph,
    OracleBudget,
    brute_min_completion,
    brute_min_setcover,
    build_setcover_k,
    build_setcover_k3,
    extract_set_cover,
    gen_random_setcover,
    goodify_3,
    goodify_k,
)


@settings(max_examples=16, deadline=None, derandomize=True)
@given(
    items=st.integers(3, 4),
    sets=st.integers(3, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_setcover_gadget_optimum_is_a_minimum_cover_property(items, sets, seed):
    # the hardness argument: a gadget's minimum completion has the size of a
    # minimum cover, and goodify turns it into anchor edges naming one
    inst = gen_random_setcover(items, sets, 0.3, seed)
    least = len(brute_min_setcover(inst))
    for k in (3, 4):
        rg = build_setcover_k3(inst) if k == 3 else build_setcover_k(inst, k)
        result = brute_min_completion(rg.graph, CoverSpec(k, 1), OracleBudget(max_additions=items))
        assert result.ok and len(result.completion) == least
        good = goodify_3(rg, result.completion) if k == 3 else goodify_k(rg, result.completion, k)
        anchors = rg.anchor_edges()
        assert len(good) == least and all(e in anchors for e in good)
        cover = extract_set_cover(rg, good)
        assert len(cover) == least
        assert set().union(*(inst.sets[j] for j in cover)) == set(range(items))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    items=st.integers(1, 3),
    sets=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    k=st.sampled_from((3, 4)),
    exchanges=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), min_size=1, max_size=3),
)
def test_goodify_follows_or_refuses_a_role_map_with_exchanged_roles(items, sets, seed, k, exchanges):
    # a role file is outside input: one whose roles no longer match the graph
    # must end in anchor edges or in InputError, never in a crash or a hang
    inst = gen_random_setcover(items, sets, 0.5, seed)
    rg = build_setcover_k3(inst) if k == 3 else build_setcover_k(inst, k)
    roles = list(rg.roles)
    for a, b in exchanges:
        a, b = a % len(roles), b % len(roles)
        roles[a], roles[b] = roles[b], roles[a]
    edited = LabeledReductionGraph.from_roles(rg.graph, roles, k)
    pairs = combinations(range(rg.graph.n), 2)
    every = CompletionSet(e for e in pairs if not rg.graph.has_edge(*e))
    try:
        good = goodify_3(edited, every) if k == 3 else goodify_k(edited, every, k)
    except InputError:
        return
    anchors = edited.anchor_edges()
    assert all(e in anchors for e in good)
