"""check_chordal against the two-pass heap search it replaced, find_bridges
against remove-and-count, the search's no-triangle edges and restarts against
a scan of every edge and the component count, the clique counter against a
count over itertools.combinations and the clique finder against the counter,
on arbitrary small graphs; and the no-triangle edges against find_bridges on
relabelled chordal graphs."""

from itertools import combinations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from kcover import Graph, check_chordal, find_bridges, gen_random_chordal
from kcover.graph import _count_cliques, _find_clique, cardinality_search

from helpers import brute_bridges, heap_check_chordal, permuted


@settings(max_examples=600, deadline=None, derandomize=True)
@given(n=st.integers(0, 12), data=st.data())
def test_searches_match_their_references_property(n, data):
    pairs = list(combinations(range(n), 2))
    present = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph(n, [p for p, keep in zip(pairs, present) if keep])
    assert check_chordal(g) == heap_check_chordal(g)
    assert find_bridges(g) == brute_bridges(g)
    search = cardinality_search(g)
    assert search.restarts == len(g.components())
    # the edges whose ends share no neighbour; the search finds them all when
    # the graph is chordal, and only such edges on any graph
    lonely = [(u, v) for u, v in g.edge_list() if set(g.adj[u]).isdisjoint(g.adj[v])]
    if search.certificate is None:
        assert search.no_triangle == lonely
    else:
        assert set(search.no_triangle) <= set(lonely)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(n=st.integers(3, 60), width=st.integers(1, 4), seed=st.integers(0, 10**6))
def test_no_triangle_edges_are_the_bridges_of_chordal_graphs_property(n, width, seed):
    g = permuted(gen_random_chordal(n, min(width, n - 1), seed), seed)
    search = cardinality_search(g)
    assert search.certificate is None and search.restarts == 1
    assert search.no_triangle == find_bridges(g)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    n=st.integers(0, 10), need=st.integers(1, 4), cap=st.integers(1, 4), data=st.data()
)
def test_count_cliques_matches_combinations_property(n, need, cap, data):
    pairs = list(combinations(range(n), 2))
    present = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    nbr = {v: set() for v in range(n)}
    for (u, v), keep in zip(pairs, present):
        if keep:
            nbr[u].add(v)
            nbr[v].add(u)
    cands = data.draw(st.sets(st.integers(0, n - 1))) if n else set()
    count = sum(
        all(b in nbr[a] for a, b in combinations(sub, 2))
        for sub in combinations(sorted(cands), need)
    )
    assert _count_cliques(nbr, cands, need, cap) == min(count, cap)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    n=st.integers(0, 10), need=st.integers(1, 5), quarters=st.integers(1, 4), data=st.data()
)
def test_find_clique_agrees_with_the_counter_property(n, need, quarters, data):
    # each pair is an edge with probability quarters / 4, so that cliques of
    # five candidates occur as well as none
    pairs = list(combinations(range(n), 2))
    present = data.draw(st.lists(st.integers(0, 3), min_size=len(pairs), max_size=len(pairs)))
    nbr = {v: set() for v in range(n)}
    for (u, v), draw in zip(pairs, present):
        if draw < quarters:
            nbr[u].add(v)
            nbr[v].add(u)
    cands = data.draw(st.sets(st.integers(0, n - 1))) if n else set()
    found = _find_clique(nbr, cands, need)
    if _count_cliques(nbr, cands, need, 1) == 0:
        assert found is None
    else:
        assert found is not None and len(found) == len(set(found)) == need
        assert set(found) <= cands
        assert all(b in nbr[a] for a, b in combinations(found, 2))
