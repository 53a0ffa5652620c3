import math

import pytest

from kcover import (
    CoverSpec,
    Graph,
    InputError,
    apply_completion,
    brute_min_completion,
    decompose_trees,
    find_bridges,
    gen_random_chordal,
    gen_random_tree,
    optimal_chordal_31,
    optimal_tree_31,
    validate_completion,
)

from helpers import complete_graph, cycle_graph, path_graph, rooted

TRIANGLE_PENDANT = Graph(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
TWO_TRIANGLES = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3)])


def test_decompose_whole_tree():
    g = path_graph(5)
    d = decompose_trees(g)
    assert d.trees == ((0, 1, 2, 3, 4),)
    assert d.tree_edges == (((0, 1), (1, 2), (2, 3), (3, 4)),)
    assert not d.boundary and not d.outer
    assert sorted(d.interior) == [0, 1, 2, 3, 4]


def test_decompose_two_edge_connected_graph():
    d = decompose_trees(complete_graph(4))
    assert d.trees == ()
    assert sorted(d.outer) == [0, 1, 2, 3]


def test_decompose_triangle_with_pendant():
    d = decompose_trees(TRIANGLE_PENDANT)
    assert d.trees == ((0, 3),)
    assert sorted(d.boundary) == [0]
    assert sorted(d.interior) == [3]
    assert sorted(d.outer) == [1, 2]


def test_decompose_rejects_bad_inputs():
    with pytest.raises(InputError):
        decompose_trees(Graph(4, [(0, 1), (2, 3)]))
    with pytest.raises(InputError):
        decompose_trees(Graph(2, [(0, 1)]))


def test_decomposition_agrees_with_bridges():
    for seed in range(30):
        g = gen_random_chordal(6 + seed % 20, 1 + seed % 3, seed)
        d = decompose_trees(g)
        bridges = set(find_bridges(g))
        assert {e for grp in d.tree_edges for e in grp} == bridges
        on_bridge = {v for e in bridges for v in e}
        tree_vertices = {v for tr in d.trees for v in tr}
        assert tree_vertices == on_bridge
        assert set(d.outer) == set(range(g.n)) - on_bridge
        # each tree is connected and its vertex sets are pairwise disjoint
        assert sum(len(tr) for tr in d.trees) == len(tree_vertices)


def test_optimal_chordal_on_clique_needs_nothing():
    assert len(optimal_chordal_31(complete_graph(3))) == 0
    assert len(optimal_chordal_31(complete_graph(5))) == 0


def test_optimal_chordal_triangle_with_pendant():
    c = optimal_chordal_31(TRIANGLE_PENDANT)
    assert sorted(c) == [(1, 3)]
    assert validate_completion(TRIANGLE_PENDANT, c, CoverSpec(3, 1)).ok


def test_optimal_chordal_two_triangles_bridge():
    # the bridge is a 2-vertex tree whose both endpoints touch triangles
    c = optimal_chordal_31(TWO_TRIANGLES)
    assert sorted(c) == [(1, 3)]
    assert validate_completion(TWO_TRIANGLES, c, CoverSpec(3, 1)).ok


def test_optimal_chordal_matches_tree_solver_on_trees():
    for seed in range(20):
        n = 3 + seed
        g = gen_random_tree(n, seed)
        c = optimal_chordal_31(g)
        assert len(c) == len(optimal_tree_31(rooted(g))) == math.ceil((n - 1) / 2)
        assert validate_completion(g, c, CoverSpec(3, 1)).ok


def test_optimal_chordal_random_instances():
    for seed in range(40):
        g = gen_random_chordal(5 + seed % 25, 1 + seed % 3, seed)
        d = decompose_trees(g)
        c = optimal_chordal_31(g)
        assert validate_completion(g, c, CoverSpec(3, 1)).ok
        assert len(c) == sum(math.ceil((len(tr) - 1) / 2) for tr in d.trees)


def test_optimal_chordal_matches_oracle_on_tiny_instances():
    for seed in range(20):
        g = gen_random_chordal(4 + seed % 5, 1 + seed % 2, seed)
        c = optimal_chordal_31(g)
        best = brute_min_completion(g, CoverSpec(3, 1))
        assert best.ok and len(c) == len(best.completion)


def test_optimal_chordal_rejects_non_chordal_and_disconnected():
    with pytest.raises(InputError):
        optimal_chordal_31(cycle_graph(4))
    with pytest.raises(InputError):
        optimal_chordal_31(cycle_graph(5))
    with pytest.raises(InputError):
        optimal_chordal_31(Graph(4, [(0, 1), (2, 3)]))
    with pytest.raises(InputError):
        optimal_chordal_31(Graph(2, [(0, 1)]))


def test_chordal_additions_form_triangles_with_base_edges():
    for seed in range(20):
        g = gen_random_chordal(8, 2, seed)
        c = optimal_chordal_31(g)
        done = apply_completion(g, c)
        for u, v in c:
            assert any(
                done.has_edge(u, w) and done.has_edge(v, w)
                for w in range(g.n)
                if w not in (u, v)
            )
