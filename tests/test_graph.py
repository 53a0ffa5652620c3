import random

import pytest

from kcover import (
    CompletionSet,
    CoverSpec,
    Graph,
    InputError,
    apply_completion,
    check_chordal,
    find_bridges,
    gen_random_tree,
    norm_edge,
    unsaturated_edges,
    validate_completion,
)
from kcover.graph import _count_cliques

from helpers import (
    brute_bridges,
    brute_is_chordal,
    complete_graph,
    cycle_graph,
    nonedges,
    path_graph,
    star_graph,
)


def _random_graph(n: int, extra: int, seed: int) -> Graph:
    """Random tree plus up to `extra` chords; connected by construction."""
    rng = random.Random(seed)
    g = gen_random_tree(n, seed)
    pool = nonedges(g)
    rng.shuffle(pool)
    return Graph(n, list(g.edges) + pool[:extra])


def _cliques_on_edge(g: Graph, e: tuple[int, int], k: int, cap: int) -> int:
    """k-cliques of g holding edge e, counted up to cap the way the package counts them."""
    nbr = [set(a) for a in g.adj]
    return _count_cliques(nbr, nbr[e[0]] & nbr[e[1]], k - 2, cap)


def test_norm_edge_orders_endpoints():
    assert norm_edge(2, 0) == (0, 2)
    assert norm_edge(0, 2) == (0, 2)
    with pytest.raises(InputError):
        norm_edge(1, 1)


def test_graph_construction_rejects_bad_edges():
    with pytest.raises(InputError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(InputError):
        Graph(3, [(0, 3)])
    with pytest.raises(InputError):
        Graph(3, [(-1, 0)])
    with pytest.raises(InputError):
        Graph(2, [(0, 0)])


def test_graph_basic_accessors():
    g = Graph(4, [(2, 1), (0, 1), (1, 3)])
    assert g.m == 3
    assert g.edge_list() == [(0, 1), (1, 2), (1, 3)]
    assert g.adj[1] == (0, 2, 3)
    assert g.has_edge(3, 1) and not g.has_edge(0, 3)


def test_graph_equality_and_hash_ignore_edge_order():
    a = Graph(3, [(0, 1), (1, 2)])
    b = Graph(3, [(2, 1), (1, 0)])
    assert a == b and hash(a) == hash(b)
    assert a != Graph(4, [(0, 1), (1, 2)])


def test_add_and_remove_edges_round_trip():
    g = path_graph(4)
    bigger = Graph(4, list(g.edges) + [(0, 2), (0, 3)])
    assert bigger.m == 5
    assert bigger.without_edges([(0, 2), (0, 3)]) == g
    with pytest.raises(InputError):
        g.without_edges([(0, 2)])


def test_components_and_connectivity():
    g = Graph(5, [(0, 1), (3, 4)])
    assert g.components() == [[0, 1], [2], [3, 4]]
    assert not g.is_connected()
    assert path_graph(5).is_connected()
    assert Graph(1, []).is_connected()


def test_completion_set_keeps_order_and_rejects_duplicates():
    c = CompletionSet([(2, 0), (0, 1)])
    assert list(c) == [(0, 2), (0, 1)]
    assert (0, 2) in c and (2, 0) not in c and len(c) == 2
    with pytest.raises(InputError):
        CompletionSet([(0, 1), (1, 0)])


def test_cover_spec_bounds():
    assert CoverSpec(3, 1).k == 3
    with pytest.raises(InputError):
        CoverSpec(2, 1)
    with pytest.raises(InputError):
        CoverSpec(3, 0)


def test_triangle_vertices_examples():
    # the triangles of an edge are its endpoints' common neighbours
    assert _cliques_on_edge(complete_graph(3), (0, 1), 3, cap=9) == 1
    assert _cliques_on_edge(path_graph(3), (0, 1), 3, cap=9) == 0
    assert _cliques_on_edge(complete_graph(4), (0, 1), 3, cap=9) == 2


def test_count_k_cliques_on_edge_examples():
    assert _cliques_on_edge(complete_graph(3), (0, 1), 3, cap=2) == 1
    assert _cliques_on_edge(complete_graph(4), (0, 1), 3, cap=5) == 2
    assert _cliques_on_edge(path_graph(3), (0, 1), 3, cap=1) == 0
    assert _cliques_on_edge(complete_graph(4), (0, 1), 4, cap=2) == 1
    assert _cliques_on_edge(complete_graph(5), (0, 1), 4, cap=10) == 3


def test_count_k_cliques_respects_cap():
    # K6 has C(4, 1) = 4 triangles per edge but the count stops at the cap.
    assert _cliques_on_edge(complete_graph(6), (0, 1), 3, cap=2) == 2


def test_triangle_count_matches_triangle_vertices():
    for seed in range(30):
        g = _random_graph(8, 6, seed)
        for u, v in g.edge_list():
            others = [w for w in range(g.n) if w not in (u, v)]
            want = sum(g.has_edge(u, w) and g.has_edge(v, w) for w in others)
            assert _cliques_on_edge(g, (u, v), 3, cap=10**6) == want


def test_unsaturated_edges_examples():
    assert unsaturated_edges(complete_graph(4), CoverSpec(3, 2)) == []
    assert unsaturated_edges(star_graph(4), CoverSpec(3, 1)) == [(0, 1), (0, 2), (0, 3)]
    assert unsaturated_edges(Graph(2, []), CoverSpec(3, 1)) == []


def test_adding_edges_never_hurts_original_edges():
    spec = CoverSpec(3, 1)
    for seed in range(25):
        g = _random_graph(7, 4, seed)
        free = nonedges(g)
        if not free:
            continue
        before = set(unsaturated_edges(g, spec))
        after = set(unsaturated_edges(Graph(g.n, list(g.edges) + free[:1]), spec))
        assert after & set(g.edges) <= before


def test_apply_completion():
    g = path_graph(3)
    done = apply_completion(g, CompletionSet([(0, 2)]))
    assert done == complete_graph(3)
    assert apply_completion(g, CompletionSet([])) == g
    with pytest.raises(InputError):
        apply_completion(g, CompletionSet([(0, 1)]))


def test_validate_completion_examples():
    spec = CoverSpec(3, 1)
    ok = validate_completion(path_graph(3), CompletionSet([(0, 2)]), spec)
    assert ok.ok and ok.connected and ok.violations == ()

    bad = validate_completion(path_graph(3), CompletionSet([]), spec)
    assert not bad.ok and bad.violations == ((0, 1), (1, 2))

    star = validate_completion(star_graph(4), CompletionSet([(1, 2), (1, 3)]), spec)
    assert star.ok


def test_validate_completion_flags_disconnected_result():
    g = Graph(4, [(0, 1), (2, 3)])
    res = validate_completion(g, CompletionSet([]), CoverSpec(3, 1))
    assert not res.ok and not res.connected


def test_find_bridges_examples():
    assert find_bridges(path_graph(5)) == [(0, 1), (1, 2), (2, 3), (3, 4)]
    assert find_bridges(cycle_graph(4)) == []
    g = Graph(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
    assert find_bridges(g) == [(0, 3)]


def test_find_bridges_matches_brute_force():
    for seed in range(40):
        g = _random_graph(4 + seed % 7, seed % 5, seed)
        assert sorted(find_bridges(g)) == brute_bridges(g)


def _is_peo(g: Graph, order: list[int]) -> bool:
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        later = [w for w in g.adj[v] if pos[w] > pos[v]]
        for i in range(len(later)):
            for j in range(i + 1, len(later)):
                if not g.has_edge(later[i], later[j]):
                    return False
    return True


def test_check_chordal_examples():
    assert check_chordal(path_graph(6)).is_chordal
    assert check_chordal(complete_graph(4)).is_chordal
    assert check_chordal(complete_graph(4).without_edges([(0, 1)])).is_chordal
    for n in (4, 5, 6):
        res = check_chordal(cycle_graph(n))
        assert not res.is_chordal
        assert res.certificate is not None


def test_chordal_certificate_is_a_vertex():
    # On failure the certificate names a vertex whose later neighbors in the
    # attempted elimination order are not mutually adjacent.
    for n in (4, 5, 6):
        res = check_chordal(cycle_graph(n))
        assert not res.is_chordal and res.elimination_order is None
        assert res.certificate in range(n)


def test_check_chordal_matches_brute_force():
    for seed in range(60):
        g = _random_graph(4 + seed % 4, seed % 6, seed)
        res = check_chordal(g)
        assert res.is_chordal == brute_is_chordal(g)
        if res.is_chordal:
            assert _is_peo(g, list(res.elimination_order))
        else:
            assert res.certificate is not None
