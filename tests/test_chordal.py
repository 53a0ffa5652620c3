import hashlib
import math
from collections import Counter

import pytest

from kcover import (
    CoverSpec,
    Graph,
    InputError,
    apply_completion,
    brute_min_completion,
    check_chordal,
    decompose_trees,
    find_bridges,
    gen_random_chordal,
    gen_random_tree,
    optimal_chordal_31,
    optimal_tree_31,
    p3_partition,
    validate_completion,
    worst_case_spider,
)
from kcover import chordal, graph
from kcover.cli import main
from kcover.io import format_completion, write_graph

from helpers import complete_graph, counting_heapq, cycle_graph, path_graph, permuted, rooted

TRIANGLE_PENDANT = Graph(4, [(0, 1), (1, 2), (0, 2), (0, 3)])
TWO_TRIANGLES = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3)])

# sha256 of the (3,1) outputs listed by _31_outputs below, recorded before the
# tree solver's partition order was rewritten; any rewrite must reproduce it.
GOLDEN_31_SHA256 = "001b87c5acd7de9f1fae89d492c4d410eadedcfbc952d21c3f54cce28bcdeccf"

# sha256 of the bridge-tree decompositions and (3,1) completions listed by
# _permuted_chordal_outputs below.  gen_random_chordal numbers a leaf after its
# neighbour, so only relabelled graphs hold lone bridges whose lower endpoint
# is the leaf (several hundred in this corpus).
GOLDEN_PERMUTED_CHORDAL_SHA256 = "34434f2675a83f95a4c7f665ffa9915f3d24aa07a7e2dcf90e38b21422caa51b"

# sha256 of optimal_chordal_31's completions, as text, on the graphs listed by
# _large_chordal_graphs below: wider and larger than the corpora above.
GOLDEN_LARGE_CHORDAL_SHA256 = "39b6a287181eb7fe118b9610b21ba4720a0995f7ba5e292e1284bd781c804bf0"

C4 = [(0, 1), (1, 2), (2, 3), (0, 3)]
C5 = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
# each refused input and its message; the size check comes first, then the
# connectivity check (the C4 plus an edge is not chordal either), then the
# chordality check, which names its certificate vertex
CHORDAL_REFUSALS = [
    (Graph(2, [(0, 1)]), "decomposition needs at least 3 vertices, got 2"),
    (Graph(6, C4 + [(4, 5)]), "decomposition needs a connected graph"),
    (Graph(4, C4), "graph is not chordal (later neighbors of vertex 3 are not a clique)"),
    (Graph(5, C5), "graph is not chordal (later neighbors of vertex 4 are not a clique)"),
]


def test_decompose_whole_tree():
    g = path_graph(5)
    d = decompose_trees(g)
    assert d.trees == ((0, 1, 2, 3, 4),)
    assert d.tree_edges == (((0, 1), (1, 2), (2, 3), (3, 4)),)


def test_decompose_smallest_graphs():
    d = decompose_trees(path_graph(3))
    assert d.trees == ((0, 1, 2),)
    assert d.tree_edges == (((0, 1), (1, 2)),)
    assert decompose_trees(complete_graph(3)).trees == ()


def test_decompose_two_edge_connected_graph():
    d = decompose_trees(complete_graph(4))
    assert d.trees == ()


def test_decompose_triangle_with_pendant():
    d = decompose_trees(TRIANGLE_PENDANT)
    assert d.trees == ((0, 3),)


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


def _31_outputs():
    """The exact (3,1) solvers' outputs on seeded trees and chordal graphs, as text."""
    for n in (3, 4, 5, 6, 7, 9, 12, 20, 50, 200, 1000, 5000):
        for seed in range(8):
            t = rooted(gen_random_tree(n, seed))
            yield repr(p3_partition(t))
            yield format_completion(optimal_tree_31(t))
    for n in (11, 21, 101):
        yield format_completion(optimal_tree_31(rooted(worst_case_spider(n))))
    for n in (4, 6, 9, 20, 100, 1000):
        for width in (1, 2, 3):
            for seed in range(5):
                yield format_completion(optimal_chordal_31(gen_random_chordal(n, width, seed)))


def test_31_solvers_golden_hash():
    h = hashlib.sha256()
    for text in _31_outputs():
        h.update(text.encode())
    assert h.hexdigest() == GOLDEN_31_SHA256


def _permuted_chordal_outputs():
    """decompose_trees and optimal_chordal_31 on seeded chordal graphs whose
    vertices are relabelled by a seeded permutation, as text."""
    for n in (4, 6, 9, 20, 100, 1000):
        for width in (1, 2, 3):
            for seed in range(6):
                g = permuted(gen_random_chordal(n, width, seed), seed)
                d = decompose_trees(g)
                yield repr(d.trees)
                yield repr(d.tree_edges)
                yield format_completion(optimal_chordal_31(g))


def test_permuted_chordal_golden_hash():
    h = hashlib.sha256()
    for text in _permuted_chordal_outputs():
        h.update(text.encode())
    assert h.hexdigest() == GOLDEN_PERMUTED_CHORDAL_SHA256


@pytest.mark.parametrize("g, message", CHORDAL_REFUSALS)
def test_optimal_chordal_refusal_messages_are_pinned(g, message):
    with pytest.raises(InputError) as info:
        optimal_chordal_31(g)
    assert str(info.value) == message


@pytest.mark.parametrize("g, message", CHORDAL_REFUSALS)
def test_solve_chordal_opt_refusal_messages_are_pinned(tmp_path, capsys, monkeypatch, g, message):
    monkeypatch.delenv("COVER_LOG", raising=False)
    gpath, out = tmp_path / "g.txt", tmp_path / "c.txt"
    write_graph(gpath, g)
    assert main(["solve", "--alg", "chordal-opt", "--in", str(gpath), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def _large_chordal_graphs():
    for width in (2, 3, 4):
        for seed in (1, 2):
            yield gen_random_chordal(20_000, width, seed)


def test_large_chordal_golden_hash():
    h = hashlib.sha256()
    for g in _large_chordal_graphs():
        h.update(format_completion(optimal_chordal_31(g)).encode())
    assert h.hexdigest() == GOLDEN_LARGE_CHORDAL_SHA256


def _refuse(*args, **kwargs):
    raise AssertionError("optimal_chordal_31 called a search it should not need")


@pytest.mark.parametrize("seed", [1, 2])
def test_optimal_chordal_runs_one_search_and_builds_no_graph(monkeypatch, seed):
    # one maximum cardinality search tests connectivity and chordality and
    # finds the bridges; no bridge tree is built as a Graph of its own
    g = gen_random_chordal(5_000, 3, seed)
    counts = Counter()
    monkeypatch.setattr(graph, "heapq", counting_heapq(counts))
    assert check_chordal(g).is_chordal
    pushes = counts["push"]
    expected = optimal_chordal_31(g)
    built = Counter()
    real_init = Graph.__init__

    def counted_init(self, *args, **kwargs):
        built["graph"] += 1
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "__init__", counted_init)
    for name in ("find_bridges", "decompose_trees"):
        for module in (graph, chordal):
            monkeypatch.setattr(module, name, _refuse, raising=False)
    monkeypatch.setattr(Graph, "is_connected", _refuse)
    counts.clear()
    assert optimal_chordal_31(g) == expected
    assert counts["push"] == pushes > 0
    assert built["graph"] == 0
