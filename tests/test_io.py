import hashlib
import json
import random

import pytest

from kcover import (
    CompletionSet,
    Graph,
    InputError,
    LabeledReductionGraph,
    Role,
    SetCoverInstance,
    ThreePartitionInstance,
    build_setcover_k,
    build_setcover_k3,
    gen_random_chordal,
    gen_random_tree,
    spider_graph,
    worst_case_spider,
)
from kcover import io
from kcover.reductions import ROLE_KINDS
from kcover.io import (
    MAX_VERTICES,
    format_completion,
    format_edge_list,
    format_role_map,
    format_setcover_json,
    format_three_partition_json,
    parse_completion,
    parse_edge_list,
    parse_role_map,
    parse_setcover_json,
    parse_three_partition_json,
    read_completion,
    read_graph,
    read_reduction,
    write_completion,
    write_graph,
    write_reduction,
)

from helpers import path_graph, refuse_graph

FIG = SetCoverInstance(3, [frozenset({0, 1}), frozenset({1, 2}), frozenset({2})])


def test_edge_list_round_trip():
    for seed in range(5):
        g = gen_random_chordal(12, 2, seed)
        assert parse_edge_list(format_edge_list(g)) == g


def test_edge_list_format_is_sorted_and_newline_terminated():
    text = format_edge_list(path_graph(3))
    assert text == "3 2\n0 1\n1 2\n"


# sha256 of format_edge_list over _edge_list_corpus below, recorded before
# Graph kept its neighbour rows alone; any rewrite of either must reproduce it.
GOLDEN_EDGE_LISTS_SHA256 = "4499ed0a2c9bff3a469ef3586b998344b1891854ed196bcb629390e7a0251813"


def _reordered(g: Graph, rng: random.Random) -> tuple[Graph, Graph]:
    """g rebuilt from its pairs shuffled, each pair in a random orientation,
    and from its pairs in reverse order, each pair flipped."""
    pairs = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in g.edge_list()]
    rng.shuffle(pairs)
    return Graph(g.n, pairs), Graph(g.n, [(v, u) for u, v in reversed(g.edge_list())])


def _edge_list_corpus():
    """Seeded trees and chordal graphs, spiders, and each of those rebuilt
    from reordered pair lists (isolated vertices and an empty graph included)."""
    rng = random.Random(24)
    graphs = [Graph(0), Graph(1), Graph(5, [(3, 1)]), Graph(6, [(4, 5), (0, 5), (0, 2)])]
    for n in (2, 3, 10, 257, 3000):
        graphs += [gen_random_tree(n, seed) for seed in range(3)]
    for n in (5, 40, 1000):
        graphs += [gen_random_chordal(n, w, seed) for w in (1, 2, 4) for seed in range(2)]
    graphs += [worst_case_spider(n) for n in (4, 9, 100, 1001)]
    graphs += [spider_graph(legs) for legs in ([1], [3, 1, 2], [5] * 40, list(range(1, 30)))]
    for g in graphs:
        yield g
        yield from _reordered(g, rng)


def test_edge_list_text_golden_hash():
    h = hashlib.sha256()
    for g in _edge_list_corpus():
        h.update(format_edge_list(g).encode())
    assert h.hexdigest() == GOLDEN_EDGE_LISTS_SHA256


def test_a_reordered_pair_list_builds_the_same_graph():
    rng = random.Random(7)
    for g in (gen_random_tree(500, 3), gen_random_chordal(500, 3, 3), worst_case_spider(50)):
        for other in _reordered(g, rng):
            assert other == g and hash(other) == hash(g)
            assert format_edge_list(other) == format_edge_list(g)
            assert other.edge_list() == g.edge_list() and other.adj == g.adj
        assert Graph(g.n, g.edge_list()[1:]) != g
        assert Graph(g.n + 1, g.edge_list()) != g


def test_edge_list_accepts_comments_and_blank_lines():
    g = parse_edge_list("# a path\n\n3 2\n0 1\n\n# middle\n1 2\n")
    assert g == path_graph(3)


def test_edge_list_parse_errors():
    with pytest.raises(InputError):
        parse_edge_list("")
    with pytest.raises(InputError):
        parse_edge_list("# only comments\n")
    with pytest.raises(InputError):
        parse_edge_list("3 2\n0 1\n")  # fewer edges than announced
    with pytest.raises(InputError):
        parse_edge_list("3 1\n0 1\n1 2\n")  # more edges than announced
    with pytest.raises(InputError):
        parse_edge_list("3 one\n0 1\n")
    with pytest.raises(InputError):
        parse_edge_list("3 2\n0 1\n1 2 3\n")
    with pytest.raises(InputError):
        parse_edge_list("3 1\n0 3\n")  # endpoint out of range
    with pytest.raises(InputError):
        parse_edge_list("3 2\n0 1\n0 1\n")  # duplicate edge


def test_edge_list_vertex_count_is_bounded_before_allocation(monkeypatch):
    monkeypatch.setattr(io, "Graph", refuse_graph)
    with pytest.raises(InputError, match=f"header declares n={MAX_VERTICES + 1} vertices"):
        parse_edge_list(f"{MAX_VERTICES + 1} 0\n")
    with pytest.raises(InputError, match=f"at most {MAX_VERTICES} are supported"):
        parse_edge_list("1000000000000 0\n")
    # the cap itself is allowed; record n instead of building the graph
    monkeypatch.setattr(io, "Graph", lambda n, edges: n)
    assert parse_edge_list(f"{MAX_VERTICES} 0\n") == MAX_VERTICES


def test_edge_list_for_a_solver_needs_enough_edges_to_be_connected(monkeypatch):
    assert parse_edge_list("4 1\n0 1\n").m == 1
    with pytest.raises(InputError, match="n=4 vertices and m=1 edges; a connected graph needs at least 3"):
        parse_edge_list("4 1\n0 1\n", connected=True)
    assert parse_edge_list("0 0\n", connected=True).n == 0
    assert parse_edge_list("1 0\n", connected=True).n == 1
    assert parse_edge_list("3 2\n0 1\n1 2\n", connected=True).m == 2
    # the header is refused before any edge line is read
    with pytest.raises(InputError, match="header declares n=3"):
        parse_edge_list("3 1\nnot an edge\n", connected=True)


def test_completion_round_trip():
    c = CompletionSet([(0, 2), (1, 3)])
    assert list(parse_completion(format_completion(c))) == [(0, 2), (1, 3)]
    empty = CompletionSet([])
    assert len(parse_completion(format_completion(empty))) == 0


def test_completion_format_declares_count():
    assert format_completion(CompletionSet([(0, 2)])) == "# additions=1\n0 2\n"


def test_completion_parse_normalizes_and_checks_count():
    c = parse_completion("2 0\n")
    assert list(c) == [(0, 2)]
    assert list(parse_completion("# additions=1\n0 2\n")) == [(0, 2)]
    with pytest.raises(InputError):
        parse_completion("# additions=2\n0 2\n")
    with pytest.raises(InputError):
        parse_completion("# additions=two\n0 2\n")
    with pytest.raises(InputError):
        parse_completion("0 2\n2 0\n")  # duplicate pair


def test_setcover_json_round_trip():
    for inst in (FIG, SetCoverInstance(2, [{0, 1}], budget=1)):
        again = parse_setcover_json(format_setcover_json(inst))
        assert again == inst
    assert '"t": null' in format_setcover_json(FIG)


def test_setcover_json_errors():
    with pytest.raises(InputError):
        parse_setcover_json("not json")
    with pytest.raises(InputError):
        parse_setcover_json("[1, 2]")
    with pytest.raises(InputError):
        parse_setcover_json('{"universe": 2}')
    with pytest.raises(InputError):
        parse_setcover_json('{"universe": 2, "sets": [[0]]}')  # item 1 uncovered


def test_three_partition_json_round_trip():
    inst = ThreePartitionInstance(9, (3, 3, 3, 3, 3, 3))
    assert parse_three_partition_json(format_three_partition_json(inst)) == inst
    with pytest.raises(InputError):
        parse_three_partition_json('{"s": 9}')
    with pytest.raises(InputError):
        parse_three_partition_json('{"s": 8, "values": [3, 3, 3]}')


def test_role_map_round_trip():
    for rg in (build_setcover_k3(FIG), build_setcover_k(FIG, 5)):
        k, roles = parse_role_map(format_role_map(rg))
        assert k == rg.k
        assert roles == rg.roles


def test_role_map_errors():
    with pytest.raises(InputError):
        parse_role_map("{}")
    with pytest.raises(InputError):
        parse_role_map('{"k": 3, "roles": {"zero": {"kind": "common"}}}')
    with pytest.raises(InputError):
        parse_role_map('{"k": 3, "roles": {"1": {"kind": "common"}}}')  # not dense
    with pytest.raises(InputError):
        parse_role_map('{"k": 3, "roles": {"0": {"kind": "wizard"}}}')
    with pytest.raises(InputError):
        parse_role_map('{"k": 3, "roles": {"0": "common"}}')
    # a kind that is not a string: unhashable ones must not end in a TypeError
    for kind in ('[1]', '{"a": 1}', '1', 'null', 'true'):
        with pytest.raises(InputError, match="^unknown role kind "):
            parse_role_map('{"k": 3, "roles": {"0": {"kind": %s}}}' % kind)


def test_format_role_map_matches_indented_json_dumps():
    # one role per vertex over every kind, with null and integer indices; at
    # 10 and 100 vertices string order of the keys parts from numeric order
    rng = random.Random(20)
    for n in (0, 1, 9, 10, 11, 99, 100, 101):
        kinds = [ROLE_KINDS[v % len(ROLE_KINDS)] for v in range(n)]
        roles = tuple(
            Role(kind, None if kind in ("aux", "common") and rng.random() < 0.5 else rng.randrange(40))
            for kind in kinds
        )
        rg = LabeledReductionGraph(Graph(n, []), roles, 3 + n % 4, (), (), 0)
        data = {
            "k": rg.k,
            "roles": {str(v): {"kind": r.kind, "index": r.index} for v, r in enumerate(roles)},
        }
        text = format_role_map(rg)
        assert text == json.dumps(data, sort_keys=True, indent=2) + "\n"
        k, parsed = parse_role_map(text)
        assert (k, parsed) == (rg.k, roles)
        # equal roles are shared, one object each
        assert len({id(r) for r in parsed}) == len(set(parsed))


def test_file_helpers_round_trip(tmp_path):
    g = gen_random_chordal(10, 2, 0)
    gpath = tmp_path / "graph.txt"
    write_graph(gpath, g)
    assert read_graph(gpath) == g

    c = CompletionSet([(0, 3), (1, 2)])
    cpath = tmp_path / "completion.txt"
    write_completion(cpath, c)
    assert list(read_completion(cpath)) == list(c)

    rg = build_setcover_k(FIG, 4)
    rgraph, rroles = tmp_path / "red.txt", tmp_path / "red.roles.json"
    write_reduction(rgraph, rroles, rg)
    back = read_reduction(rgraph, rroles)
    assert back.graph == rg.graph
    assert back.k == 4
    assert back.set_ids == rg.set_ids
    assert back.item_ids == rg.item_ids
    assert back.common == rg.common
