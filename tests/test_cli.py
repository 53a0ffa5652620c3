import json
import logging
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from kcover import (
    CompletionSet,
    Graph,
    SetCoverInstance,
    ThreePartitionInstance,
    build_setcover_k,
    build_setcover_k3,
    completion_from_cover,
    gen_random_tree,
)
import kcover
from kcover import cli, io, oracle
from kcover.cli import SOLVERS, _build_parser, main
from kcover.io import (
    format_edge_list,
    format_setcover_json,
    format_three_partition_json,
    parse_setcover_json,
    parse_three_partition_json,
    read_completion,
    read_graph,
    write_completion,
    write_graph,
)

from helpers import cycle_graph, path_graph, refuse_graph, star_graph

FIG = SetCoverInstance(3, [frozenset({0, 1}), frozenset({1, 2}), frozenset({2})])


@pytest.fixture
def quiet_env(monkeypatch):
    monkeypatch.delenv("COVER_LOG", raising=False)


def test_solve_tree_opt_and_check(tmp_path, capsys, quiet_env):
    gpath, cpath = tmp_path / "g.txt", tmp_path / "c.txt"
    write_graph(gpath, path_graph(5))

    assert main(["solve", "--alg", "tree-opt", "--in", str(gpath), "--out", str(cpath)]) == 0
    assert "additions=2" in capsys.readouterr().out
    assert len(read_completion(cpath)) == 2

    assert main(["check", "--k", "3", "--graph", str(gpath), "--completion", str(cpath)]) == 0
    assert capsys.readouterr().out.startswith("OK:")


def test_solve_output_is_byte_identical_between_runs(tmp_path, capsys, quiet_env):
    gpath = tmp_path / "g.txt"
    write_graph(gpath, star_graph(8))
    outs = []
    for name in ("a.txt", "b.txt"):
        out = tmp_path / name
        assert main(["solve", "--alg", "tree-approx4", "--in", str(gpath), "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    capsys.readouterr()


def _refuse_init(self, n, edges=()):
    raise AssertionError(f"Graph({n}, ...) was built for a header that cannot be connected")


@pytest.mark.parametrize("alg", ["tree-opt", "chordal-opt", "brute"])
def test_solve_refuses_a_header_too_sparse_to_be_connected(
    tmp_path, capsys, quiet_env, monkeypatch, alg
):
    # without the header check the graph is built and the solver fails later
    monkeypatch.setattr(Graph, "__init__", _refuse_init)
    gpath = tmp_path / "g.txt"
    gpath.write_text("1000000 0\n")
    assert main(["solve", "--alg", alg, "--in", str(gpath), "--out", str(tmp_path / "c")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: line 1: header declares n=1000000 vertices and m=0 edges")
    assert "needs at least 999999" in err


def test_solve_refuses_a_header_over_the_edge_cap(tmp_path, capsys, quiet_env, monkeypatch):
    gpath, out = tmp_path / "g.txt", tmp_path / "c.txt"
    write_graph(gpath, cycle_graph(6))
    monkeypatch.setattr(io, "MAX_EDGES", 5)
    assert main(["solve", "--alg", "brute", "--in", str(gpath), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: line 1: header declares m=6 edges; at most 5")
    monkeypatch.setattr(io, "MAX_EDGES", 6)
    assert main(["solve", "--alg", "brute", "--in", str(gpath), "--out", str(out)]) == 0
    capsys.readouterr()


def test_check_reports_each_unsaturated_edge(tmp_path, capsys, quiet_env):
    gpath, cpath = tmp_path / "g.txt", tmp_path / "c.txt"
    write_graph(gpath, path_graph(3))
    cpath.write_text("# additions=0\n")

    assert main(["check", "--k", "3", "--graph", str(gpath), "--completion", str(cpath)]) == 2
    out = capsys.readouterr().out
    assert "unsaturated 0 1" in out and "unsaturated 1 2" in out


def test_check_of_a_sparse_header_builds_no_graph(tmp_path, capsys, quiet_env, monkeypatch):
    # memory follows the pairs: no Graph, and nothing per vertex, for n = 10**6
    monkeypatch.setattr(Graph, "__init__", _refuse_init)
    gpath, cpath = tmp_path / "g.txt", tmp_path / "c.txt"
    gpath.write_text("1000000 0\n")
    cpath.write_text("# additions=0\n")
    assert main(["check", "--k", "3", "--graph", str(gpath), "--completion", str(cpath)]) == 2
    assert capsys.readouterr().out == "completed graph is disconnected\n"


def _write_failing_check(tmp_path):
    """A graph and completion whose check fails on five edges and on connectivity.

    Vertices 7 and 9 are isolated in the graph, and (10, 11) sorts after
    (7, 8) as a pair of numbers but before it as text."""
    gpath, cpath = tmp_path / "g.txt", tmp_path / "c.txt"
    gpath.write_text(
        "13 9\n0 1\n1 2\n2 10\n10 11\n11 12\n3 4\n4 5\n3 5\n5 6\n"
    )
    cpath.write_text("# additions=2\n7 8\n0 2\n")
    return ["check", "--k", "3", "--graph", str(gpath), "--completion", str(cpath)]


def test_check_failure_output_is_golden(tmp_path, capsys, quiet_env):
    assert main(_write_failing_check(tmp_path)) == 2
    assert capsys.readouterr().out == (
        "completed graph is disconnected\n"
        "unsaturated 2 10\n"
        "unsaturated 5 6\n"
        "unsaturated 7 8\n"
        "unsaturated 10 11\n"
        "unsaturated 11 12\n"
    )


# (graph text, completion text, the error check reports): a fault of the
# completion's own (a repeat or a self-loop) comes first, then the graph's
# faults, then an addition out of range or already an edge, in file order
BOTH_FILES_FAULTY = [
    ("4 4\n0 1\n1 2\n2 3\n1 0\n", "# additions=2\n0 2\n2 0\n", "duplicate addition (0, 2)"),
    ("4 3\n0 1\n1 2\n2 9\n", "# additions=1\n3 3\n", "self-loop (3,3) is not allowed"),
    ("4 3\n0 1\n1 2\n2 2\n", "# additions=1\n1 0\n", "self-loop (2,2) is not allowed"),
    ("4 3\n0 1\n1 2\n2 3\n", "# additions=2\n0 2\n2 1\n", "addition (1, 2) is already an edge"),
    ("4 3\n0 1\n1 2\n2 3\n", "# additions=2\n2 1\n1 2\n", "duplicate addition (1, 2)"),
    ("4 3\n0 1\n1 2\n2 3\n", "0 7\n2 1\n", "addition (0, 7) out of range for n=4"),
    ("4 3\n0 1\n1 2\n2 3\n", "2 1\n0 7\n", "addition (1, 2) is already an edge"),
    ("4 3\n0 1\n1 2\n2 3\n", "# a comment\n0 2\n2 2\n", "self-loop (2,2) is not allowed"),
]


@pytest.mark.parametrize("k", [3, 4, 5])
@pytest.mark.parametrize("graph, completion, message", BOTH_FILES_FAULTY)
def test_check_names_the_first_fault_of_both_files(
    tmp_path, capsys, quiet_env, k, graph, completion, message
):
    gpath, cpath = tmp_path / "g.txt", tmp_path / "c.txt"
    gpath.write_text(graph)
    cpath.write_text(completion)
    assert main(["check", "--k", str(k), "--graph", str(gpath), "--completion", str(cpath)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_check_logs_its_verdict_at_info(tmp_path, capsys, caplog, monkeypatch):
    monkeypatch.setenv("COVER_LOG", "info")
    caplog.set_level(logging.INFO, logger="kcover")
    assert main(_write_failing_check(tmp_path)) == 2
    capsys.readouterr()
    assert [r.getMessage() for r in caplog.records if r.name == "kcover"] == [
        "checked n=13 m=9 additions=2 at k=3 l=1: violations=5 connected=False"
    ]


def test_parser_is_built_once_and_keeps_no_arguments(tmp_path, capsys, quiet_env):
    assert _build_parser() is _build_parser()
    gpath, cpath = tmp_path / "g.txt", tmp_path / "c.txt"
    write_graph(gpath, path_graph(4))
    solve = ["solve", "--alg", "brute", "--k", "3", "--l", "2", "--in", str(gpath), "--out", str(cpath)]
    check = ["check", "--k", "3", "--graph", str(gpath), "--completion", str(cpath)]
    assert main(solve) == 0
    assert main(check) == 0
    # check's --l defaults to 1; the solve's --l 2 must not carry over
    assert capsys.readouterr().out.splitlines()[-1] == (
        "OK: every edge lies in >= 1 cliques of order 3"
    )
    args = _build_parser().parse_args(check)
    assert args.l == 1 and not hasattr(args, "alg") and not hasattr(args, "infile")


def test_check_rejects_an_over_large_vertex_count(tmp_path, capsys, quiet_env, monkeypatch):
    monkeypatch.setattr(io, "Graph", refuse_graph)
    gpath, cpath = tmp_path / "g.txt", tmp_path / "c.txt"
    gpath.write_text("1000000000000 0\n")
    cpath.write_text("# additions=0\n")
    code = main(["check", "--k", "3", "--graph", str(gpath), "--completion", str(cpath)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: line 1: header declares n=1000000000000")


# int() refuses more than 4,300 digits (Python 3.10.7 and later); such a
# token is a bad line like any other, not a ValueError traceback
needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="int() has no digit limit"
)
HUGE = "9" * 5000


@needs_digit_limit
@pytest.mark.parametrize("line, text", [
    (3, f"3 2\n0 1\n{HUGE} 2\n"),
    (1, f"{HUGE} 2\n0 1\n1 2\n"),
])
def test_commands_refuse_an_integer_too_long_to_convert(tmp_path, capsys, quiet_env, line, text):
    gpath, cpath = tmp_path / "g.txt", tmp_path / "c.txt"
    gpath.write_text(text)
    cpath.write_text("# additions=0\n")
    want = f"error: line {line}: expected two integers"
    assert main(["check", "--k", "3", "--graph", str(gpath), "--completion", str(cpath)]) == 1
    assert capsys.readouterr().err.startswith(want)
    assert main(["solve", "--alg", "tree-opt", "--in", str(gpath), "--out", str(cpath)]) == 1
    assert capsys.readouterr().err.startswith(want)


def test_solve_brute(tmp_path, capsys, quiet_env):
    gpath, cpath = tmp_path / "g.txt", tmp_path / "c.txt"
    write_graph(gpath, path_graph(3))
    assert main(["solve", "--alg", "brute", "--in", str(gpath), "--out", str(cpath)]) == 0
    assert list(read_completion(cpath)) == [(0, 2)]
    capsys.readouterr()


def test_solve_brute_logs_its_deepening_start_at_info(tmp_path, capsys, caplog, monkeypatch):
    monkeypatch.setenv("COVER_LOG", "info")
    caplog.set_level(logging.INFO, logger="kcover")
    gpath, cpath = tmp_path / "g.txt", tmp_path / "c.txt"
    write_graph(gpath, path_graph(5))
    assert main(["solve", "--alg", "brute", "--in", str(gpath), "--out", str(cpath)]) == 0
    capsys.readouterr()
    messages = [r.getMessage() for r in caplog.records if r.name == "kcover"]
    assert messages[0] == "brute search visited 7 nodes, deepening from size 1"


def test_solve_brute_inconclusive_budget(tmp_path, capsys, quiet_env):
    gpath = tmp_path / "g.txt"
    write_graph(gpath, star_graph(4))
    code = main([
        "solve", "--alg", "brute", "--in", str(gpath),
        "--out", str(tmp_path / "c.txt"), "--max-additions", "1",
    ])
    assert code == 3
    assert "inconclusive" in capsys.readouterr().err


def test_solve_brute_refuses_a_spec_no_completion_meets(tmp_path, capsys, quiet_env):
    # even in K_5 each edge lies in only C(3, 2) = 3 cliques of order 4, so no
    # budget is large enough: not inconclusive (exit 3) but an input error
    gpath, cpath = tmp_path / "g.txt", tmp_path / "c.txt"
    write_graph(gpath, path_graph(5))
    code = main([
        "solve", "--alg", "brute", "--k", "4", "--l", "4", "--max-additions", "40",
        "--in", str(gpath), "--out", str(cpath),
    ])
    assert code == 1 and not cpath.exists()
    assert capsys.readouterr() == ("", (
        "error: no completion exists: on 5 vertices an edge lies in at most "
        "C(3, 2) = 3 cliques of order 4, fewer than l = 4\n"
    ))


def test_solve_brute_refuses_a_graph_over_the_oracle_cap(tmp_path, capsys, quiet_env, monkeypatch):
    def refuse_search(*args):
        raise AssertionError("_Search was built for a graph over the vertex cap")

    monkeypatch.setattr(oracle, "_Search", refuse_search)
    gpath = tmp_path / "g.txt"
    write_graph(gpath, path_graph(1025))  # one vertex over the oracle's cap
    code = main(["solve", "--alg", "brute", "--in", str(gpath), "--out", str(tmp_path / "c.txt")])
    assert code == 1
    assert capsys.readouterr().err == "error: search supports at most 1024 vertices, got 1025\n"
    assert not (tmp_path / "c.txt").exists()


def test_solve_usage_errors(tmp_path, capsys, quiet_env):
    gpath = tmp_path / "g.txt"
    write_graph(gpath, path_graph(6))
    out = str(tmp_path / "c.txt")

    # tree-approx without --k
    assert main(["solve", "--alg", "tree-approx", "--in", str(gpath), "--out", out]) == 1
    # unknown algorithm is an argparse-level error
    assert main(["solve", "--alg", "magic", "--in", str(gpath), "--out", out]) == 1
    # missing input file
    assert main(["solve", "--alg", "tree-opt", "--in", str(tmp_path / "no.txt"), "--out", out]) == 1
    # non-chordal input to the chordal solver
    c4 = tmp_path / "c4.txt"
    write_graph(c4, cycle_graph(4))
    assert main(["solve", "--alg", "chordal-opt", "--in", str(c4), "--out", out]) == 1
    capsys.readouterr()



@pytest.mark.parametrize(
    "alg, flags, code",
    [
        ("tree-opt", ["--k", "7", "--l", "3"], 1),
        ("tree-opt", ["--k", "7"], 1),
        ("chordal-opt", ["--l", "2"], 1),
        ("tree-approx4", ["--k", "5"], 1),
        ("tree-approx", ["--k", "5", "--l", "2"], 1),
        ("tree-opt", ["--k", "3", "--l", "1"], 0),
        ("tree-approx4", ["--k", "4"], 0),
        # only brute runs a search, so only brute takes a search budget
        ("tree-opt", ["--max-nodes", "0"], 1),
        ("chordal-opt", ["--max-additions", "5"], 1),
        ("tree-approx4", ["--max-nodes", "100"], 1),
        ("tree-approx", ["--k", "5", "--max-additions", "20"], 1),
        ("brute", ["--max-nodes", "100"], 0),
    ],
)
def test_solve_refuses_a_spec_the_solver_ignores(tmp_path, capsys, quiet_env, alg, flags, code):
    gpath, cpath = tmp_path / "g.txt", tmp_path / "c.txt"
    write_graph(gpath, path_graph(6))
    assert main(["solve", "--alg", alg, "--in", str(gpath), "--out", str(cpath), *flags]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") if code else not err
    assert cpath.exists() == (code == 0)

def test_bad_log_level_is_rejected(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COVER_LOG", "chatty")
    assert main(["gen", "tree", "--n", "5", "--out", str(tmp_path / "t.txt")]) == 1
    assert "COVER_LOG" in capsys.readouterr().err


def test_log_levels_accepted(tmp_path, capsys, monkeypatch):
    for level in ("quiet", "info", "trace"):
        monkeypatch.setenv("COVER_LOG", level)
        assert main(["gen", "tree", "--n", "5", "--out", str(tmp_path / "t.txt")]) == 0
    capsys.readouterr()


def test_reduce_setcover(tmp_path, capsys, quiet_env):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(format_setcover_json(FIG))
    out_graph, out_roles = tmp_path / "red.txt", tmp_path / "red.roles.json"

    code = main([
        "reduce", "setcover", "--k", "3", "--in", str(inst_path),
        "--out-graph", str(out_graph), "--out-roles", str(out_roles),
    ])
    assert code == 0
    assert "n=52 m=108" in capsys.readouterr().out
    assert read_graph(out_graph).n == 52
    assert json.loads(out_roles.read_text())["k"] == 3

    # roles sidecar is mandatory for set-cover reductions
    code = main([
        "reduce", "setcover", "--in", str(inst_path), "--out-graph", str(out_graph),
    ])
    assert code == 1
    capsys.readouterr()


def test_reduce_three_partition(tmp_path, capsys, quiet_env):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(
        format_three_partition_json(parse_three_partition_json('{"s": 9, "values": [3,3,3,3,3,3]}'))
    )
    out_graph = tmp_path / "spider.txt"
    assert main(["reduce", "3partition", "--in", str(inst_path), "--out-graph", str(out_graph)]) == 0
    spider = read_graph(out_graph)
    assert spider.n == 19 and spider.m == 18
    capsys.readouterr()


@pytest.mark.parametrize(
    "construction, text",
    [
        ("setcover", '{"universe": 2, "sets": 5}'),
        ("setcover", '{"universe": "2", "sets": [[0, 1]]}'),
        ("3partition", '{"s": 9, "values": ["a", 3, 3]}'),
    ],
)
def test_reduce_rejects_mistyped_json(tmp_path, capsys, quiet_env, construction, text):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(text)
    out_graph, out_roles = tmp_path / "red.txt", tmp_path / "red.roles.json"
    argv = ["reduce", construction, "--in", str(inst_path), "--out-graph", str(out_graph)]
    if construction == "setcover":
        argv += ["--k", "3", "--out-roles", str(out_roles)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out_graph.exists()


def test_goodify_cli(tmp_path, capsys, quiet_env):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(format_setcover_json(FIG))
    out_graph, out_roles = tmp_path / "red.txt", tmp_path / "red.roles.json"
    assert main([
        "reduce", "setcover", "--k", "3", "--in", str(inst_path),
        "--out-graph", str(out_graph), "--out-roles", str(out_roles),
    ]) == 0

    rg = build_setcover_k3(FIG)
    cpath, gpath = tmp_path / "completion.txt", tmp_path / "good.txt"
    write_completion(cpath, completion_from_cover(rg, [0, 1, 2]))

    code = main([
        "goodify", "--graph", str(out_graph), "--roles", str(out_roles),
        "--completion", str(cpath), "--out", str(gpath),
    ])
    assert code == 0
    assert "additions=" in capsys.readouterr().out
    assert len(read_completion(gpath)) <= 3

    # mismatched --k is refused
    code = main([
        "goodify", "--k", "4", "--graph", str(out_graph), "--roles", str(out_roles),
        "--completion", str(cpath), "--out", str(gpath),
    ])
    assert code == 1
    capsys.readouterr()


def test_goodify_rejects_a_three_vertex_item_at_k4(tmp_path, capsys, quiet_env):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(format_setcover_json(FIG))
    out_graph, out_roles = tmp_path / "red.txt", tmp_path / "red.roles.json"
    assert main([
        "reduce", "setcover", "--k", "4", "--in", str(inst_path),
        "--out-graph", str(out_graph), "--out-roles", str(out_roles),
    ]) == 0
    data = json.loads(out_roles.read_text())
    aux = next(v for v, role in data["roles"].items() if role["kind"] == "aux")
    data["roles"][aux] = {"kind": "item-endpoint", "index": 0}
    out_roles.write_text(json.dumps(data))
    cpath, gpath = tmp_path / "completion.txt", tmp_path / "good.txt"
    write_completion(cpath, completion_from_cover(build_setcover_k(FIG, 4), [0, 1, 2]))
    capsys.readouterr()
    code = main([
        "goodify", "--graph", str(out_graph), "--roles", str(out_roles),
        "--completion", str(cpath), "--out", str(gpath),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


# role maps goodify cannot follow, each as (instance, k built, role pairs
# exchanged, k written): a k = 3 map relabelled k = 4, so every set has one
# vertex; an item vertex exchanged with set 0's vertex, so item 1 lies in no
# set; and aux vertices exchanged with set-subgraph vertices, on which
# goodify_k's purchase loop stops buying
_TWO_ITEMS = '{"universe": 2, "sets": [[0], [0, 1], [1]], "t": null}'
UNFOLLOWABLE_ROLE_MAPS = {
    "one-vertex-sets": ('{"universe": 1, "sets": [[0], [0]], "t": null}', 3, [], 4),
    "item-in-no-set": (_TWO_ITEMS, 3, [(0, 7)], 3),
    "no-progress": (_TWO_ITEMS, 4, [(6, 39), (8, 48)], 4),
}


@pytest.mark.parametrize("case", sorted(UNFOLLOWABLE_ROLE_MAPS))
def test_goodify_refuses_a_role_map_it_cannot_follow(tmp_path, case):
    text, k, exchanged, written_k = UNFOLLOWABLE_ROLE_MAPS[case]
    inst = parse_setcover_json(text)
    rg = build_setcover_k3(inst) if k == 3 else build_setcover_k(inst, k)
    gpath, rpath = tmp_path / "red.txt", tmp_path / "red.roles.json"
    cpath, out = tmp_path / "every.txt", tmp_path / "good.txt"
    io.write_reduction(gpath, rpath, rg)
    data = json.loads(rpath.read_text())
    for a, b in exchanged:
        roles = data["roles"]
        roles[str(a)], roles[str(b)] = roles[str(b)], roles[str(a)]
    data["k"] = written_k
    rpath.write_text(json.dumps(data))
    pairs = combinations(range(rg.graph.n), 2)
    write_completion(cpath, CompletionSet(e for e in pairs if not rg.graph.has_edge(*e)))
    # a separate process, so that a goodify that never ends fails the test
    env = {**os.environ, "PYTHONPATH": str(Path(kcover.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "kcover.cli", "goodify", "--graph", str(gpath),
         "--roles", str(rpath), "--completion", str(cpath), "--out", str(out)],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert done.returncode == 1
    assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr
    assert not out.exists()


def _retype_roles(data: dict, case: str) -> None:
    if case == "roles-list":
        data["roles"] = [1, 2]
    elif case == "index-string":
        data["roles"]["0"]["index"] = "a"
    elif case == "index-null":
        data["roles"]["0"]["index"] = None  # a set role next to indexed ones
    else:
        data["k"] = "3"


@pytest.mark.parametrize("case", ["roles-list", "index-string", "index-null", "k-string"])
def test_goodify_rejects_mistyped_role_map(tmp_path, capsys, quiet_env, case):
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(format_setcover_json(FIG))
    out_graph, out_roles = tmp_path / "red.txt", tmp_path / "red.roles.json"
    assert main([
        "reduce", "setcover", "--k", "3", "--in", str(inst_path),
        "--out-graph", str(out_graph), "--out-roles", str(out_roles),
    ]) == 0
    data = json.loads(out_roles.read_text())
    assert data["roles"]["0"] == {"kind": "set", "index": 0}
    _retype_roles(data, case)
    out_roles.write_text(json.dumps(data))
    cpath, gpath = tmp_path / "completion.txt", tmp_path / "good.txt"
    write_completion(cpath, completion_from_cover(build_setcover_k3(FIG), [0, 1, 2]))
    capsys.readouterr()
    code = main([
        "goodify", "--graph", str(out_graph), "--roles", str(out_roles),
        "--completion", str(cpath), "--out", str(gpath),
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not gpath.exists()

def test_goodify_refuses_a_role_count_unlike_the_header_before_building(
    tmp_path, capsys, quiet_env, monkeypatch
):
    monkeypatch.setattr(Graph, "__init__", _refuse_init)
    gpath, rpath, cpath = tmp_path / "g.txt", tmp_path / "roles.json", tmp_path / "c.txt"
    gpath.write_text("1000000 0\n")
    roles = {str(v): {"kind": "set", "index": v} for v in range(3)}
    rpath.write_text(json.dumps({"k": 3, "roles": roles}))
    cpath.write_text("# additions=0\n")
    code = main([
        "goodify", "--graph", str(gpath), "--roles", str(rpath),
        "--completion", str(cpath), "--out", str(tmp_path / "good.txt"),
    ])
    assert code == 1
    assert capsys.readouterr().err == "error: one role per vertex required\n"


def test_gen_families(tmp_path, capsys, quiet_env):
    out = tmp_path / "out.txt"

    assert main(["gen", "tree", "--n", "9", "--seed", "4", "--out", str(out)]) == 0
    assert read_graph(out).m == 8

    assert main(["gen", "chordal", "--n", "9", "--width", "2", "--out", str(out)]) == 0
    assert read_graph(out).is_connected()

    assert main(["gen", "spider", "--legs", "2,2,1", "--out", str(out)]) == 0
    assert read_graph(out).n == 6

    assert main(["gen", "worst-spider", "--n", "15", "--out", str(out)]) == 0
    assert len(read_graph(out).adj[0]) == 7

    assert main(["gen", "setcover", "--items", "3", "--sets", "4", "--out", str(out)]) == 0
    inst = parse_setcover_json(out.read_text())
    assert inst.universe_size == 3 and len(inst.sets) == 4

    assert main(["gen", "3partition", "--p", "2", "--s", "9", "--out", str(out)]) == 0
    assert parse_three_partition_json(out.read_text()).target == 9

    capsys.readouterr()


def test_gen_usage_errors(tmp_path, capsys, quiet_env):
    out = str(tmp_path / "out.txt")
    assert main(["gen", "spider", "--out", out]) == 1  # --legs required
    assert main(["gen", "3partition", "--p", "2", "--s", "8", "--out", out]) == 1
    assert main([]) == 1  # missing subcommand
    capsys.readouterr()


@pytest.mark.parametrize("alg", list(SOLVERS))
def test_check_accepts_what_each_solver_writes(tmp_path, capsys, quiet_env, alg):
    k = SOLVERS[alg][0] or 5
    gpath, cpath = tmp_path / "g.txt", tmp_path / "c.txt"
    write_graph(gpath, gen_random_tree(40, 7))
    k_flags = ["--k", str(k)] if SOLVERS[alg][0] is None else []
    assert main(["solve", "--alg", alg, "--in", str(gpath), "--out", str(cpath), *k_flags]) == 0
    check = ["check", "--k", str(k), "--graph", str(gpath), "--completion", str(cpath)]
    assert main(check) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("OK:")


OVER_THE_CAP = {
    "tree": (["gen", "tree", "--n", "1001"], None),
    "chordal": (["gen", "chordal", "--n", "1001"], None),
    "worst-spider": (["gen", "worst-spider", "--n", "1001"], None),
    "spider": (["gen", "spider", "--legs", "600,400"], None),
    "3partition": (["reduce", "3partition"], {"s": 2000, "values": [600, 700, 700]}),
    # 1 set vertex, 20 items of 40 vertices, 40 aux per item and the common one: 1602
    "setcover-k3": (["reduce", "setcover"], {"universe": 20, "sets": [list(range(20))]}),
    # 60 item endpoints, 4 set vertices, 4 fresh ones for each of 246 wrapped edges, common: 1049
    "setcover-k6": (["reduce", "setcover", "--k", "6"], {"universe": 30, "sets": [list(range(30))]}),
}


def _run_writing(tmp_path, argv, inst) -> int:
    out = tmp_path / "out.txt"
    if inst is None:
        return main([*argv, "--out", str(out)])
    (tmp_path / "in.json").write_text(json.dumps(inst))
    return main([*argv, "--in", str(tmp_path / "in.json"), "--out-graph", str(out),
                 "--out-roles", str(tmp_path / "roles.json")])


@pytest.mark.parametrize("case", list(OVER_THE_CAP))
def test_commands_refuse_a_graph_over_the_vertex_cap(tmp_path, capsys, quiet_env, monkeypatch, case):
    # the cap is lowered so that the refused graphs stay small: without the
    # check these commands build and write them and exit 0
    monkeypatch.setattr(io, "MAX_VERTICES", 1000)
    assert _run_writing(tmp_path, *OVER_THE_CAP[case]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the graph to write would have n=") and "at most 1000" in err
    assert not (tmp_path / "out.txt").exists()


def test_commands_write_a_graph_at_the_vertex_cap(tmp_path, capsys, quiet_env, monkeypatch):
    monkeypatch.setattr(io, "MAX_VERTICES", 1602)
    assert _run_writing(tmp_path, ["gen", "tree", "--n", "1602"], None) == 0
    assert read_graph(tmp_path / "out.txt").n == 1602
    assert _run_writing(tmp_path, *OVER_THE_CAP["setcover-k3"]) == 0
    assert read_graph(tmp_path / "out.txt").n == 1602
    capsys.readouterr()


def test_reduce_refuses_a_gadget_over_the_edge_cap(tmp_path, capsys, quiet_env, monkeypatch):
    # the k = 6 gadget below has 1,049 vertices and 3,720 edges; the cap is
    # lowered so that the refused graph stays small
    monkeypatch.setattr(io, "MAX_EDGES", 3719)
    assert _run_writing(tmp_path, *OVER_THE_CAP["setcover-k6"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the graph to write would have m=3720 edges; at most 3719")
    assert not (tmp_path / "out.txt").exists()
    monkeypatch.setattr(io, "MAX_EDGES", 3720)
    assert _run_writing(tmp_path, *OVER_THE_CAP["setcover-k6"]) == 0
    assert read_graph(tmp_path / "out.txt").m == 3720
    capsys.readouterr()


def test_gen_chordal_refuses_a_graph_over_the_edge_cap(tmp_path, capsys, quiet_env, monkeypatch):
    # at width 4, 30 vertices may get a 5-clique and 4 edges for each of the
    # other 25: 110.  The cap is lowered so that the refused graph stays small
    argv = ["gen", "chordal", "--n", "30", "--width", "4"]
    monkeypatch.setattr(io, "MAX_EDGES", 109)
    assert _run_writing(tmp_path, argv, None) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the graph to write could have m=110 edges; at most 109")
    assert not (tmp_path / "out.txt").exists()
    monkeypatch.setattr(io, "MAX_EDGES", 110)
    assert _run_writing(tmp_path, argv, None) == 0
    assert read_graph(tmp_path / "out.txt").m <= 110
    capsys.readouterr()


def _refuse_generating(*args, **kwargs):
    raise AssertionError("an instance over the cap was generated")


@pytest.mark.parametrize("argv,err", [
    # 2001 x 5000 draws is one over the cap; the old code took seconds per 10**6 draws
    (["setcover", "--items", "2001", "--sets", "5000"],
     "error: --items 2001 and --sets 5000 would draw 10005000 memberships; at most 10000000"),
    # the spider has a centre and legs of p * s vertices in all
    (["3partition", "--p", "3", "--s", "3333334"],
     "error: the spider of this instance would have n=10000003 vertices; at most 10000000"),
    (["3partition", "--p", "2", "--s", "10000000"],
     "error: the spider of this instance would have n=20000001 vertices; at most 10000000"),
], ids=["setcover", "3partition-many-triples", "3partition-large-target"])
def test_gen_refuses_an_instance_over_the_caps_before_generating(
    tmp_path, capsys, quiet_env, monkeypatch, argv, err
):
    monkeypatch.setattr(cli, "gen_random_setcover", _refuse_generating)
    monkeypatch.setattr(cli, "gen_random_3partition", _refuse_generating)
    out = tmp_path / "out.json"
    assert main(["gen", *argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(err)
    assert not out.exists()


def test_gen_writes_an_instance_at_the_caps(tmp_path, capsys, quiet_env, monkeypatch):
    out = tmp_path / "out.json"
    monkeypatch.setattr(io, "MAX_EDGES", 12)
    assert main(["gen", "setcover", "--items", "3", "--sets", "4", "--out", str(out)]) == 0
    assert main(["gen", "setcover", "--items", "13", "--sets", "1", "--out", str(out)]) == 1
    monkeypatch.setattr(io, "MAX_VERTICES", 19)
    assert main(["gen", "3partition", "--p", "2", "--s", "9", "--out", str(out)]) == 0
    assert main(["gen", "3partition", "--p", "2", "--s", "10", "--out", str(out)]) == 1
    capsys.readouterr()


def _inputs() -> dict[str, str]:
    """Valid inputs of every kind a command reads, keyed by file name."""
    rg = build_setcover_k3(FIG)
    return {
        "g.txt": format_edge_list(path_graph(5)),
        "c.txt": "0 2\n2 4\n",
        "sc.json": format_setcover_json(FIG),
        "tp.json": format_three_partition_json(ThreePartitionInstance(9, (3, 3, 3))),
        "red.txt": format_edge_list(rg.graph),
        "red.roles.json": io.format_role_map(rg),
        "cover.txt": io.format_completion(completion_from_cover(rg, [0, 1])),
    }


# each command with the input file it reads that the test corrupts
READERS = {
    "solve": (["solve", "--alg", "tree-opt", "--in", "g.txt", "--out", "out.txt"], "g.txt"),
    "check-graph": (["check", "--k", "3", "--graph", "g.txt", "--completion", "c.txt"], "g.txt"),
    "check-completion": (
        ["check", "--k", "3", "--graph", "g.txt", "--completion", "c.txt"], "c.txt"),
    "reduce-setcover": (["reduce", "setcover", "--in", "sc.json", "--out-graph", "out.txt",
                         "--out-roles", "out.roles.json"], "sc.json"),
    "reduce-3partition": (
        ["reduce", "3partition", "--in", "tp.json", "--out-graph", "out.txt"], "tp.json"),
    "goodify-roles": (["goodify", "--graph", "red.txt", "--roles", "red.roles.json",
                       "--completion", "cover.txt", "--out", "out.txt"], "red.roles.json"),
}


@pytest.mark.parametrize("case", list(READERS))
def test_commands_refuse_input_that_is_not_utf8(tmp_path, capsys, quiet_env, monkeypatch, case):
    monkeypatch.chdir(tmp_path)
    for name, text in _inputs().items():
        (tmp_path / name).write_text(text)
    argv, corrupt = READERS[case]
    assert main(argv) == 0  # the intact inputs are accepted
    capsys.readouterr()
    data = (tmp_path / corrupt).read_bytes()
    cut = data.index(b"\n") + 1
    (tmp_path / corrupt).write_bytes(data[:cut] + b"\xfe" + data[cut:])
    (tmp_path / "out.txt").unlink(missing_ok=True)
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {corrupt}: byte {cut} is not UTF-8 text\n"
    assert not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize(
    "construction, text",
    [
        ("setcover", "[" * 100_000),
        ("3partition", '{"s": ' + "9" * 5000 + ', "values": [3, 3, 3]}'),
    ],
)
def test_reduce_refuses_json_nested_too_deep_or_integers_too_long(
    tmp_path, capsys, quiet_env, construction, text
):
    (tmp_path / "in.json").write_text(text)
    argv = ["reduce", construction, "--in", str(tmp_path / "in.json"),
            "--out-graph", str(tmp_path / "out.txt"), "--out-roles", str(tmp_path / "r.json")]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: invalid JSON: ")


def test_goodify_refuses_a_role_map_nested_too_deep(tmp_path, capsys, quiet_env):
    rg = build_setcover_k3(FIG)
    write_graph(tmp_path / "red.txt", rg.graph)
    (tmp_path / "red.roles.json").write_text("[" * 100_000)
    write_completion(tmp_path / "c.txt", completion_from_cover(rg, [0, 1]))
    assert main(["goodify", "--graph", str(tmp_path / "red.txt"),
                 "--roles", str(tmp_path / "red.roles.json"),
                 "--completion", str(tmp_path / "c.txt"), "--out", str(tmp_path / "o.txt")]) == 1
    assert capsys.readouterr().err.startswith("error: invalid JSON: ")
