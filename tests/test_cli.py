import json
import logging

import pytest

from kcover import (
    SetCoverInstance,
    build_setcover_k,
    build_setcover_k3,
    completion_from_cover,
    gen_random_tree,
)
from kcover import io
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


def test_check_reports_each_unsaturated_edge(tmp_path, capsys, quiet_env):
    gpath, cpath = tmp_path / "g.txt", tmp_path / "c.txt"
    write_graph(gpath, path_graph(3))
    cpath.write_text("# additions=0\n")

    assert main(["check", "--k", "3", "--graph", str(gpath), "--completion", str(cpath)]) == 2
    out = capsys.readouterr().out
    assert "unsaturated 0 1" in out and "unsaturated 1 2" in out


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
