"""Tests for the benchmark's independent checks, with negative controls.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import random
import shutil
import subprocess
import sys
from itertools import combinations
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import spans  # noqa: E402
from kcover import (  # noqa: E402
    RootedTree,
    SetCoverInstance,
    build_setcover_k,
    build_setcover_k3,
    gen_random_chordal,
    gen_random_setcover,
    gen_random_tree,
    goodify_3,
    goodify_k,
    optimal_chordal_31,
    optimal_tree_31,
)
from kcover.graph import CompletionSet  # noqa: E402

PATH5 = [(0, 1), (1, 2), (2, 3), (3, 4)]


def test_valid_completion_passes():
    assert checks.completion_problem(5, PATH5, [(0, 2), (2, 4)], 3) is None


def test_completion_with_one_addition_removed_fails():
    assert "fewer than 1 cliques" in checks.completion_problem(5, PATH5, [(0, 2)], 3)


def test_completion_readding_an_existing_edge_fails():
    problem = checks.completion_problem(5, PATH5, [(0, 2), (2, 4), (2, 1)], 3)
    assert "already an edge" in problem


def test_completion_leaving_the_graph_disconnected_fails():
    two_paths = [(0, 1), (1, 2), (3, 4), (4, 5)]
    assert checks.completion_problem(6, two_paths, [(0, 2), (3, 5)], 3) == "completed graph is disconnected"


def test_repeated_and_out_of_range_additions_fail():
    assert "listed twice" in checks.completion_problem(5, PATH5, [(0, 2), (2, 0), (2, 4)], 3)
    assert "distinct vertices" in checks.completion_problem(5, PATH5, [(0, 5)], 3)
    assert "distinct vertices" in checks.completion_problem(5, PATH5, [(2, 2)], 3)


def test_multiplicity_and_clique_order_are_both_enforced():
    k4 = list(combinations(range(4), 2))
    assert checks.completion_problem(4, k4, [], 3, 2) is None
    assert checks.completion_problem(4, k4, [], 3, 3) is not None
    assert checks.completion_problem(4, k4, [], 4, 1) is None
    # a 4-cycle with one chord has triangles on every edge but no 4-clique
    diamond = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)]
    assert checks.completion_problem(4, diamond, [], 3) is None
    assert checks.completion_problem(4, diamond, [], 4) is not None
    assert checks.completion_problem(4, diamond, [(1, 3)], 4) is None


def test_optimal_solver_outputs_pass_and_fail_with_any_addition_dropped():
    cases = []
    for seed in range(5):
        g = gen_random_tree(12, seed)
        cases.append((g, list(optimal_tree_31(RootedTree.from_graph(g)))))
        c = gen_random_chordal(14, 2, seed)
        cases.append((c, list(optimal_chordal_31(c))))
    for g, completion in cases:
        edges = sorted(g.edges)
        assert checks.completion_problem(g.n, edges, completion, 3) is None
        for i in range(len(completion)):
            assert checks.completion_problem(g.n, edges, completion[:i] + completion[i + 1:], 3)
        assert checks.completion_problem(g.n, edges, completion + [edges[0]], 3)


def _components(n: int, edges: list[tuple[int, int]]) -> int:
    adj = checks.adjacency(n, edges)
    seen, count = set(), 0
    for start in range(n):
        if start not in seen:
            count += 1
            stack = [start]
            seen.add(start)
            while stack:
                for w in adj[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
    return count


def test_bridges_are_the_edges_whose_removal_splits_a_component():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(2, 10)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.3]
        base = _components(n, edges)
        slow = {e for e in edges if _components(n, [f for f in edges if f != e]) > base}
        assert checks.bridges(n, edges) == slow


def test_bridge_tree_optimum_counts_each_bridge_tree():
    assert checks.bridge_tree_optimum(5, PATH5) == 2
    triangle = [(0, 1), (1, 2), (0, 2)]
    assert checks.bridge_tree_optimum(6, triangle + [(2, 3), (3, 4), (4, 5)]) == 2
    assert checks.bridge_tree_optimum(5, triangle + [(0, 3), (1, 4)]) == 2
    assert checks.bridge_tree_optimum(3, triangle) == 0


def test_insertion_order_accepts_generated_chordal_graphs_and_rejects_a_four_cycle():
    for seed in range(5):
        g = gen_random_chordal(40, 1 + seed % 4, seed)
        assert checks.insertion_order_problem(g.n, sorted(g.edges)) is None
    assert checks.insertion_order_problem(4, [(0, 1), (1, 2), (2, 3), (0, 3)]) is not None


def test_completion_of_size_refutes_a_too_small_size():
    path4 = [(0, 1), (1, 2), (2, 3)]
    assert checks.non_edges(4, path4) == [(0, 2), (0, 3), (1, 3)]
    assert checks.completion_of_size(4, path4, 3, 1, 1) is None
    found = checks.completion_of_size(4, path4, 3, 1, 2)
    assert found and checks.completion_problem(4, path4, found, 3) is None


def test_min_set_cover_is_the_smallest_cover():
    assert checks.min_set_cover(3, [[0, 1], [1, 2], [2]]) == [0, 1]
    assert checks.min_set_cover(2, [[0], [1], [0, 1]]) == [2]


def test_anchor_edges_match_the_reduction_builders():
    inst = gen_random_setcover(5, 6, 0.4, seed=2)
    for rg in (build_setcover_k3(inst), build_setcover_k(inst, 4), build_setcover_k(inst, 6)):
        roles = [(r.kind, r.index) for r in rg.roles]
        assert checks.anchor_edges(rg.k, roles) == rg.anchor_edges()


def test_goodify_problem_negative_controls():
    anchors = {(0, 9): 0, (1, 9): 1, (2, 9): 2}
    sets = [[0, 1], [1, 2], [2]]
    given = [(0, 9), (1, 9), (4, 5)]
    assert checks.goodify_problem([(0, 9), (1, 9)], given, anchors, 3, sets, 2) is None
    assert "not an anchor" in checks.goodify_problem([(0, 9), (4, 5)], given, anchors, 3, sets, None)
    assert "input only" in checks.goodify_problem([(0, 9), (1, 9), (2, 9)], given[:2], anchors, 3, sets, None)
    assert "uncovered" in checks.goodify_problem([(0, 9)], given, anchors, 3, sets, None)
    assert "minimum cover" in checks.goodify_problem([(0, 9), (1, 9), (2, 9)], given, anchors, 3, sets, 2)


def test_padding_keeps_the_completion_valid_and_goodify_removes_it():
    from workloads import _padding

    inst = SetCoverInstance(4, [frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3}), frozenset({3})])
    cover = checks.min_set_cover(4, [sorted(s) for s in inst.sets])
    for k in (3, 4, 6):
        rg = build_setcover_k3(inst) if k == 3 else build_setcover_k(inst, k)
        roles = [(r.kind, r.index) for r in rg.roles]
        anchor_of = {j: e for e, j in checks.anchor_edges(k, roles).items()}
        pad = _padding(rg.graph.n, rg.graph.edges, roles, random.Random(k), 3)
        given = [anchor_of[j] for j in cover] + pad
        assert pad and checks.completion_problem(rg.graph.n, sorted(rg.graph.edges), given, k) is None
        good = goodify_3(rg, CompletionSet(given)) if k == 3 else goodify_k(rg, CompletionSet(given), k)
        assert sorted(good) == sorted(anchor_of[j] for j in cover)


def test_layer_metrics_from_spans():
    # round -> command -> cli.main -> (io.parse, trees.opt31 -> graph.build)
    rows = [
        ["bench.setup", 0.0, 1.0, -1, None],
        ["generators", 0.1, 0.6, 0, None],
        ["bench.round", 1.0, 9.0, -1, None],
        ["bench.command", 1.0, 4.0, 2, {"doubling": "opt31", "size": "n"}],
        ["cli.main", 1.0, 4.0, 3, None],
        ["io.parse", 1.0, 1.5, 4, None],
        ["trees.opt31", 2.0, 3.0, 4, None],
        ["graph.build", 2.2, 2.4, 6, None],
        ["bench.command", 4.0, 9.0, 2, {"doubling": "opt31", "size": "2n"}],
        ["cli.main", 4.0, 9.0, 8, None],
        ["trees.opt31", 5.0, 7.5, 9, None],
    ]
    got = spans.layer_metrics(rows)
    assert set(got) == set(spans.UNITS)
    assert got["trees.opt31_s"] == 3.5
    assert got["io.parse_s"] == 0.5
    assert abs(got["graph.build_s"] - 0.2) < 1e-12
    assert got["cli.self_s"] == (3.0 - 1.5) + (5.0 - 2.5)
    assert got["trees.opt31_doubling"] == 2.5
    assert got["generators.s"] == 0.5
    assert got["oracle.solve_s"] == 0.0 and got["oracle.verdict_s_p90"] == 0.0


def test_benchmark_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tree-large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
