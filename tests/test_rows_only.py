"""Graph keeps only its sorted neighbour rows; its edge set is built on each
read of Graph.edges.  No command and no inverse map may read it, so each of
them runs here with that property made to raise."""

import pytest

from kcover import Graph, completion_from_cover, gen_random_3partition
from kcover.cli import main
from kcover.io import read_reduction, write_completion
from kcover.reductions import (
    build_spider,
    completion_from_partition,
    partition_from_edge_partition,
    spider_leg_edges,
)


@pytest.fixture
def no_edge_set(monkeypatch):
    def refuse(self):
        raise AssertionError("Graph.edges was read")

    monkeypatch.setattr(Graph, "edges", property(refuse))
    monkeypatch.delenv("COVER_LOG", raising=False)


def _run(*argv) -> None:
    assert main([str(a) for a in argv]) == 0


GEN = [
    ("tree", "--n", 9),
    ("chordal", "--n", 12),
    ("spider", "--legs", "2,1,3"),
    ("worst-spider", "--n", 7),
    ("setcover", "--items", 4),
    ("3partition", "--p", 2),
]

# (alg, its flags, the gen family it solves, the spec its output is checked at)
SOLVE = [
    ("tree-opt", [], "tree", ["--k", 3]),
    ("tree-approx4", [], "tree", ["--k", 4]),
    ("tree-approx", ["--k", 5], "tree", ["--k", 5]),
    ("chordal-opt", [], "chordal", ["--k", 3]),
    ("brute", ["--k", 4], "spider", ["--k", 4]),
    ("brute", ["--k", 3, "--l", 2, "--max-additions", 12], "worst-spider", ["--k", 3, "--l", 2]),
]


def test_every_command_runs_without_the_edge_set(tmp_path, capsys, no_edge_set):
    at = tmp_path.joinpath
    for family, *flags in GEN:
        _run("gen", family, *flags, "--out", at(f"{family}.txt"))
    for i, (alg, flags, family, spec) in enumerate(SOLVE):
        out = at(f"{alg}{i}.out")
        _run("solve", "--alg", alg, *flags, "--in", at(f"{family}.txt"), "--out", out)
        _run("check", *spec, "--graph", at(f"{family}.txt"), "--completion", out)
    for k in (3, 4):
        graph, roles, given = at(f"sc{k}.txt"), at(f"sc{k}.json"), at(f"sc{k}.given")
        _run("reduce", "setcover", "--k", k, "--in", at("setcover.txt"),
             "--out-graph", graph, "--out-roles", roles)
        rg = read_reduction(graph, roles)
        write_completion(given, completion_from_cover(rg, range(rg.set_count)))
        _run("goodify", "--k", k, "--graph", graph, "--roles", roles,
             "--completion", given, "--out", at(f"sc{k}.good"))
        _run("check", "--k", k, "--graph", graph, "--completion", at(f"sc{k}.good"))
    _run("reduce", "3partition", "--in", at("3partition.txt"), "--out-graph", at("spider3p.txt"))
    capsys.readouterr()


def test_both_3partition_maps_run_without_the_edge_set(no_edge_set):
    inst, witness = gen_random_3partition(4, 13, 5)
    spider = build_spider(inst)
    assert len(completion_from_partition(inst, spider, witness)) == 4 * 13 * 12 // 2
    groups = [[e for leg in triple for e in spider_leg_edges(inst, leg)] for triple in witness]
    assert partition_from_edge_partition(inst, spider, groups) == [
        tuple(sorted(triple)) for triple in witness
    ]
