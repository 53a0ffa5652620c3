"""What kcover writes is read in bulk: the line-by-line readers, which only
name a bad line, are never reached, and the bulk path's peak memory stays
within a fixed multiple of what its result keeps."""

import tracemalloc

import pytest

from kcover import (
    CompletionSet,
    Graph,
    SetCoverInstance,
    build_setcover_k,
    gen_random_chordal,
    gen_random_tree,
    optimal_tree_31,
)
from kcover import io
from kcover.io import format_completion, format_edge_list, parse_completion, parse_edge_list

from helpers import rooted

FIG = SetCoverInstance(3, [frozenset({0, 1}), frozenset({1, 2}), frozenset({2})])


def refuse_line_by_line(*args):
    raise AssertionError("well-formed text reached the line-by-line reader")


@pytest.fixture
def bulk_only(monkeypatch):
    monkeypatch.setattr(io, "_data_lines", refuse_line_by_line)
    monkeypatch.setattr(io, "_parse_pair", refuse_line_by_line)


@pytest.mark.parametrize("g", [
    Graph(0, []),
    Graph(1, []),
    gen_random_tree(50, 1),
    gen_random_chordal(60, 3, 2),
    build_setcover_k(FIG, 5).graph,
], ids=["n=0", "n=1", "tree", "chordal", "setcover-k5"])
def test_written_edge_lists_are_read_in_bulk(bulk_only, g):
    for connected in (False, True):
        assert parse_edge_list(format_edge_list(g), connected) == g


@pytest.mark.parametrize("c", [
    CompletionSet([]),
    optimal_tree_31(rooted(gen_random_tree(50, 1))),
], ids=["empty", "tree-opt"])
def test_written_completions_are_read_in_bulk(bulk_only, c):
    assert parse_completion(format_completion(c)) == c


def test_bulk_read_peaks_within_a_multiple_of_its_result():
    # peak / kept was 2.3 line by line and is 2.2 in bulk; validating with a
    # repeated group over the lines, fullmatch(r"(?:<pair>\n)*"), took 4.0
    text = format_edge_list(gen_random_chordal(20000, 4, 1))
    tracemalloc.start()
    try:
        n, pairs = io.parse_edge_pairs(text)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(pairs) > 30_000
    assert peak <= 3.0 * kept
