"""The exact (3,1) solvers and approx_tree_4 on random trees and relabelled
random chordal graphs: every output validates and has the paper's size."""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from kcover import (
    CoverSpec,
    approx_tree_4,
    gen_random_chordal,
    gen_random_tree,
    optimal_chordal_31,
    optimal_tree_31,
    validate_completion,
)

from helpers import brute_bridges, permuted, rooted

seeds = st.integers(0, 2**32 - 1)
runs = settings(max_examples=150, deadline=None, derandomize=True)


def bridge_tree_sizes(g):
    """The edge count of each tree the bridges of g form, from brute_bridges."""
    left = set(brute_bridges(g))
    sizes = []
    while left:
        tree = {left.pop()}
        touching = tree
        while touching:
            ends = {v for e in touching for v in e}
            touching = {e for e in left if ends.intersection(e)}
            left -= touching
            tree |= touching
        sizes.append(len(tree))
    return sizes


@runs
@given(n=st.integers(3, 300), seed=seeds)
def test_optimal_tree_31_property(n, seed):
    g = gen_random_tree(n, seed)
    c = optimal_tree_31(rooted(g))
    assert validate_completion(g, c, CoverSpec(3, 1)).ok
    assert len(c) == math.ceil((n - 1) / 2)


@runs
@given(n=st.integers(4, 300), seed=seeds)
def test_approx_tree_4_property(n, seed):
    g = gen_random_tree(n, seed)
    c = approx_tree_4(rooted(g))
    assert validate_completion(g, c, CoverSpec(4, 1)).ok
    assert validate_completion(g, c, CoverSpec(3, 2)).ok
    assert len(c) <= 2 * (n - 1)


@runs
@given(width=st.integers(1, 3), seed=seeds, relabel=seeds, data=st.data())
def test_optimal_chordal_31_property(width, seed, relabel, data):
    n = data.draw(st.integers(max(3, width + 1), 40), label="n")
    g = permuted(gen_random_chordal(n, width, seed), relabel)
    c = optimal_chordal_31(g)
    assert validate_completion(g, c, CoverSpec(3, 1)).ok
    assert len(c) == sum(math.ceil(size / 2) for size in bridge_tree_sizes(g))
