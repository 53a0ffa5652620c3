"""check_chordal against the two-pass heap search it replaced, and
find_bridges against remove-and-count, on arbitrary small graphs."""

from itertools import combinations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from kcover import Graph, check_chordal, find_bridges

from helpers import brute_bridges, heap_check_chordal


@settings(max_examples=600, deadline=None, derandomize=True)
@given(n=st.integers(0, 12), data=st.data())
def test_searches_match_their_references_property(n, data):
    pairs = list(combinations(range(n), 2))
    present = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph(n, [p for p, keep in zip(pairs, present) if keep])
    assert check_chordal(g) == heap_check_chordal(g)
    assert find_bridges(g) == brute_bridges(g)
