from itertools import combinations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from kcover import CompletionSet, CoverSpec, Graph, validate_completion

from helpers import slow_validate


@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.integers(0, 9), k=st.integers(3, 6), l=st.integers(1, 3), data=st.data())
def test_validate_completion_matches_slow_checker_property(n, k, l, data):
    # each vertex pair is absent (0), an edge of g (1) or an addition (2)
    pairs = list(combinations(range(n), 2))
    role = data.draw(st.lists(st.integers(0, 2), min_size=len(pairs), max_size=len(pairs)))
    g = Graph(n, [p for p, r in zip(pairs, role) if r == 1])
    c = CompletionSet(p for p, r in zip(pairs, role) if r == 2)
    assert validate_completion(g, c, CoverSpec(k, l)) == slow_validate(g, c, k, l)
