import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from kcover import CoverSpec, gen_random_tree, validate_completion

from helpers import cover_trace


@settings(max_examples=150, deadline=None, derandomize=True)
@given(k=st.integers(5, 9), data=st.data())
def test_approx_tree_k_property(k, data):
    n = data.draw(st.integers(k, 300), label="n")
    g = gen_random_tree(n, data.draw(st.integers(0, 2**32 - 1), label="seed"))
    completion, covered, _ = cover_trace(g, k)
    assert validate_completion(g, completion, CoverSpec(k, 1)).ok
    assert validate_completion(g, completion, CoverSpec(3, k - 2)).ok
    assert sum(covered) == n - 1
    lower = (n - 1) * (k - 2) / 2
    assert math.ceil(lower) <= len(completion) <= (8 / 3) * lower
