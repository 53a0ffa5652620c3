import random
from itertools import combinations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from kcover import (
    CompletionSet, CoverSpec, Graph, InputError, validate_completion, validate_pairs,
)

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


@settings(max_examples=600, deadline=None, derandomize=True)
@given(n=st.integers(4, 12), k=st.integers(3, 7), l=st.integers(1, 3),
       density=st.integers(50, 95), seed=st.integers(0, 2**32 - 1))
def test_validate_matches_slow_checker_on_dense_graphs_property(n, k, l, density, seed):
    # most pairs are present, so most edges lie in k-cliques, several of
    # which share edges, and the clique counts run deep; each pair is
    # absent, an edge of g or an addition
    rng = random.Random(seed)
    present = [p for p in combinations(range(n), 2) if rng.randrange(100) < density]
    added = [rng.random() < 0.3 for _ in present]
    g = Graph(n, [p for p, a in zip(present, added) if not a])
    c = CompletionSet(p for p, a in zip(present, added) if a)
    want = slow_validate(g, c, k, l)
    assert validate_completion(g, c, CoverSpec(k, l)) == want
    assert validate_pairs(n, sorted(g.edges), c, CoverSpec(k, l)) == want


def _outcome(check):
    try:
        return check()
    except InputError as exc:
        return f"InputError: {exc}"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=st.integers(-1, 10), k=st.integers(3, 6), l=st.integers(1, 3), data=st.data())
def test_validate_pairs_matches_validate_completion_property(n, k, l, data):
    # mostly distinct pairs of 0..n-1, in either orientation, plus up to two
    # arbitrary pairs: self-loops, duplicates and pairs out of range
    vertex = st.integers(-1, max(n, 0))
    anything = st.tuples(vertex, vertex)
    pair = st.sampled_from(list(combinations(range(n), 2))) if n > 1 else anything
    pairs = data.draw(st.lists(pair, unique=True, max_size=20))
    flips = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    pairs = [(v, u) if flip else (u, v) for (u, v), flip in zip(pairs, flips)]
    for extra in data.draw(st.lists(anything, max_size=2)):
        pairs.insert(data.draw(st.integers(0, len(pairs))), extra)
    # additions: non-edges, edges already present and pairs out of range
    adds = data.draw(st.lists(st.one_of(pair, anything), max_size=8))
    c = CompletionSet(dict.fromkeys((min(e), max(e)) for e in adds if e[0] != e[1]))
    spec = CoverSpec(k, l)
    assert _outcome(lambda: validate_pairs(n, pairs, c, spec)) == _outcome(
        lambda: validate_completion(Graph(n, pairs), c, spec)
    )
