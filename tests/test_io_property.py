"""Every parser either returns a value or raises InputError, and formatting
then parsing gives back what was formatted."""

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from kcover import CompletionSet, Graph, InputError
from kcover import io
from kcover.reductions import ROLE_KINDS

PARSERS = [
    io.parse_edge_list,
    io.parse_completion,
    io.parse_setcover_json,
    io.parse_three_partition_json,
    io.parse_role_map,
]

# small integers and the formats' own keys and words
ints = st.integers(-3, 12)
words = st.sampled_from(["universe", "sets", "t", "s", "values", "k", "roles", "kind", "index",
                         "0", "1", "2", *ROLE_KINDS])
scalars = st.none() | st.booleans() | ints | st.floats() | words | st.text(max_size=3)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(words | st.text(max_size=3), inner, max_size=5),
    max_leaves=20,
)
# objects shaped like each JSON format, so that most pass the type checks
# and reach the instance checks behind them
entries = st.fixed_dictionaries({"kind": words}, optional={"index": ints | scalars}) | json_values
role_maps = st.dictionaries(st.sampled_from(["0", "1", "3", "x", "01"]), entries, max_size=3) | (
    st.lists(entries, max_size=4).map(lambda es: {str(v): e for v, e in enumerate(es)}))
json_objects = st.one_of(
    st.fixed_dictionaries(
        {"universe": ints,
         "sets": st.lists(st.lists(ints | scalars, max_size=3) | scalars, max_size=4)},
        optional={"t": ints | scalars},
    ),
    st.fixed_dictionaries({"s": ints, "values": st.lists(ints | scalars, max_size=6)}),
    st.fixed_dictionaries({"k": ints, "roles": role_maps}),
)
# lines of small integers, comments and noise, as in edge lists and completion files
text_lines = st.lists(
    st.one_of(
        st.tuples(st.integers(-2, 8), st.integers(-2, 8)).map(lambda p: f"{p[0]} {p[1]}"),
        st.sampled_from(["", "# additions=2", "# additions=x", "#", "1", "1 2 3"]),
        st.text(max_size=6),
    ),
    max_size=8,
).map("\n".join)
texts = st.text() | text_lines | json_values.map(json.dumps)


def _parse_all(parsers, text):
    for parse in parsers:
        try:
            parse(text)
        except InputError:
            pass


@settings(max_examples=200, deadline=None, derandomize=True)
@given(text=texts)
def test_parsers_return_a_value_or_raise_input_error(text):
    _parse_all(PARSERS, text)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(obj=json_objects)
def test_json_parsers_return_a_value_or_raise_input_error(obj):
    _parse_all(PARSERS[2:], json.dumps(obj))


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(g=graphs())
def test_edge_list_round_trip_property(g):
    assert io.parse_edge_list(io.format_edge_list(g)) == g


@settings(max_examples=200, deadline=None, derandomize=True)
@given(pairs=st.lists(
    st.tuples(st.integers(0, 30), st.integers(0, 30)).filter(lambda p: p[0] < p[1]), unique=True))
def test_completion_round_trip_property(pairs):
    c = CompletionSet(pairs)
    assert io.parse_completion(io.format_completion(c)) == c
