"""The edge-list and completion readers agree with their line-by-line form.

tests/helpers.py keeps parse_edge_pairs and parse_completion as they were
when every line was stripped, split and converted in Python.  On every text
below, each reader and its copy return equal values, or both raise an
InputError with the same message.  The texts are mostly well-formed pair
lines; some carry the odd lines, blanks, line ends and integers that only a
line-by-line reading handles.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from kcover import InputError
from kcover.io import parse_completion, parse_edge_pairs

from helpers import linewise_completion, linewise_edge_pairs

# over the 4,300 digits int() converts by default
BIG = "1" * 4301
HUGE = "9" * 5000
blanks = st.sampled_from(["", "", "", " ", "\t", "  ", " \t"])
seps = st.sampled_from([" ", " ", " ", "\t", "  ", " \t "])
odd_lines = st.sampled_from([
    "", "   ", "\t", "# note", "  # note", "# additions=2", "#additions=x",
    "+1 2", "1 -2", "1_0 2", "٣ 1", "1 ٣", "1 2 3", "1", "a b", "1,2",
    "1\x0b2", "1\x0c2", "1\x1c2", "1\x852", "1\u20282", "1\xa02", "\xa01 2", "1 2\xa0",
    f"{BIG} 1", f"1 {BIG}", f"{HUGE} 2",
])
ends = st.sampled_from(["\n"] * 8 + ["\r\n", "\r"])


def number(draw, v: int) -> str:
    return draw(st.sampled_from(["", "", "", "", "0", "00"])) + str(v)


@st.composite
def pair_lines(draw) -> list[str]:
    """Well-formed lines of distinct pairs, sometimes with odd lines among them."""
    pairs = draw(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)).filter(
        lambda p: p[0] != p[1]), max_size=8, unique_by=frozenset))
    lines = [draw(blanks) + number(draw, u) + draw(seps) + number(draw, v) + draw(blanks)
             for u, v in pairs]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        lines.insert(draw(st.integers(0, len(lines))), draw(odd_lines))
    return lines


def joined(draw, lines: list[str]) -> str:
    """lines with mostly '\\n' line ends, the last one with or without its own."""
    text = "".join(line + draw(ends) for line in lines[:-1])
    if lines:
        text += lines[-1] + draw(st.sampled_from(["\n", "\n", ""]))
    return text


@st.composite
def edge_lists(draw) -> str:
    lines = draw(pair_lines())
    n = draw(st.sampled_from([str(v) for v in range(len(lines) + 3)] * 3
                             + ["0", "007", BIG, "-1", "+3", "10000001"]))
    m = draw(st.sampled_from([len(lines)] * 6 + [len(lines) + 1, len(lines) - 1, 0]))
    head = draw(st.sampled_from([f"{n} {m}"] * 8 + [f" {n}\t{m} ", f"{n} {BIG}", f"{n}", ""]))
    lines.insert(0, head)
    for _ in range(draw(st.sampled_from([0, 0, 0, 1]))):
        lines.insert(draw(st.integers(0, 1)), draw(odd_lines))
    return joined(draw, lines)


@st.composite
def completions(draw) -> str:
    lines = draw(pair_lines())
    count = draw(st.sampled_from([len(lines)] * 4 + [len(lines) + 1, len(lines) - 1]))
    head = draw(st.sampled_from(
        [f"# additions={count}"] * 8 + [f"# additions={BIG}", "# additions=x", "# note", None]
    ))
    if head is not None:
        lines.insert(0, head)
    return joined(draw, lines)


def outcome(read, *args):
    try:
        return "value", read(*args)
    except InputError as exc:
        return "error", str(exc)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(edge_lists(), st.booleans())
def test_parse_edge_pairs_matches_the_line_by_line_reader(text, connected):
    assert outcome(parse_edge_pairs, text, connected) == outcome(
        linewise_edge_pairs, text, connected)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(completions())
def test_parse_completion_matches_the_line_by_line_reader(text):
    assert outcome(parse_completion, text) == outcome(linewise_completion, text)
