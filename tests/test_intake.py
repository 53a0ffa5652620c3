"""The exact error each reader of edge pairs raises, case by case.

Graph, validate_pairs, parse_edge_list and `kcover solve`/`kcover check` read
a vertex count and pairs; CompletionSet, parse_completion, the additions of
validate_pairs and the completion file of `kcover check` read pairs alone.  Each table row is one input and the
message it must end in.  When an input has several faults, the first one in
input order is the one reported.
"""

from itertools import chain

import pytest

from kcover import CompletionSet, CoverSpec, Graph, InputError, validate_pairs
from kcover.cli import main
from kcover.graph import PairSource
from kcover.io import parse_completion, parse_completion_pairs, parse_edge_list

NEGATIVE = "vertex count must be non-negative"

# (id, n, pairs, message)
GRAPH_CASES = [
    ("negative-n", -1, [], NEGATIVE),
    ("negative-n-before-a-self-loop", -1, [(0, 0)], NEGATIVE),
    ("self-loop", 3, [(0, 1), (2, 2)], "self-loop (2,2) is not allowed"),
    ("endpoint-minus-one", 3, [(0, 1), (2, -1)], "edge (-1, 2) out of range for n=3"),
    ("endpoint-n", 3, [(0, 1), (3, 1)], "edge (1, 3) out of range for n=3"),
    ("repeat", 3, [(0, 1), (1, 2), (0, 1)], "duplicate edge (0, 1)"),
    ("repeat-flipped", 3, [(0, 1), (1, 2), (2, 1)], "duplicate edge (1, 2)"),
    ("repeat-then-self-loop", 3, [(1, 0), (0, 1), (2, 2)], "duplicate edge (0, 1)"),
    ("self-loop-then-repeat", 3, [(2, 2), (1, 0), (0, 1)], "self-loop (2,2) is not allowed"),
    ("self-loop-then-out-of-range", 3, [(1, 1), (0, 3)], "self-loop (1,1) is not allowed"),
    ("out-of-range-then-self-loop", 3, [(3, 0), (1, 1)], "edge (0, 3) out of range for n=3"),
    ("repeated-out-of-range", 3, [(0, 5), (5, 0)], "edge (0, 5) out of range for n=3"),
    ("no-vertices", 0, [(0, 1)], "edge (0, 1) out of range for n=0"),
]

# (id, pairs, message); a completion has no vertex count to range-check against
COMPLETION_CASES = [
    ("self-loop", [(0, 1), (2, 2)], "self-loop (2,2) is not allowed"),
    ("repeat", [(0, 2), (1, 2), (0, 2)], "duplicate addition (0, 2)"),
    ("repeat-flipped", [(0, 2), (1, 2), (2, 0)], "duplicate addition (0, 2)"),
    ("repeat-then-self-loop", [(1, 0), (0, 1), (2, 2)], "duplicate addition (0, 1)"),
    ("self-loop-then-repeat", [(2, 2), (1, 0), (0, 1)], "self-loop (2,2) is not allowed"),
    ("out-of-range-then-self-loop", [(-1, 7), (1, 1)], "self-loop (1,1) is not allowed"),
]

# (id, text, message or the additions parse_completion returns)
COMPLETION_FILES = [
    ("later-count-wins", "# additions=5\n2 0\n# additions=1\n", [(0, 2)]),
    ("later-count-is-checked", "# additions=1\n0 2\n# additions=5\n",
     "file declares additions=5 but lists 1 pairs"),
    ("bad-count", "# additions=two\n0 2\n", "bad additions count in '# additions=two'"),
    ("bad-count-before-a-good-one", "# additions=two\n# additions=1\n0 2\n",
     "bad additions count in '# additions=two'"),
    ("count-given-twice-in-one-line", "# additions=1 additions=1\n0 2\n",
     "bad additions count in '# additions=1 additions=1'"),
    ("count-mismatch", "# additions=2\n0 2\n", "file declares additions=2 but lists 1 pairs"),
    ("bad-pair-line-before-a-bad-count", "0 x\n# additions=two\n",
     "bad additions count in '# additions=two'"),
    ("bad-pair-line-with-a-count-mismatch", "# additions=3\n0 x\n",
     "line 2: expected two integers, got '0 x'"),
    ("count-mismatch-before-a-repeat", "# additions=3\n0 2\n2 0\n",
     "file declares additions=3 but lists 2 pairs"),
]


def _outcome(build):
    try:
        return build()
    except InputError as exc:
        return str(exc)


def _source(pairs, reads):
    """A PairSource of pairs that counts its reads in reads[0]."""
    def numbers():
        reads[0] += 1
        return chain.from_iterable(pairs)

    return PairSource(len(pairs), numbers)


def _edge_text(n, pairs):
    return "".join(f"{u} {v}\n" for u, v in [(n, len(pairs)), *pairs])


def _pair_text(pairs):
    return "".join(f"{u} {v}\n" for u, v in pairs)


@pytest.mark.parametrize("n,pairs,message", [c[1:] for c in GRAPH_CASES],
                         ids=[c[0] for c in GRAPH_CASES])
def test_graph_readers_raise_the_first_fault(n, pairs, message):
    empty, spec = CompletionSet(), CoverSpec(3)
    assert _outcome(lambda: Graph(n, pairs)) == message
    assert _outcome(lambda: Graph(n, iter(pairs))) == message
    assert _outcome(lambda: Graph(n, _source(pairs, [0]))) == message
    assert _outcome(lambda: validate_pairs(n, pairs, empty, spec)) == message
    assert _outcome(lambda: validate_pairs(n, iter(pairs), empty, spec)) == message
    assert _outcome(lambda: validate_pairs(n, _source(pairs, [0]), empty, spec)) == message
    assert _outcome(lambda: parse_edge_list(_edge_text(n, pairs))) == message


@pytest.mark.parametrize("pairs,want", [([(0, 1), (2, 1)], 1), ([(0, 1), (2, 1), (1, 0)], 2)],
                         ids=["well-formed", "repeat"])
def test_a_pair_source_is_read_again_only_to_name_a_fault(pairs, want):
    for read in (Graph, lambda n, s: validate_pairs(n, s, CompletionSet(), CoverSpec(3))):
        reads = [0]
        _outcome(lambda: read(3, _source(pairs, reads)))
        assert reads[0] == want


@pytest.mark.parametrize("n,pairs,message", [c[1:] for c in GRAPH_CASES],
                         ids=[c[0] for c in GRAPH_CASES])
def test_solve_and_check_report_the_first_graph_fault(tmp_path, capsys, monkeypatch,
                                                      n, pairs, message):
    monkeypatch.delenv("COVER_LOG", raising=False)
    gpath, cpath, out = tmp_path / "g.txt", tmp_path / "c.txt", tmp_path / "out.txt"
    gpath.write_text(_edge_text(n, pairs))
    cpath.write_text("# additions=0\n")
    assert main(["solve", "--alg", "tree-opt", "--in", str(gpath), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()
    assert main(["check", "--k", "3", "--graph", str(gpath), "--completion", str(cpath)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_a_completion_is_not_range_checked():
    assert CompletionSet([(7, -1), (0, 9)]).additions == ((-1, 7), (0, 9))
    assert list(parse_completion("7 -1\n0 9\n")) == [(-1, 7), (0, 9)]


@pytest.mark.parametrize("pairs,message", [c[1:] for c in COMPLETION_CASES],
                         ids=[c[0] for c in COMPLETION_CASES])
def test_completion_readers_raise_the_first_fault(pairs, message):
    assert _outcome(lambda: CompletionSet(pairs)) == message
    assert _outcome(lambda: CompletionSet(iter(pairs))) == message
    assert _outcome(lambda: parse_completion(_pair_text(pairs))) == message
    # validate_pairs takes the additions as read, and names their faults first
    text = _pair_text(pairs)
    for additions in (pairs, iter(pairs), _source(pairs, [0]), parse_completion_pairs(text)):
        assert _outcome(lambda: validate_pairs(3, [(0, 1)], additions, CoverSpec(3))) == message


@pytest.mark.parametrize("text,want", [c[1:] for c in COMPLETION_FILES],
                         ids=[c[0] for c in COMPLETION_FILES])
def test_completion_file_faults(tmp_path, capsys, monkeypatch, text, want):
    got = _outcome(lambda: parse_completion(text))
    assert (list(got) if isinstance(got, CompletionSet) else got) == want
    if isinstance(want, str):
        monkeypatch.delenv("COVER_LOG", raising=False)
        gpath, cpath = tmp_path / "g.txt", tmp_path / "c.txt"
        gpath.write_text("3 2\n0 1\n1 2\n")
        cpath.write_text(text)
        assert main(["check", "--k", "3", "--graph", str(gpath), "--completion", str(cpath)]) == 1
        assert capsys.readouterr() == ("", f"error: {want}\n")


@pytest.mark.parametrize("text,message", [
    ("x 2\n0 0\n0 1\n", "line 1: expected two integers, got 'x 2'"),
    ("3 5\n0 0\n", "header announces 5 edges but the file has 1"),
    ("3 3\n0 0\n1 y\n0 1\n", "line 3: expected two integers, got '1 y'"),
], ids=["bad-header-before-a-self-loop", "bad-count-before-a-self-loop",
        "self-loop-before-a-bad-pair-line"])
def test_an_edge_list_is_read_before_its_pairs_are_checked(text, message):
    assert _outcome(lambda: parse_edge_list(text)) == message
