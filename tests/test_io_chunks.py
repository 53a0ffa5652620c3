"""Edge lists read the same whatever their size, pinned.

The graphs read from texts whose pair lines total one chunk of CHUNK bytes,
one byte less or one byte more, each with and without a final line break,
and from a large chordal text, are hashed with the `check` verdicts on them:
sha256 recorded while every text was read as one piece.  Each fault of an
edge list, placed once near its start and once near its end, gives the same
error and exit code from `solve` and from `check`.
"""

import hashlib

import pytest

from kcover import gen_random_chordal
from kcover import io
from kcover.cli import main
from kcover.io import format_edge_list, read_graph

CHUNK = 1 << 16

# sha256 of _sized_texts' reads and verdicts, see test_reads_and_verdicts_golden_hash
GOLDEN_READS_SHA256 = "7ff9e44d070f57fa0f69c5a90b2cec2a16afc0e4cd9808d7fd8ffecd6e79aa66"


@pytest.fixture
def quiet_env(monkeypatch):
    monkeypatch.delenv("COVER_LOG", raising=False)


def _path_lines(total: int, final: bool) -> list[str]:
    """The pair lines of a path whose text, with a line break after each line
    but the last one unless final, is total bytes: the first line is padded
    with leading blanks."""
    lines: list[str] = []
    size = -1 if not final else 0
    while size + len(f"{len(lines)} {len(lines) + 1}\n") + 8 <= total:
        lines.append(f"{len(lines)} {len(lines) + 1}")
        size += len(lines[-1]) + 1
    lines[0] = " " * (total - size) + lines[0]
    return lines


def _sized_texts():
    """(name, text) of paths whose pair lines total CHUNK - 1, CHUNK and
    CHUNK + 1 bytes, with and without a final line break, behind headers
    padded by 0 to 3 blanks, then a 2*10^4-vertex chordal graph of width 4."""
    for total in (CHUNK - 1, CHUNK, CHUNK + 1):
        for final in (True, False):
            lines = _path_lines(total, final)
            body = "\n".join(lines) + ("\n" if final else "")
            assert len(body.encode()) == total
            for pad in range(4):
                head = " " * pad + f"{len(lines) + 1} {len(lines)}\n"
                yield f"path-{total}-{final}-{pad}", head + body
    yield "chordal-w4", format_edge_list(gen_random_chordal(20_000, 4, 3))


def _run(argv: list[str], capsys) -> str:
    code = main(argv)
    out = capsys.readouterr()
    return f"{code}\n{out.out}{out.err}"


def test_reads_and_verdicts_golden_hash(tmp_path, capsys, quiet_env):
    assert io.CHUNK == CHUNK  # the sized texts straddle the reader's chunk
    gpath, cpath = tmp_path / "g.txt", tmp_path / "c.txt"
    cpath.write_text("# additions=0\n")
    h = hashlib.sha256()
    for name, text in _sized_texts():
        gpath.write_text(text)
        g = read_graph(gpath)
        h.update(f"{name} {g.n} {g.m} {g.edge_list()}\n".encode())
        for k in ("3", "4"):
            check = ["check", "--k", k, "--graph", str(gpath), "--completion", str(cpath)]
            h.update(_run(check, capsys).encode())
    assert h.hexdigest() == GOLDEN_READS_SHA256


N = 20_000  # the path's pair lines take about 3.3 chunks
HUGE = "9" * 5000  # over the 4,300 digits int() converts by default


def _faults(i: int) -> dict[str, tuple[str, str]]:
    """fault -> (the line put in place of pair line i of the path, which
    joins i and i + 1, and the error it causes)."""
    return {
        "id-over-n": (f"{i} {N}", f"edge ({i}, {N}) out of range for n={N}"),
        "repeated-pair": (f"{i - 1} {i}", f"duplicate edge ({i - 1}, {i})"),
        "reversed-duplicate": (f"{i} {i - 1}", f"duplicate edge ({i - 1}, {i})"),
        "self-loop": (f"{i} {i}", f"self-loop ({i},{i}) is not allowed"),
        "too-long": (
            f"{HUGE} {i}",
            f"line {i + 2}: expected two integers, got {HUGE + ' ' + str(i)!r}",
        ),
    }


@pytest.mark.parametrize("i", [3, N - 3], ids=["first-chunk", "last-chunk"])
@pytest.mark.parametrize("fault", list(_faults(3)))
def test_a_fault_in_the_first_or_last_chunk_is_named(tmp_path, capsys, quiet_env, i, fault):
    lines = [f"{v} {v + 1}" for v in range(N - 1)]
    assert len("\n".join(lines)) > 3 * CHUNK
    line, error = _faults(i)[fault]
    lines[i] = line
    gpath, cpath = tmp_path / "g.txt", tmp_path / "c.txt"
    gpath.write_text(f"{N} {N - 1}\n" + "\n".join(lines) + "\n")
    cpath.write_text("# additions=0\n")
    want = f"1\nerror: {error}\n"
    check = ["check", "--k", "3", "--graph", str(gpath), "--completion", str(cpath)]
    assert _run(check, capsys) == want
    assert _run(["solve", "--alg", "tree-opt", "--in", str(gpath), "--out", str(cpath)], capsys) == want
    assert cpath.read_text() == "# additions=0\n"
