"""Text formats: edge lists, completion files, JSON instance files, role maps.

All formatters emit deterministic output (sorted edges, sorted JSON keys) so
identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
import re
import sys
from bisect import bisect_right
from functools import partial
from itertools import chain
from pathlib import Path
from typing import Iterator

from .errors import InputError
from .graph import CompletionSet, Graph, PairSource
from .reductions import (
    LabeledReductionGraph,
    Role,
    SetCoverInstance,
    ThreePartitionInstance,
)


def _data_lines(text: str) -> tuple[list[tuple[int, str]], list[str]]:
    """The numbered data lines of text, and its '#' comment lines, stripped."""
    data, comments = [], []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("#"):
            comments.append(line)
        elif line:
            data.append((no, line))
    return data, comments


def _parse_pair(line: str, no: int) -> tuple[int, int]:
    parts = line.split()
    if len(parts) != 2:
        raise InputError(f"line {no}: expected two integers, got {line!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise InputError(f"line {no}: expected two integers, got {line!r}") from None


# An unsigned decimal integer of at most the digits int() converts, as set at
# start-up (0 sets no limit): a longer number is read line by line, which
# names its line, before anything is built.
_DIGITS = getattr(sys, "get_int_max_str_digits", int)()
_NUMBER = f"[0-9]{{1,{_DIGITS}}}" if _DIGITS else "[0-9]+"
# A line of two such integers, blanks aside, as kcover writes every pair and
# header line.
_PAIR_LINE = re.compile(rf"[ \t]*({_NUMBER})[ \t]+({_NUMBER})[ \t]*")
_COUNT_LINE = re.compile(rf"# additions=({_NUMBER})")
# The start of the first line that is not a _PAIR_LINE, a final empty line
# aside.  The search keeps no state from one line to the next, whereas a
# repeated group over the lines, fullmatch(r"(?:<pair>\n)*"), holds memory
# for every line it has passed.
_BAD_LINE = re.compile(rf"^(?!\Z)(?!{_PAIR_LINE.pattern}$)", re.M)
# A pass over the pairs of a text splits and converts this many characters
# of it at a time, and the rest of the line they end in.
CHUNK = 1 << 16


def _ints(match: re.Match | None) -> tuple[int, ...] | None:
    """The groups of match as integers, or None without a match."""
    return tuple(map(int, match.groups())) if match else None


def _first_line(text: str) -> tuple[str, int]:
    """The first line of text, and where the rest of text starts."""
    end = text.find("\n")
    return (text, len(text)) if end < 0 else (text[:end], end + 1)


def _bulk_pairs(text: str, start: int) -> PairSource | None:
    """The pairs of text from start on when every line there is a _PAIR_LINE,
    or None.

    The text is searched by a C-level bulk operation; text it refuses goes to
    the line-by-line readers, which name the first bad line.  Every read of
    the pairs converts the text afresh (see _numbers), so that neither a list
    of all its tokens nor one of its pairs is ever made.
    """
    if _BAD_LINE.search(text, start):
        return None
    count = text.count("\n", start) + (len(text) > start and text[-1] != "\n")
    return PairSource(count, partial(_numbers, text, start))


def _numbers(text: str, start: int) -> Iterator[int]:
    """The integers of text from start on, split and converted a chunk (see
    CHUNK) at a time.  A chunk's integers are listed before they are handed
    out: made one by one as rows are filled, they would share the
    allocator's pools with the rows' small arrays, and the chordal solve on a
    graph so read ran 5-10% slower."""
    return chain.from_iterable(list(map(int, chunk.split())) for chunk in _chunks(text, start))


def _chunks(text: str, start: int) -> Iterator[str]:
    """text from start on, cut after the first line break at or past each
    CHUNK characters."""
    while start < len(text):
        end = text.find("\n", start + CHUNK) + 1 or len(text)
        yield text[start:end]
        start = end


# The largest vertex count an edge list may declare.  A graph allocates its
# adjacency for every vertex before it reads an edge, so the header is checked
# against this cap first.
MAX_VERTICES = 10_000_000
# The largest edge count of a graph kcover builds to write out or to solve.
MAX_EDGES = 10_000_000


def check_order(n: int, source: str) -> None:
    """Refuse a vertex count above MAX_VERTICES before anything is built for it."""
    if n > MAX_VERTICES:
        raise InputError(f"{source} n={n} vertices; at most {MAX_VERTICES} are supported")


def check_size(m: int, source: str) -> None:
    """Refuse an edge count above MAX_EDGES before anything is built for it."""
    if m > MAX_EDGES:
        raise InputError(f"{source} m={m} edges; at most {MAX_EDGES} are supported")


def parse_edge_pairs(
    text: str, connected: bool = False
) -> tuple[int, PairSource | list[tuple[int, int]]]:
    """The vertex count and the pairs of "n m" followed by m "u v" lines; '#'
    starts a comment.  The pairs are returned as read, unchecked: a
    PairSource over text, or a list when a line is not a pair line as kcover
    writes it.  The header's edge count is checked against the line count.

    With connected (the solvers need a connected graph), a header that
    declares fewer than n - 1 edges, or more than MAX_EDGES, is refused
    before any edge is read.
    """
    head, start = _first_line(text)
    header = _ints(_PAIR_LINE.fullmatch(head))
    if header:
        _check_header(*header, 1, connected)
        pairs = _bulk_pairs(text, start)
        if pairs is not None:
            _check_count(header[1], len(pairs))
            return header[0], pairs
    return _linewise_edge_pairs(text, connected)


def _linewise_edge_pairs(text: str, connected: bool) -> tuple[int, list[tuple[int, int]]]:
    """parse_edge_pairs line by line, for text with a line _bulk_pairs refuses."""
    lines = _data_lines(text)[0]
    if not lines:
        raise InputError("empty edge list: missing the 'n m' header line")
    no, head = lines[0]
    n, m = _parse_pair(head, no)
    _check_header(n, m, no, connected)
    _check_count(m, len(lines) - 1)
    return n, [_parse_pair(line, no) for no, line in lines[1:]]


def _check_header(n: int, m: int, no: int, connected: bool) -> None:
    check_order(n, f"line {no}: header declares")
    if connected:
        check_size(m, f"line {no}: header declares")
        if m < n - 1:
            raise InputError(
                f"line {no}: header declares n={n} vertices and m={m} edges; "
                f"a connected graph needs at least {n - 1}"
            )


def _check_count(m: int, found: int) -> None:
    if found != m:
        raise InputError(f"header announces {m} edges but the file has {found}")


def parse_edge_list(text: str, connected: bool = False) -> Graph:
    """Graph from an edge list (see parse_edge_pairs)."""
    return Graph(*parse_edge_pairs(text, connected))


def format_edge_list(g: Graph) -> str:
    """The header and the edges in ascending order, written from g's sorted
    neighbour rows: one string per lower end, with no edge tuples."""
    lines = [f"{g.n} {g.m}"]
    for u, row in enumerate(g.adj):
        upper = row[bisect_right(row, u):]
        if upper:
            head = f"{u} "
            lines.append(head + f"\n{head}".join(map(str, upper)))
    return "\n".join(lines) + "\n"


def parse_completion(text: str) -> CompletionSet:
    """Completion file: "u v" lines, counted by an optional "# additions=N" (the last one)."""
    return CompletionSet(parse_completion_pairs(text))


def parse_completion_pairs(text: str) -> PairSource | list[tuple[int, int]]:
    """The pairs of a completion file (see parse_completion), returned as
    read, unchecked but for their count: a PairSource over text, or a list
    when a line is not a pair line as kcover writes it."""
    head, start = _first_line(text)
    count = _ints(_COUNT_LINE.fullmatch(head))
    pairs = _bulk_pairs(text, start if count else 0)
    if pairs is None:
        declared, pairs = _linewise_completion(text)
    else:
        declared = count[0] if count else None
    if declared is not None and declared != len(pairs):
        raise InputError(f"file declares additions={declared} but lists {len(pairs)} pairs")
    return pairs


def _linewise_completion(text: str) -> tuple[int | None, list[tuple[int, int]]]:
    """The declared count and the pairs of a completion file, line by line,
    for text with a line _bulk_pairs refuses."""
    lines, comments = _data_lines(text)
    declared: int | None = None
    for line in comments:
        if "additions=" in line:
            try:
                declared = int(line.split("additions=", 1)[1])
            except ValueError:
                raise InputError(f"bad additions count in {line!r}") from None
    return declared, [_parse_pair(line, no) for no, line in lines]


def format_completion(c: CompletionSet) -> str:
    rows = [f"# additions={len(c)}"]
    rows.extend(f"{u} {v}" for u, v in c)
    return "\n".join(rows) + "\n"


def _is_int(x: object) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_int_list(x: object) -> bool:
    return isinstance(x, list) and all(_is_int(v) for v in x)


def _json_object(text: str, keys: tuple[str, ...]) -> dict:
    """The JSON object in text, which must hold every one of keys."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # nesting too deep, or an integer too long
        raise InputError(f"invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise InputError("expected a JSON object")
    for key in keys:
        if key not in data:
            raise InputError(f"missing key {key!r}")
    return data


def parse_setcover_json(text: str) -> SetCoverInstance:
    """{"universe": int, "sets": [[item, ...], ...], "t": int or null}"""
    data = _json_object(text, ("universe", "sets"))
    universe, sets, budget = data["universe"], data["sets"], data.get("t")
    if not _is_int(universe) or universe < 0:
        raise InputError(f"'universe' must be a non-negative integer, got {universe!r}")
    if not isinstance(sets, list) or not all(_is_int_list(s) for s in sets):
        raise InputError("'sets' must be a list of lists of integers")
    if budget is not None and not _is_int(budget):
        raise InputError(f"'t' must be an integer or null, got {budget!r}")
    return SetCoverInstance(
        universe_size=universe,
        sets=tuple(frozenset(s) for s in sets),
        budget=budget,
    )


def format_setcover_json(inst: SetCoverInstance) -> str:
    data = {
        "universe": inst.universe_size,
        "sets": [sorted(s) for s in inst.sets],
        "t": inst.budget,
    }
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def parse_three_partition_json(text: str) -> ThreePartitionInstance:
    """{"s": int, "values": [int, ...]}"""
    data = _json_object(text, ("s", "values"))
    target, values = data["s"], data["values"]
    if not _is_int(target):
        raise InputError(f"'s' must be an integer, got {target!r}")
    if not _is_int_list(values):
        raise InputError("'values' must be a list of integers")
    return ThreePartitionInstance(target=target, values=tuple(values))


def format_three_partition_json(inst: ThreePartitionInstance) -> str:
    data = {"s": inst.target, "values": list(inst.values)}
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def parse_role_map(text: str) -> tuple[int, tuple[Role, ...]]:
    """{"k": int, "roles": {"<vertex>": {"kind": str, "index": int or null}}}"""
    data = _json_object(text, ("k", "roles"))
    k, raw = data["k"], data["roles"]
    if not _is_int(k):
        raise InputError(f"'k' must be an integer, got {k!r}")
    if not isinstance(raw, dict):
        raise InputError("'roles' must be an object")
    roles: list[Role | None] = [None] * len(raw)
    # one Role per distinct (kind, index); a kind that is not a str may be
    # unhashable, so it goes straight to Role, which refuses it
    shared: dict[tuple[str, int | None], Role] = {}
    for key, entry in raw.items():
        try:
            v = int(key)
        except ValueError:
            raise InputError(f"vertex key {key!r} is not an integer") from None
        if not 0 <= v < len(raw):
            raise InputError(f"vertex key {v} out of range 0..{len(raw) - 1}")
        if roles[v] is not None:
            raise InputError(f"vertex {v} listed twice")
        if not isinstance(entry, dict) or "kind" not in entry:
            raise InputError(f"vertex {v}: expected an object with a 'kind'")
        index = entry.get("index")
        if index is not None and not _is_int(index):
            raise InputError(f"vertex {v}: 'index' must be an integer or null, got {index!r}")
        kind = entry["kind"]
        if not isinstance(kind, str):
            roles[v] = Role(kind=kind, index=index)
            continue
        role = shared.get((kind, index))
        if role is None:
            role = shared[kind, index] = Role(kind=kind, index=index)
        roles[v] = role
    return k, tuple(roles)


def format_role_map(rg: LabeledReductionGraph) -> str:
    """The text of json.dumps(data, sort_keys=True, indent=2) + "\n" for the
    role map, built from one fragment per distinct role, without the slow
    pure-Python encoder that indent selects."""
    head = f'{{\n  "k": {json.dumps(rg.k)},\n  "roles": '
    if not rg.roles:
        return head + "{}\n}\n"
    fragments: dict[Role, str] = {}
    texts = []
    for role in rg.roles:
        text = fragments.get(role)
        if text is None:
            text = fragments[role] = (
                f'{{\n      "index": {json.dumps(role.index)},'
                f'\n      "kind": {json.dumps(role.kind)}\n    }}'
            )
        texts.append(text)
    body = ",\n".join(f'    "{v}": {texts[v]}' for v in sorted(range(len(texts)), key=str))
    return f"{head}{{\n{body}\n  }}\n}}\n"


def read_text(path: str | Path) -> str:
    """The contents of a UTF-8 text file; any other bytes are an InputError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: byte {exc.start} is not UTF-8 text") from None


def read_graph(path: str | Path, connected: bool = False) -> Graph:
    return parse_edge_list(read_text(path), connected)


def write_graph(path: str | Path, g: Graph) -> None:
    Path(path).write_text(format_edge_list(g))


def read_completion(path: str | Path) -> CompletionSet:
    return parse_completion(read_text(path))


def write_completion(path: str | Path, c: CompletionSet) -> None:
    Path(path).write_text(format_completion(c))


def read_reduction(graph_path: str | Path, roles_path: str | Path) -> LabeledReductionGraph:
    """The reduction graph and its roles; the role count is checked against
    the header's n before the graph is built."""
    n, pairs = parse_edge_pairs(read_text(graph_path))
    k, roles = parse_role_map(read_text(roles_path))
    if len(roles) != n:
        raise InputError("one role per vertex required")
    return LabeledReductionGraph.from_roles(Graph(n, pairs), roles, k)


def write_reduction(
    graph_path: str | Path, roles_path: str | Path, rg: LabeledReductionGraph
) -> None:
    write_graph(graph_path, rg.graph)
    Path(roles_path).write_text(format_role_map(rg))
