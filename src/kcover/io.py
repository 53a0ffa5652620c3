"""Text formats: edge lists, completion files, JSON instance files, role maps.

All formatters emit deterministic output (sorted edges, sorted JSON keys) so
identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import InputError
from .graph import CompletionSet, Graph, norm_edge
from .reductions import (
    LabeledReductionGraph,
    Role,
    SetCoverInstance,
    ThreePartitionInstance,
)


def _data_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append((no, line))
    return out


def _parse_pair(line: str, no: int) -> tuple[int, int]:
    parts = line.split()
    if len(parts) != 2:
        raise InputError(f"line {no}: expected two integers, got {line!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise InputError(f"line {no}: expected two integers, got {line!r}") from None


# The largest vertex count an edge list may declare.  A graph allocates its
# adjacency for every vertex before it reads an edge, so the header is checked
# against this cap first.
MAX_VERTICES = 10_000_000


def check_order(n: int, source: str) -> None:
    """Refuse a vertex count above MAX_VERTICES before anything is built for it."""
    if n > MAX_VERTICES:
        raise InputError(f"{source} n={n} vertices; at most {MAX_VERTICES} are supported")


def parse_edge_list(text: str) -> Graph:
    """Graph from "n m" followed by m "u v" lines; '#' starts a comment."""
    lines = _data_lines(text)
    if not lines:
        raise InputError("empty edge list: missing the 'n m' header line")
    no, head = lines[0]
    n, m = _parse_pair(head, no)
    check_order(n, f"line {no}: header declares")
    if len(lines) - 1 != m:
        raise InputError(
            f"header announces {m} edges but the file has {len(lines) - 1}"
        )
    edges = [_parse_pair(line, no) for no, line in lines[1:]]
    return Graph(n, edges)


def format_edge_list(g: Graph) -> str:
    rows = [f"{g.n} {g.m}"]
    rows.extend(f"{u} {v}" for u, v in g.edge_list())
    return "\n".join(rows) + "\n"


def parse_completion(text: str) -> CompletionSet:
    """Completion file: "u v" lines, optional "# additions=N" count check."""
    declared: int | None = None
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("#") and "additions=" in line:
            try:
                declared = int(line.split("additions=", 1)[1])
            except ValueError:
                raise InputError(f"bad additions count in {line!r}") from None
    pairs = [_parse_pair(line, no) for no, line in _data_lines(text)]
    if declared is not None and declared != len(pairs):
        raise InputError(
            f"file declares additions={declared} but lists {len(pairs)} pairs"
        )
    return CompletionSet(norm_edge(u, v) for u, v in pairs)


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
    except json.JSONDecodeError as exc:
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
        roles[v] = Role(kind=entry["kind"], index=index)
    return k, tuple(roles)


def format_role_map(rg: LabeledReductionGraph) -> str:
    data = {
        "k": rg.k,
        "roles": {
            str(v): {"kind": role.kind, "index": role.index}
            for v, role in enumerate(rg.roles)
        },
    }
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def read_graph(path: str | Path) -> Graph:
    return parse_edge_list(Path(path).read_text())


def write_graph(path: str | Path, g: Graph) -> None:
    Path(path).write_text(format_edge_list(g))


def read_completion(path: str | Path) -> CompletionSet:
    return parse_completion(Path(path).read_text())


def write_completion(path: str | Path, c: CompletionSet) -> None:
    Path(path).write_text(format_completion(c))


def read_reduction(graph_path: str | Path, roles_path: str | Path) -> LabeledReductionGraph:
    g = read_graph(graph_path)
    k, roles = parse_role_map(Path(roles_path).read_text())
    return LabeledReductionGraph.from_roles(g, roles, k)


def write_reduction(
    graph_path: str | Path, roles_path: str | Path, rg: LabeledReductionGraph
) -> None:
    write_graph(graph_path, rg.graph)
    Path(roles_path).write_text(format_role_map(rg))
