"""In-memory spans around calls into kcover's public functions.

The tracer swaps each traced function for a wrapper in every kcover module
namespace that holds it (and on the class, for methods), so calls the CLI
makes between modules are timed without touching the program.  Spans are
[name, start, end, parent, attrs] lists; the per-layer metrics are computed
from them, and they are written out as JSON when the run ends.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

# Every timing is the process's CPU time.  The commands are single-threaded
# and CPU-bound, so on an idle machine this equals wall-clock time; on a
# shared virtual machine it leaves out the time the host gives to other
# guests, which wall-clock time counts and which varies from minute to minute.
clock = time.process_time

# span name -> the functions it times, as "module:qualname"
TRACED = {
    "io.parse": ["kcover.io:parse_edge_list", "kcover.io:parse_completion",
                 "kcover.io:parse_setcover_json", "kcover.io:parse_role_map"],
    "io.format": ["kcover.io:format_edge_list", "kcover.io:format_completion",
                  "kcover.io:format_setcover_json", "kcover.io:format_role_map"],
    "graph.build": ["kcover.graph:Graph.__init__"],
    "graph.validate": ["kcover.graph:validate_completion"],
    "graph.apply": ["kcover.graph:apply_completion"],
    "graph.unsaturated": ["kcover.graph:unsaturated_edges"],
    "graph.connected": ["kcover.graph:Graph.is_connected"],
    "graph.bridges": ["kcover.graph:find_bridges"],
    "graph.chordality": ["kcover.graph:check_chordal"],
    "chordal.decompose": ["kcover.chordal:decompose_trees"],
    "chordal.opt": ["kcover.chordal:optimal_chordal_31"],
    "trees.root": ["kcover.trees:RootedTree.from_graph"],
    "trees.opt31": ["kcover.trees:optimal_tree_31"],
    "trees.approx4": ["kcover.trees:approx_tree_4"],
    "trees.approxk": ["kcover.trees:approx_tree_k"],
    "oracle.solve": ["kcover.oracle:brute_min_completion"],
    "reductions.build": ["kcover.reductions:build_setcover_k3", "kcover.reductions:build_setcover_k"],
    "reductions.goodify": ["kcover.reductions:goodify_3", "kcover.reductions:goodify_k"],
    # worst_case_spider lives in trees but is only used to generate inputs
    "generators": ["kcover.generators:gen_random_tree", "kcover.generators:gen_random_chordal",
                   "kcover.generators:gen_random_setcover", "kcover.trees:worst_case_spider"],
    "cli.main": ["kcover.cli:main"],
}

# time metrics: summed over each round's spans of that name, then the median over rounds
ROUND_TIMES = [name for name in TRACED if name not in ("generators", "cli.main")]
DOUBLING = ("opt31", "approx4", "approxk")
UNITS = {
    **{f"{name}_s": "s" for name in ROUND_TIMES},
    "generators.s": "s",
    "cli.self_s": "s",
    **{f"trees.{solver}_doubling": "ratio" for solver in DOUBLING},
    "oracle.verdict_s_p50": "s",
    "oracle.verdict_s_p90": "s",
    "oracle.nodes": "count",
    "oracle.nodes_per_s": "1/s",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        idx = self._begin(name, attrs or None)
        try:
            yield
        finally:
            self._end(idx)

    def _begin(self, name: str, attrs: dict | None) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, clock(), 0.0, parent, attrs])
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _end(self, idx: int) -> None:
        self.spans[idx][2] = clock()
        self._open.pop()

    def _wrap(self, name: str, fn):
        begin, end, spans = self._begin, self._end, self.spans
        counts_nodes = name == "oracle.solve"

        def traced(*args, **kwargs):
            idx = begin(name, None)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(idx)
            if counts_nodes:
                spans[idx][4] = {"nodes": result.nodes}
            return result

        return traced

    @contextmanager
    def installed(self):
        """Route every traced kcover function through a span while active."""
        undo = []
        modules = [m for key, m in sys.modules.items() if key == "kcover" or key.startswith("kcover.")]
        for name, targets in TRACED.items():
            for target in targets:
                mod_name, qual = target.split(":")
                owner = sys.modules[mod_name]
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    cls = getattr(owner, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(name, raw.__func__))
                    else:
                        new = self._wrap(name, raw)
                    setattr(cls, attr, new)
                    undo.append((cls, attr, raw))
                    continue
                fn = getattr(owner, qual)
                wrapper = self._wrap(name, fn)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, wrapper)
                            undo.append((mod, key, fn))
        try:
            yield self
        finally:
            for holder, key, value in reversed(undo):
                setattr(holder, key, value)

    def write(self, path: Path, summary: dict) -> None:
        rows = [
            {"id": i, "name": s[0], "start": s[1], "end": s[2], "parent": s[3], **(s[4] or {})}
            for i, s in enumerate(self.spans)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"summary": summary, "spans": rows}) + "\n")


def _subtree_spans(spans: list[list], children: dict[int, list[int]], top: int) -> list[int]:
    out = []
    stack = [top]
    while stack:
        i = stack.pop()
        out.append(i)
        stack.extend(children.get(i, ()))
    return out


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics from the spans of one run.

    Times are sums over a round, medians over rounds; nested spans of the
    same name count once.  A layer the workload does not use reads 0.
    """
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        children.setdefault(s[3], []).append(i)
    rounds = [i for i, s in enumerate(spans) if s[0] == "bench.round"]
    setups = [i for i, s in enumerate(spans) if s[0] == "bench.setup"]

    def dur(i: int) -> float:
        return spans[i][2] - spans[i][1]

    def outermost(ids: list[int], name: str) -> list[int]:
        keep = []
        for i in ids:
            if spans[i][0] != name:
                continue
            p = spans[i][3]
            while p != -1 and spans[p][0] != name:
                p = spans[p][3]
            if p == -1:
                keep.append(i)
        return keep

    per_round = [_subtree_spans(spans, children, r) for r in rounds]
    out: dict[str, float] = {}
    for name in ROUND_TIMES:
        out[f"{name}_s"] = statistics.median(
            sum(dur(i) for i in outermost(ids, name)) for ids in per_round
        )
    out["generators.s"] = statistics.median(
        sum(dur(i) for i in outermost(_subtree_spans(spans, children, s), "generators"))
        for s in setups
    )
    self_times = []
    for ids in per_round:
        total = 0.0
        for i in outermost(ids, "cli.main"):
            total += dur(i) - sum(dur(c) for c in children.get(i, ()))
        self_times.append(total)
    out["cli.self_s"] = statistics.median(self_times)

    for solver in DOUBLING:
        ratios = []
        for ids in per_round:
            at = {"n": 0.0, "2n": 0.0}
            for i in ids:
                attrs = spans[i][4] or {}
                if spans[i][0] == "bench.command" and attrs.get("doubling") == solver:
                    sub = _subtree_spans(spans, children, i)
                    at[attrs["size"]] += sum(dur(j) for j in outermost(sub, f"trees.{solver}"))
            if at["n"] > 0:
                ratios.append(at["2n"] / at["n"])
        out[f"trees.{solver}_doubling"] = statistics.median(ratios) if ratios else 0.0

    verdicts = [dur(i) for ids in per_round for i in ids if spans[i][0] == "oracle.solve"]
    out["oracle.verdict_s_p50"] = statistics.median(verdicts) if verdicts else 0.0
    # a 90th percentile needs enough verdicts beyond it to mean anything
    out["oracle.verdict_s_p90"] = statistics.quantiles(verdicts, n=10)[8] if len(verdicts) >= 100 else 0.0
    nodes = [
        sum((spans[i][4] or {}).get("nodes", 0) for i in ids if spans[i][0] == "oracle.solve")
        for ids in per_round
    ]
    out["oracle.nodes"] = statistics.median(nodes)
    out["oracle.nodes_per_s"] = out["oracle.nodes"] / out["oracle.solve_s"] if out["oracle.solve_s"] else 0.0
    return out
