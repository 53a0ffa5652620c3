"""Benchmark kcover end to end (or per layer) on one workload.

    python3 perfbench/run.py --workload tree-large --seed 1 --seconds 30 --trace 0

Runs in one process and one thread.  Inputs come from the workload's
generators and --seed; every command goes through kcover.cli.main in
process, which is the `kcover` command minus interpreter start-up.  Set-up
is repeated at least SETUP_REPEATS times and until it has taken
SETUP_SECONDS of CPU time; then whole rounds of the workload's
commands run for as long as another round still fits in --seconds of
wall-clock time, counted from the first set-up.  Timings are process CPU
time (see spans.clock).  The first round's outputs are checked by
perfbench/checks.py; later rounds must reproduce them byte for byte.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  --trace 0 reports the end-to-end metrics; --trace 1 times calls
into every kcover layer, reports the per-layer metrics and writes the spans
to perfbench/out/traces/<workload>-seed<seed>.json.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

from spans import UNITS, Tracer, clock, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
# a short set-up is repeated more often, so that its median is as steady as a long one's
SETUP_SECONDS = 2.5


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "missing"


def _run_round(cli, steps, tracer) -> tuple[list[float], list[tuple[int | None, str]]]:
    """Run every step once; returns seconds and (exit code, output) per step."""
    seconds = []
    results = []
    with tracer.span("bench.round"):
        for step in steps:
            gc.collect()
            sink = io.StringIO()
            with tracer.span("bench.command", label=step.label, **step.attrs):
                started = clock()
                try:
                    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                        code = cli.main(step.argv)
                except Exception:
                    code = None
                    sink.write(traceback.format_exc())
                elapsed = clock() - started
            seconds.append(elapsed)
            results.append((code, sink.getvalue()))
    return seconds, results


def _verify(steps, workload) -> tuple[list[int], int, int]:
    """Check the first round's outputs; returns wrong step indices, additions, reference."""
    wrong = []
    additions = reference = 0
    for i, step in enumerate(steps):
        if step.verify is None:
            continue
        try:
            problem, added, ref = step.verify()
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problem, added, ref = f"unreadable output: {exc!r}", 0, 0
        additions += added
        reference += ref
        if problem is not None:
            wrong.append(i)
            print(f"WRONG {step.label}: {problem}", file=sys.stderr)
    workload.forget()
    return wrong, additions, reference


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "kcover" / "cli.py").is_file():
        print(f"error: no kcover sources at {src}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    os.environ["COVER_LOG"] = "quiet"
    from kcover import cli

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    work = HERE / "out" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](args.seed, work)
    steps = workload.steps
    tracer = Tracer()

    failed: set[tuple[int, int]] = set()
    wrong = []
    setup_times: list[float] = []
    rounds: list[list[float]] = []
    began = time.perf_counter()
    with tracer.installed() if args.trace else contextlib.nullcontext():
        while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
            gc.collect()
            started = clock()
            with tracer.span("bench.setup"):
                workload.setup()
            setup_times.append(clock() - started)
        workload.prepare()

        longest = 0.0
        while True:
            r = len(rounds)
            round_began = time.perf_counter()
            seconds, results = _run_round(cli, steps, tracer)
            longest = max(longest, time.perf_counter() - round_began)
            rounds.append(seconds)
            for i, (code, text) in enumerate(results):
                if code != 0:
                    failed.add((r, i))
                    print(f"FAILED {steps[i].label} (exit {code}): {text.strip()}", file=sys.stderr)
                    if steps[i].kind == "check":
                        wrong.append(steps[i].label)
            if r == 0:
                # the program's peak: the checks below allocate on top of what it left
                peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                digests = [[_digest(p) for p in step.outputs] for step in steps]
                bad, additions, reference = _verify(steps, workload)
            else:
                bad = [i for i, step in enumerate(steps)
                       if [_digest(p) for p in step.outputs] != digests[i]]
                for i in bad:
                    print(f"WRONG {steps[i].label}: output differs from round 1", file=sys.stderr)
            failed.update((r, i) for i in bad)
            wrong.extend(steps[i].label for i in bad)
            if time.perf_counter() - began + longest > args.seconds:
                break

    def kind_seconds(kind: str) -> float:
        """Median over rounds of the round's total time in steps of this kind."""
        return statistics.median(
            sum(t for t, step in zip(r, steps) if step.kind == kind) for r in rounds
        )

    end_to_end = {
        "setup_s": (statistics.median(setup_times), "s"),
        "solve_s": (kind_seconds("solve"), "s"),
        "check_s": (kind_seconds("check"), "s"),
        "additions_ratio": (additions / reference if reference else 0.0, "ratio"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    print(
        f"{args.workload} seed={args.seed}: {len(rounds)} rounds of {len(steps)} commands, "
        + ", ".join(f"{k}={v:.4g}" for k, (v, _) in end_to_end.items()),
        file=sys.stderr,
    )
    if args.trace:
        layers = layer_metrics(tracer.spans)
        metrics = {name: {"value": value, "unit": UNITS[name]} for name, value in layers.items()}
        tracer.write(
            HERE / "out" / "traces" / f"{args.workload}-seed{args.seed}.json",
            {"workload": args.workload, "seed": args.seed, "rounds": len(rounds),
             "traced_end_to_end": {k: v for k, (v, _) in end_to_end.items()}, "per_layer": layers},
        )
    else:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in end_to_end.items()}
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(rounds) * len(steps),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
