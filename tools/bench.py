"""Record one workload of the benchmark as a committed BENCH_<workload>.json.

    python tools/bench.py --workload chordal-large

Runs perfbench/run.py as it stands, untraced, for BENCHMARK.json's
run_seconds, once for each of SEEDS and one run at a time, and keeps the
JSON object each run prints last.  Before the first run and after each one
it times calibration(), a fixed pure-Python loop, in this process's CPU
time.  The loop does not yet track what slows the benchmark on a shared
host, so the file gives its times beside the metrics and divides nothing
by them.

The file holds, for each end-to-end metric, the median, the quartiles and
their distance over the runs, every run's own figures, the loop times, the
git revision and the Python version, and is written to
BENCH_<workload>.json at the root of the repository.  Every file is
recorded over the same seeds, so that files of one workload compare.  The
exit status is 1 when a run fails or reports a wrong or failed command,
and the file is still written.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALIBRATION_STEPS = 3_000_000
SEEDS = range(1, 11)


def calibration() -> float:
    """CPU seconds of a fixed loop of integer arithmetic in the interpreter."""
    started = time.process_time()
    total = 0
    for i in range(CALIBRATION_STEPS):
        total += i * i % 7
    return time.process_time() - started


def spread(values: list[float]) -> dict[str, float]:
    """Median, quartiles (statistics.quantiles, inclusive) and their distance."""
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def run_once(workload: str, seed: int, seconds: float) -> dict:
    """perfbench/run.py's last line for one seed, with the seed and exit status."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        return {"seed": seed, "exit": done.returncode}
    result = json.loads(lines[-1])
    return {"seed": seed, "exit": 0, **result}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    loops = [calibration()]
    runs = []
    for seed in SEEDS:
        run = run_once(args.workload, seed, seconds)
        runs.append(run)
        loops.append(calibration())
        figures = {name: m["value"] for name, m in run.get("metrics", {}).items()}
        print(f"seed {seed}: exit {run['exit']}, correct {run.get('correct')}, "
              f"failed {run.get('failed')}, {figures}, loop {loops[-1]:.3f} s", flush=True)

    good = [r for r in runs if r["exit"] == 0]
    end_to_end = {}
    for name, metric in (good[0]["metrics"] if good else {}).items():
        values = [r["metrics"][name]["value"] for r in good]
        end_to_end[name] = {"unit": metric["unit"], **spread(values), "values": values}

    record = {
        "workload": args.workload,
        "seconds": seconds,
        "seeds": list(SEEDS),
        "revision": git("rev-parse", "HEAD"),
        "python": platform.python_version(),
        "calibration": {"steps": CALIBRATION_STEPS, "unit": "s", **spread(loops), "values": loops},
        "end_to_end": end_to_end,
        "runs": [{k: v for k, v in r.items() if k != "metrics"} for r in runs],
    }
    out = ROOT / f"BENCH_{args.workload}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    bad = [r for r in runs if r["exit"] != 0 or not r.get("correct") or r.get("failed")]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
