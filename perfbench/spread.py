"""Run the benchmark on several seeds and report each metric's median and quartiles.

    python3 perfbench/spread.py --workload tree-large --seeds 1-10 --seconds 30

Runs are sequential, one process at a time.  The spread is the distance
between the first and third quartile as a share of the median, the figure
BENCHMARK.json's bounds are compared with.  Prints one markdown table row
per metric, the form the README's tables use.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", default="30")
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    shares = set()
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", "0"],
            capture_output=True, text=True, check=False,
        )
        if done.returncode != 0:
            print(done.stderr, file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: {json.dumps(result)}", file=sys.stderr, flush=True)
        if not result["correct"]:
            print(done.stderr, file=sys.stderr)
            return 1
        shares.add(result["failed"] / result["attempted"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"| {args.workload} | median | Q1 | Q3 | spread |  (seeds {args.seeds[0]}-{args.seeds[-1]}, "
          f"failed share {sorted(shares)})")
    for name, vals in values.items():
        q1, median, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else 0.0
        print(f"| {name} | {median:.4g} | {q1:.4g} | {q3:.4g} | {spread:.3f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
