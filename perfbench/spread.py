#!/usr/bin/env python3
"""Run the benchmark on several seeds and summarise each metric's spread.

    python3 perfbench/spread.py --workload NAME --seeds 101-110 [--seconds S] [--trace 0|1]

Runs one seed at a time, from the root of the checkout, and prints one JSON
object: per metric the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median,
plus each seed's correct flag, row digest and diagnostic line.  This is the
steadiness check that ``baseline.json`` records.  ``--seconds`` defaults to
``run_seconds`` in BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 101-110")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    seconds = args.seconds or json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    runs = {}
    for seed in args.seeds:
        cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed)]
        cmd += ["--seconds", str(seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
        lines = done.stdout.splitlines()
        runs[seed] = {"report": json.loads(lines[-2]), "result": json.loads(lines[-1])}
        print(f"seed {seed}: {lines[-1]}", file=sys.stderr)

    names = runs[args.seeds[0]]["result"]["metrics"]
    out = {
        "workload": args.workload,
        "seconds": seconds,
        "trace": args.trace,
        "seeds": args.seeds,
        "all_correct": all(r["result"]["correct"] for r in runs.values()),
        "incorrect_seeds": [s for s, r in runs.items() if not r["result"]["correct"]],
        "failed": sum(r["result"]["failed"] for r in runs.values()),
        "metrics": {
            name: {
                "unit": runs[args.seeds[0]]["result"]["metrics"][name]["unit"],
                **summarise([r["result"]["metrics"][name]["value"] for r in runs.values()]),
            }
            for name in names
        },
        "runs": {seed: r["report"] for seed, r in runs.items()},
    }
    print(json.dumps(out, indent=1, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
