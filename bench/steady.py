"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/steady.py --workload search --seeds 1-10 [--seconds 25] [--trace 0]

Runs ``bench/run.py`` once per seed, one after another, from the root of
the checkout, and prints for every metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread: the
distance between the quartiles as a share of the median.  It also prints
the share of failed operations, which must be the same in every run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--seconds", default="25")
    p.add_argument("--trace", default="0")
    args = p.parse_args()

    values: dict[str, list[float]] = {}
    shares = set()
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            cwd=os.path.dirname(HERE), capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.add((result["failed"] / result["attempted"], result["correct"]))
        print(f"seed {seed}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}, " + ", ".join(
                  f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    print(f"{'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:28s} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f}")
    print("failed shares and correctness:", sorted(shares))
    return 0


if __name__ == "__main__":
    sys.exit(main())
