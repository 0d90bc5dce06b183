"""Compare two checkouts on the benchmark in alternating pairs of runs.

    python3 tools/pairs.py PARENT_DIR CHANGE_DIR --workload harness --seed 6 \
        [--pairs 10] [--seconds 25] [--trace 0]

Runs ``bench/run.py`` from the root of each checkout, one run at a time:
pair k runs the parent first when k is even and the change first when k is
odd.  For every metric it prints each side's median and quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the pairs the change
won, ties counting for neither, with the better direction each metric has
in the change's ``BENCHMARK.json``.  A metric reads ``gain`` when the change
won at least nine tenths of the pairs and the medians differ by more than
the distance between the parent's quartiles.  The last line is one JSON
object with every run.  The runs are made with ``PYTHONDONTWRITEBYTECODE=1``,
so neither checkout is written to; the tool itself writes only to stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout: str, args) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        cwd=checkout, capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.pairs < 2:
        p.error("--pairs must be at least 2 to give quartiles")
    with open(os.path.join(args.change, "BENCHMARK.json")) as f:
        spec = json.load(f)
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec.get("per_layer", [])}

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(getattr(args, side), args))
        print(f"pair {k + 1}: " + "; ".join(
            f"{side} failed {runs[side][-1]['failed']}/{runs[side][-1]['attempted']} "
            f"correct {runs[side][-1]['correct']}" for side in ("parent", "change")), flush=True)

    print(f"{'metric':28s} {'parent median [q1, q3]':>30s} {'change median [q1, q3]':>30s}"
          f" {'wins':>6s}")
    metrics = {}
    for name in runs["parent"][0]["metrics"]:
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        sign = 1 if better.get(name, "lower") == "higher" else -1
        wins = sum(sign * (c - q) > 0 for q, c in zip(values["parent"], values["change"]))
        sides = {side: summary(values[side]) for side in runs}
        parent_spread = sides["parent"]["q3"] - sides["parent"]["q1"]
        shift = sign * (sides["change"]["median"] - sides["parent"]["median"])
        gain = wins >= 0.9 * args.pairs and shift > parent_spread
        metrics[name] = {**{side: {**sides[side], "runs": values[side]} for side in runs},
                         "better": better.get(name, "lower"), "change_wins": wins, "gain": gain}
        cells = [f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]"
                 for s in (sides["parent"], sides["change"])]
        print(f"{name:28s} {cells[0]:>30s} {cells[1]:>30s} {wins:>3d}/{args.pairs}"
              + ("  gain" if gain else ""))
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "pairs": args.pairs,
        "failed": {side: [r["failed"] for r in runs[side]] for side in runs},
        "attempted": {side: [r["attempted"] for r in runs[side]] for side in runs},
        "correct": {side: [r["correct"] for r in runs[side]] for side in runs},
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
