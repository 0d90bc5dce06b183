"""Benchmark for clonal: one workload per process, end to end or traced.

    python3 bench/run.py --workload certify --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; clonal is imported from ``src/``.  A run
executes a fixed list of operations: as many whole rounds (see
workloads.py) as fill ``--seconds`` at the reference speed, all generated
from ``--seed``.  It checks every output apart from the program and prints
as its last line one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones of BENCHMARK.json; with ``--trace 1`` the per-layer ones,
taken from spans the benchmark records around each of its calls into a
layer and written to bench/out/ when the run ends.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# Wall time of one round, checks included, at the reference speed: a run
# has round(seconds / ROUND_SECONDS) rounds, so the work of a run depends
# on its seed and length only, not on how fast the host is that minute.
ROUND_SECONDS = {"certify": 0.33, "search": 1.9, "harness": 0.13}
# The highest of p90, p99 and p99.9 that leaves at least ten samples
# beyond it in a 25-second run (README.md gives the sample counts).
TAIL_PERCENTILE = {"certify": 99.0, "search": 90.0, "harness": 99.0}
SETUP_RUNS = 5

# The host's speed swings by tens of percent from one minute to the next,
# and the swings move a fixed pure-Python kernel as much as they move
# clonal.  Every time reported is therefore scaled to a reference speed: a
# time measured while the kernel took c seconds on average is reported as
# time * KERNEL_REF_S / c.  The kernel allocates nothing the collector
# tracks, so clonal's heap cannot slow it down.
KERNEL_REF_S = 0.002
KERNEL_EVERY_S = 0.05  # program time between two kernel samples
_KERNEL_TABLE = {i: (i * 7919) % 1009 for i in range(4096)}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(ROUND_SECONDS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, print 'ready' and exit (used to time set-up)")
    return p.parse_args(argv)


def round_rng(workload: str, seed: int, round_no: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{round_no}")


def set_up(args):
    """Everything between process start and the first timed operation:
    importing clonal, building the workload's theories, generating round 0."""
    sys.path.insert(0, SRC)
    import clonal

    if not os.path.abspath(clonal.__file__).startswith(SRC + os.sep):
        raise ImportError(f"clonal was imported from {clonal.__file__}, not from {SRC}")
    import workloads

    os.makedirs(OUT, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](OUT)
    return workload, workload.round(round_rng(args.workload, args.seed, 0))


def kernel_seconds() -> float:
    table, acc = _KERNEL_TABLE, 0
    start = time.perf_counter()
    for i in range(9000):
        acc = (acc + table[(i * 31 + acc) & 4095]) & 0xFFFF
    return time.perf_counter() - start


def speed_factor(samples: list[float]) -> float:
    return KERNEL_REF_S / statistics.fmean(samples)


def local_factors(samples: list[float], width: int = 2) -> list[float]:
    """The speed factor around each kernel sample: over the sample and the
    ``width`` samples on either side of it."""
    return [speed_factor(samples[max(0, j - width):j + width + 1]) for j in range(len(samples))]


def time_set_up(args) -> float:
    """Median over SETUP_RUNS fresh processes of the time from launch until
    the process has set up and says so, each scaled by kernel samples taken
    just before it."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_RUNS):
        factor = speed_factor([kernel_seconds() for _ in range(5)])
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        times.append((ready - start) * factor)
    return statistics.median(times)


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


class GcWatch:
    """Collector pause time and gen-2 collections, from gc.callbacks."""

    def __init__(self):
        self.pause = 0.0
        self.gen2 = 0
        self._start = None

    def __call__(self, phase, info):
        if phase == "start":
            self._start = time.perf_counter()
        elif self._start is not None:
            self.pause += time.perf_counter() - self._start
            self.gen2 += info["generation"] == 2
            self._start = None


def digest(ops) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(repr((op.kind, op.inputs)).encode())
    return h.hexdigest()[:16]


def measure(args, workload, ops, rounds: int, tr):
    """Run every round; return the latencies, the kernel sample before
    each operation, the number of failed operations, the wrong outputs and
    the kernel samples."""
    from checks import FAILED

    latencies, sample_of, failed, wrong, kernel = [], [], 0, [], []
    since_kernel = KERNEL_EVERY_S
    for round_no in range(rounds):
        if round_no:
            ops = workload.round(round_rng(args.workload, args.seed, round_no))
        for op in ops:
            if since_kernel >= KERNEL_EVERY_S:
                kernel.append(kernel_seconds())
                since_kernel = 0.0
            tr.begin_op()
            t0 = time.perf_counter()
            raised = None
            try:
                with tr.span("op." + op.kind):
                    out = op.run(tr)
            except Exception as e:  # the program raised: the operation failed
                raised = e
            latencies.append(time.perf_counter() - t0)
            sample_of.append(len(kernel) - 1)
            since_kernel += latencies[-1]
            if raised is not None:
                failed += 1
                wrong.append((op.kind, f"raised {type(raised).__name__}: {raised}", False))
                continue
            verdict = op.check(out, tr)
            if verdict is FAILED:
                failed += 1
            elif verdict is not None:
                wrong.append((op.kind, verdict, True))
    return latencies, sample_of, failed, wrong, kernel


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "clonal", "__init__.py")):
        print(f"no clonal sources at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    workload, ops = set_up(args)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    rounds = max(1, round(args.seconds / ROUND_SECONDS[args.workload]))
    print(f"{args.workload} seed {args.seed}: {rounds} rounds of {len(ops)} operations, "
          f"round 0 digest {digest(ops)}", flush=True)

    import spans

    metrics = {}
    if args.trace:
        tr, gc_watch = spans.Tracer(), GcWatch()
        gc.callbacks.append(gc_watch)
    else:
        tr = spans.Off()
        metrics["setup_s"] = time_set_up(args)
    gc.collect()
    latencies, sample_of, failed, wrong, kernel = measure(args, workload, ops, rounds, tr)
    if args.trace:
        gc.callbacks.remove(gc_watch)

    factor = speed_factor(kernel)
    busy = sum(latencies)
    tail = TAIL_PERCENTILE[args.workload]
    beyond = len(latencies) - math.ceil(tail / 100 * len(latencies))
    print(f"{len(latencies)} operations, {busy:.2f} s in the program as timed "
          f"({len(latencies) / busy:.2f} ops/s), speed factor {factor:.4f} "
          f"({len(latencies) / busy / factor:.2f} ops/s scaled), "
          f"{beyond} samples beyond p{tail:g}", flush=True)
    for kind, why, _ in wrong[:10]:
        print(f"WRONG {kind}: {why}", file=sys.stderr)
    local = local_factors(kernel)
    latencies = [t * local[j] for t, j in zip(latencies, sample_of)]

    if args.trace:
        tr.write(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl"))
        self_times = tr.self_times()
        for m in spec["per_layer"]:
            name = m["name"]
            if name == "gc.pause_ms":
                value = 1000 * factor * gc_watch.pause
            elif name == "gc.gen2_collections":
                value = gc_watch.gen2
            elif m["unit"] == "ms":
                value = 1000 * factor * self_times.get(name.removesuffix("_ms"), 0.0)
            else:
                value = tr.counts.get(name, 0)
            metrics[name] = value / rounds
    else:
        metrics["ops_per_s"] = len(latencies) / sum(latencies)
        metrics["latency_p50_ms"] = 1000 * statistics.median(latencies)
        metrics["latency_tail_ms"] = 1000 * percentile(latencies, tail)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    print(json.dumps({
        "correct": not any(is_output for _, _, is_output in wrong),
        "attempted": len(latencies),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
