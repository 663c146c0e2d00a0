"""Run-to-run spread of every end-to-end metric.

    python3 perfbench/spread.py --workload NAME [--runs 10] [--first-seed 1]
                                [--seconds S] [--baseline FILE]

Runs the benchmark ``--runs`` times, one process after another, each with
another seed, and prints for each end-to-end metric the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median, next to the metric's bound from
BENCHMARK.json. A spread under a third of the bound is steady. It also
says whether every run attempted and failed the same number of operations,
as a run's work and its failures should not depend on the seed. With
``--baseline`` (a file an earlier call wrote) it also prints how far each
median moved, as a share of the baseline median. The values are written to
``perfbench/out/spread-NAME.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> tuple:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"seed {seed}: unexpected failures\n{proc.stdout}")
    counts = (result["attempted"], result["failed"])
    return {name: m["value"] for name, m in result["metrics"].items()}, counts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--baseline")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict[str, list] = {name: [] for name in bounds}
    counts = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        metrics, attempted_failed = run_once(args.workload, seed, seconds)
        for name, value in metrics.items():
            values[name].append(value)
        counts.append(attempted_failed)
        print(f"seed {seed} done", file=sys.stderr)
    baseline = None
    if args.baseline:
        with open(args.baseline) as fh:
            baseline = json.load(fh)
    print(f"{args.workload}: {args.runs} runs of {seconds} s")
    if len(set(counts)) == 1:
        print(f"every run: {counts[0][0]} attempted, {counts[0][1]} failed")
    else:
        print(f"attempted and failed DIFFER between runs: {counts}")
    print(f"{'metric':18s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}  verdict")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med if med else float("inf")
        verdict = "steady" if share < bounds[name] / 3 else "within bound" if share < bounds[name] else "TOO WIDE"
        line = f"{name:18s} {med:12.6g} {q1:12.6g} {q3:12.6g} {share:8.4f} {bounds[name]:6.3f}  {verdict}"
        if baseline is not None:
            base = statistics.median(baseline[name])
            line += f"  median moved {(med - base) / base:+.4f}"
        print(line)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"spread-{args.workload}.json"), "w") as fh:
        json.dump(values, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
