"""topogen benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Imports topogen from the ``src`` directory next to this one, builds the
workload's inputs from the seed, measures a number of blocks of operations
that depends on S only (about S seconds of operation time on the machine
the benchmark was calibrated on) and checks every answer. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a separate traced run with ``--trace 1``. Lines before
it say which operations failed and which percentile ``latency_tail_us`` is.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORKLOADS = {
    "symbolic-queries": "symbolic",
    "json-front-end": "frontend",
    "finfield-verify": "verify_jobs",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def measure(workload_name: str, seed: int, seconds: float, trace: bool):
    """Run one workload; returns (result dict, report lines)."""
    import harness
    import tracing

    workload = importlib.import_module(WORKLOADS[workload_name])
    speed = harness.SpeedProbe()
    setup_s, state = harness.timed_setup(workload, SRC, seed, speed)
    tally = harness.Tally()
    fixed_jobs = getattr(state, "fixed_jobs", False)
    if not trace:
        harness.run_blocks(state, tally, harness.planned_blocks(state, seconds), speed)
        metrics, note = harness.end_to_end_metrics(tally, setup_s, fixed_jobs)
        return harness.result_line(tally, metrics), harness.report(tally, workload_name) + [note]
    # untraced reference for the overhead ratio, then the same blocks traced;
    # neither is scaled, so no probe runs inside a span
    blocks = harness.planned_blocks(state, seconds * harness.TRACE_SHARE_UNTRACED)
    blocks = harness.run_blocks(state, tally, blocks)
    package = harness.import_topogen(SRC)
    state = workload.setup(package, seed)
    tracer = tracing.Tracer()
    tracer.install(package)
    state.attach_tracer(tracer)
    traced = harness.Tally()
    tracer.active = True
    harness.run_blocks(state, traced, blocks, tracer=tracer)
    tracer.active = False
    overhead = traced.op_ns / tally.op_ns - 1.0
    metrics = harness.per_layer_metrics(tracer, overhead, getattr(state, "cli_counts", Counter()))
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    trace_path = os.path.join(out_dir, f"trace-{workload_name}-seed{seed}.jsonl")
    tracer.write(trace_path)
    lines = harness.report(traced, workload_name + " (traced)")
    lines.append(f"{len(tracer.kept)} spans written to {os.path.relpath(trace_path)}, {tracer.dropped} beyond the cap dropped")
    return harness.result_line(traced, metrics), lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "topogen", "__init__.py")):
        print(f"error: no topogen sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    try:
        result, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"error: cannot import topogen: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
