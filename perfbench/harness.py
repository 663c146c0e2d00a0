"""Measurement loop and result assembly.

A workload supplies operations in blocks, and a run measures a number of
blocks fixed by its length (``planned_blocks``). The loop calls one
operation at a time (closed loop, one client) and times each call by the CPU
time of the thread; generating the next block and checking answers happen
between blocks and are not timed.

Every timing is scaled to a reference machine speed. The virtual machine
this runs on shares its cores: neighbours slow a process by up to 1.8x for
seconds to minutes at a time, so raw times of runs with different seeds
spread by 30-60%. A ``SpeedProbe`` runs a fixed piece of interpreter work,
independent of topogen, every PROBE_INTERVAL of CPU time; each operation's
CPU time (less the probes that ran inside it) is multiplied by
NOMINAL_PROBE_NS over the mean time of the probes that ran inside it, or,
for an operation too short to hold PROBE_WINDOW of them, of the latest
PROBE_WINDOW probes. Interleaved this
finely, topogen's speed follows the probe's: their ratio moved by 2% where
raw times moved by 15%.
"""

from __future__ import annotations

import gc
import importlib
import math
import resource
import signal
import statistics
import sys
from array import array
from collections import Counter, deque
from fractions import Fraction
from time import monotonic, thread_time_ns

import tracing

SETUP_REPEATS = 11
PROBE_INTERVAL = 0.02  # seconds of process CPU time between probes
PROBE_WINDOW = 8  # latest probes whose mean is the current speed
NOMINAL_PROBE_NS = 500_000  # the probe's time at the reference speed
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 70.0, 60.0, 50.0)
TRACE_SHARE_UNTRACED = 1 / 3  # of --seconds, for the overhead reference
MAX_WALL_S = 120  # a run on a very slow machine still ends within 180 s


class Op:
    """One query or job: ``call`` runs it, ``check(result, exc)`` returns
    None when the answer is right, else a description of what is wrong."""

    __slots__ = ("kind", "call", "check", "known_defect", "prime_field")

    def __init__(self, kind, call, check, known_defect=False, prime_field=True):
        self.kind = kind
        self.call = call
        self.check = check
        self.known_defect = known_defect
        self.prime_field = prime_field


class KnownDefect(str):
    """A check's finding that matches a recorded defect of the program."""


def problem_from_exception(exc) -> str:
    return f"raised {type(exc).__name__}: {exc}"


def expect_refusal(name: str):
    """A check that wants the call refused with the exception ``name``."""

    def check(result, exc):
        if exc is None:
            return f"expected {name}, got {result!r}"
        if type(exc).__name__ != name:
            return f"expected {name}, {problem_from_exception(exc)}"
        return None

    return check


class SpeedProbe:
    """Machine speed, sampled by a SIGVTALRM handler every PROBE_INTERVAL
    of CPU time while running."""

    def __init__(self):
        self.recent = deque(maxlen=PROBE_WINDOW)
        self.count = 0
        self.spent_ns = 0  # CPU time of all probes, to take out of operations
        for _ in range(PROBE_WINDOW):
            self._probe()

    @staticmethod
    def _work():
        table = {}
        for i in range(300):
            table[(i % 7, i % 11, i)] = [i, str(i)]
        sorted(table, key=lambda k: (k[1], -k[2]))
        total = Fraction(0)
        for i in range(1, 40):
            total += Fraction(1, i)

    def _probe(self, *_):
        t0 = thread_time_ns()
        self._work()
        elapsed = thread_time_ns() - t0
        self.recent.append(elapsed)
        self.count += 1
        self.spent_ns += elapsed

    def __enter__(self):
        signal.signal(signal.SIGVTALRM, self._probe)
        signal.setitimer(signal.ITIMER_VIRTUAL, PROBE_INTERVAL, PROBE_INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, signal.SIG_DFL)

    def mark(self) -> tuple:
        return self.count, self.spent_ns

    def scaled(self, cpu_ns: int, since: tuple) -> int:
        """``cpu_ns`` of work that began at the mark ``since``, less the
        probes run meanwhile, at the reference speed."""
        probes = self.count - since[0]
        probe_ns = self.spent_ns - since[1]
        if probes >= PROBE_WINDOW:
            mean = probe_ns / probes
        else:
            mean = sum(self.recent) / len(self.recent)
        return round((cpu_ns - probe_ns) * NOMINAL_PROBE_NS / mean)


def percentile(ordered, pct: float) -> float:
    """Linear interpolation between the closest ranks of sorted values."""
    pos = pct / 100.0 * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least ten samples beyond it."""
    for pct in TAIL_LADDER:
        if n - math.ceil(n * pct / 100.0) >= 10:
            return pct
    return 50.0


def import_topogen(src_dir: str):
    """Import topogen freshly from ``src_dir`` (dropping any earlier copy)."""
    for name in [m for m in sys.modules if m == "topogen" or m.startswith("topogen.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module("topogen")
    for layer in tracing.LAYERS:
        importlib.import_module("topogen." + layer)
    importlib.import_module("topogen.errors")
    if not package.__file__.startswith(src_dir):
        raise ImportError(f"topogen was imported from {package.__file__}, not {src_dir}")
    return package


def timed_setup(workload, src_dir: str, seed: int, speed: SpeedProbe):
    """Import topogen and build the workload's inputs SETUP_REPEATS times;
    returns (median scaled seconds, last state)."""
    times = []
    state = None
    with speed:
        for _ in range(SETUP_REPEATS):
            t0, mark = thread_time_ns(), speed.mark()
            package = import_topogen(src_dir)
            state = workload.setup(package, seed)
            times.append(speed.scaled(thread_time_ns() - t0, mark) / 1e9)
    return statistics.median(times), state


class Tally:
    """Per-run outcome: counts, failures and the scaled operation times of
    every block."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.problems: list[str] = []  # the first unexpected failures
        self.known = Counter()
        self.total = 0.0  # CPU seconds of the operations, unscaled
        self.op_ns = 0
        self.blocks: list[array] = []

    def record(self, op, result, exc):
        self.attempted += 1
        try:
            problem = op.check(result, exc)
        except Exception as err:  # a checker that cannot read the answer fails it
            problem = f"unreadable answer ({type(err).__name__}: {err})"
        if problem is None:
            return
        self.failed += 1
        if op.known_defect or isinstance(problem, KnownDefect):
            self.known[op.kind] += 1
            return
        self.unexpected += 1
        if len(self.problems) < 20:
            self.problems.append(f"{op.kind}: {problem}")

    def add_block(self, raw_ns: int, latencies: array):
        self.total += raw_ns / 1e9
        self.op_ns += raw_ns
        self.blocks.append(latencies)


def planned_blocks(state, seconds: float) -> int:
    """Blocks a run of ``seconds`` measures, ``seconds`` over the workload's
    ``block_seconds`` (about a block's operation CPU time on the machine the
    benchmark was calibrated on). The count depends on ``seconds`` only, not
    on the seed or on how fast this run goes, so ``attempted`` and
    ``failed`` are the same in every run."""
    return max(1, round(seconds / state.block_seconds))


def run_blocks(state, tally: Tally, blocks: int, speed=None, tracer=None):
    """Run ``blocks`` blocks, or fewer if MAX_WALL_S of wall time pass
    first; returns the number run. Operation times are scaled by ``speed``
    when given."""
    start = monotonic()
    block_index = 0
    while block_index < blocks:
        if block_index > 0 and monotonic() - start > MAX_WALL_S:
            print(f"stopped after {block_index} of {blocks} blocks: over {MAX_WALL_S} s of wall time")
            break
        block = state.next_block(block_index)
        if speed is None:
            outcomes, raw_ns, latencies = _run_block(block, tracer, block_index, None)
        else:
            with speed:
                outcomes, raw_ns, latencies = _run_block(block, tracer, block_index, speed)
        tally.add_block(raw_ns, latencies)
        if tracer is not None:
            tracer.active = False
        for op, (result, exc) in zip(block, outcomes):
            tally.record(op, result, exc)
        # each block starts from the same heap: no collection of the
        # benchmark's own garbage lands in a timed call
        gc.collect()
        if tracer is not None:
            tracer.active = True
        block_index += 1
    return block_index


def _run_block(block, tracer, block_index, speed):
    """Run the operations of a block; returns (outcomes, raw CPU ns,
    per-operation ns scaled to the reference speed). The CPU time of the
    thread is, for single-threaded, CPU-bound topogen, its wall time minus
    the time the hypervisor gave this virtual CPU to someone else."""
    outcomes = []
    latencies = array("q")
    raw_ns = 0
    for i, op in enumerate(block):
        frame = None
        if tracer is not None:
            frame = tracer.begin_op(block_index * 100_000 + i, op.prime_field)
        exc = None
        result = None
        mark = speed.mark() if speed is not None else None
        start = thread_time_ns()
        try:
            result = op.call()
        except Exception as err:  # the answer (an exit code, a refusal) is checked later
            exc = err
        end = thread_time_ns()
        if frame is not None:
            tracer.end_op(frame, op.kind, exc is not None)
        if speed is None:
            raw_ns += end - start
            latencies.append(end - start)
        else:
            raw_ns += end - start - (speed.spent_ns - mark[1])
            latencies.append(speed.scaled(end - start, mark))
        outcomes.append((result, exc))
    return outcomes, raw_ns, latencies


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(tally: Tally, setup_s: float, fixed_jobs: bool):
    """Figures over every operation of the run; a fixed job list run in
    passes counts each job once, at its median time over the passes."""
    rss = peak_rss_mb()  # before sorting the latencies below
    if fixed_jobs:
        blocks = [array("q", map(round, map(statistics.median, zip(*tally.blocks))))]
    else:
        blocks = tally.blocks
    ordered = sorted(ns for block in blocks for ns in block)
    seconds = sum(ordered) / 1e9
    tail = tail_percentile(len(ordered))
    metrics = {
        "throughput_ops_s": (len(ordered) / seconds, "1/s"),
        "latency_p50_us": (percentile(ordered, 50.0) / 1e3, "us"),
        "latency_tail_us": (percentile(ordered, tail) / 1e3, "us"),
        "suite_s": (statistics.median(sum(block) / 1e9 for block in blocks), "s"),
        "fail_ratio": (tally.failed / tally.attempted, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    unit = "jobs, each at its median over" if fixed_jobs else "operations in"
    note = f"latency_tail_us is p{tail:g} of {len(ordered)} {unit} {len(tally.blocks)} blocks"
    scaled = sum(map(sum, tally.blocks)) / 1e9
    note += f"; times at the reference speed are {scaled / tally.total:.3f}x the CPU time measured"
    return metrics, note


def per_layer_metrics(tracer, overhead_ratio: float, cli_counts: Counter):
    wall = tracer.op_wall_ns / 1e9
    metrics = {}
    for layer in tracing.LAYERS:
        busy = tracer.busy[layer] / 1e9
        metrics[f"{layer}.calls"] = (tracer.calls[layer], "count")
        metrics[f"{layer}.busy_s"] = (busy, "s")
        metrics[f"{layer}.share"] = (busy / wall, "ratio")
        metrics[f"{layer}.errors"] = (tracer.errors[layer], "count")
    decides = tracer.counts["oracle.decide_calls"]
    metrics["oracle.empty_ratio"] = (tracer.counts["oracle.empty"] / decides if decides else 0.0, "ratio")
    for reason in tracing.DECIDE_REASONS:
        metrics["oracle.reason." + reason] = (tracer.counts["oracle.reason." + reason], "count")
    metrics["closure.char2_calls"] = (tracer.counts["closure.char2_calls"], "count")
    metrics["closure.char2_busy_s"] = (tracer.busy["closure.char2"] / 1e9, "s")
    for code in (0, 2, 3):
        metrics[f"cli.exit{code}"] = (cli_counts[f"exit{code}"], "count")
    metrics["cli.bytes_in"] = (cli_counts["bytes_in"], "bytes")
    metrics["cli.bytes_out"] = (cli_counts["bytes_out"], "bytes")
    for name in (
        "group_closure.elements",
        "exact_prob.pairs",
        "monte_carlo.trials",
        "subspaces.found",
    ):
        metrics["finfield." + name] = (tracer.counts["finfield." + name], "count")
    for sub in tracing.FINFIELD_SUBLAYERS + ("prime_field", "ext_field"):
        metrics[f"finfield.{sub}.busy_s"] = (tracer.busy["finfield." + sub] / 1e9, "s")
    metrics["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return metrics


def result_line(tally: Tally, metrics: dict) -> dict:
    return {
        "correct": tally.unexpected == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def report(tally: Tally, label: str) -> list[str]:
    lines = [
        f"{label}: {tally.attempted} operations, {tally.failed} failed "
        f"({sum(tally.known.values())} known defects, {tally.unexpected} unexpected)"
    ]
    for kind, count in sorted(tally.known.items()):
        lines.append(f"  known defect: {kind} x{count}")
    for problem in tally.problems:
        lines.append(f"  UNEXPECTED {problem}")
    return lines
