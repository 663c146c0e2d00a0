"""Self-tests of the benchmark.

    python3 perfbench/selftest.py

A tiny run of each workload prints every metric BENCHMARK.json names, with
its unit, traced and untraced; a wrong expected answer planted in each
workload is counted in ``fail_ratio``; two seeds attempt and fail the same
number of operations; the benchmark's class dimensions agree with topogen's
where it uses them to steer its draws; and without the ``src`` tree the
benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import unittest
from fractions import Fraction
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import reference  # noqa: E402
import run  # noqa: E402
import verify_jobs  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)

# a few cheap jobs stand in for the finite-field list, which takes a while
TINY_VERIFY = {
    "CLOSURES": [("SL", 3, 2)],
    "EXACT": [("SL", 2, 5), ("SL", 2, 7)],
    "MONTE_CARLO": [(("SL", 2, 7), 50)],
    "CENTRALIZERS": [("Sp", 4, 3)],
    "BLOCK_FIELDS": (3,),
    "SUBSPACES": [((2, 2), 3, 2, "symplectic")],
}


def tiny_measure(workload: str, trace: bool, with_report: bool = False, seed: int = 7):
    sys.path.insert(0, run.SRC)
    with mock.patch.multiple(verify_jobs, **TINY_VERIFY):
        result, lines = run.measure(workload, seed=seed, seconds=0.5, trace=trace)
    return (result, lines) if with_report else result


class MetricsPrinted(unittest.TestCase):
    def check_metrics(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertTrue(result["correct"])
        want = {m["name"]: m["unit"] for m in declared}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, want)
        for m in result["metrics"].values():
            self.assertEqual(set(m), {"value", "unit"})
            self.assertIsInstance(m["value"], (int, float))

    def test_end_to_end_metrics(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result = tiny_measure(workload, trace=False)
                self.check_metrics(result, BENCH["end_to_end"])
                for name in ("throughput_ops_s", "latency_p50_us", "suite_s", "setup_s", "peak_rss_mb"):
                    self.assertGreater(result["metrics"][name]["value"], 0)

    def test_per_layer_metrics(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.check_metrics(tiny_measure(workload, trace=True), BENCH["per_layer"])

    def test_layers_called_have_self_time(self):
        calls = {
            "symbolic-queries": ("algebra_core", "invariants", "oracle", "closure", "stabilizers", "maxclass"),
            "json-front-end": ("algebra_core", "oracle", "closure", "stabilizers", "maxclass", "cli"),
            "finfield-verify": ("finfield",),
        }
        for workload, layers in calls.items():
            metrics = tiny_measure(workload, trace=True)["metrics"]
            for layer in layers:
                self.assertGreater(metrics[f"{layer}.busy_s"]["value"], 0, (workload, layer))


class PlantedWrongAnswer(unittest.TestCase):
    def assert_counted(self, workload):
        result, lines = tiny_measure(workload, trace=False, with_report=True)
        match = re.search(r"(\d+) failed \((\d+) known defects, (\d+) unexpected\)", lines[0])
        failed, known, unexpected = map(int, match.groups())
        self.assertGreaterEqual(unexpected, 1)
        self.assertEqual(failed, known + unexpected)
        self.assertEqual(result["failed"], failed)
        self.assertFalse(result["correct"])
        fail_ratio = result["metrics"]["fail_ratio"]["value"]
        self.assertAlmostEqual(fail_ratio, failed / result["attempted"])

    def test_symbolic_and_front_end(self):
        # Sp4 involutions: the maximal class has dimension 6, not 7
        wrong = list(reference.MAX_CLASS_ANCHORS)
        wrong[0] = wrong[0][:4] + (7, False)
        for workload in ("symbolic-queries", "json-front-end"):
            with self.subTest(workload=workload), mock.patch.object(reference, "MAX_CLASS_ANCHORS", wrong):
                self.assert_counted(workload)

    def test_finfield(self):
        wrong = dict(verify_jobs.EXACT_ANCHORS)
        wrong[("SL", 2, 5)] = Fraction(1, 5)
        with mock.patch.object(verify_jobs, "EXACT_ANCHORS", wrong):
            self.assert_counted("finfield-verify")


class SeedIndependentCounts(unittest.TestCase):
    def test_attempted_and_failed_do_not_depend_on_the_seed(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                a = tiny_measure(workload, trace=False, seed=7)
                b = tiny_measure(workload, trace=False, seed=8)
                self.assertEqual((a["attempted"], a["failed"]), (b["attempted"], b["failed"]))

    def test_class_dim_recomputation(self):
        # the symbolic catalog keeps pairs below the adjoint-module bound
        # out of its draws by this recomputation
        import harness
        import symbolic

        T = harness.import_topogen(run.SRC)
        for key in symbolic.group_keys():
            family, n, p = key
            if family == "SL" or (family == "SO" and n % 2 == 0 and p != 2):
                g = T.algebra_core.GroupSpec(*key)
                target = reference.class_target(family, n)
                for cls in T.stabilizers.enumerate_class_shapes(g):
                    with self.subTest(key=key, cls=cls):
                        want = T.invariants.class_dim(g, cls).dim_class
                        self.assertEqual(reference.class_dim(*target, cls), want)


class WithoutSources(unittest.TestCase):
    def test_exits_nonzero_without_printing_a_result(self):
        bare = os.path.join(HERE, "out", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "symbolic-queries",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
