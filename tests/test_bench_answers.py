"""The benchmark's answer checks, run briefly: each workload of
``perfbench/run.py`` must report every answer correct and no failed
operation, as a full benchmark run requires."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["symbolic-queries", "json-front-end", "finfield-verify"])
def test_workload_answers_correct(workload):
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert (result["correct"], result["failed"]) == (True, 0), result
