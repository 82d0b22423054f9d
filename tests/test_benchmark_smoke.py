"""Each gated benchmark workload runs to a correct result at its tiny size.

The benchmark calls the package's API from `perfbench/workloads.py`; a
change to a function it calls shows here as a failed or incorrect run.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    GATED = [workload["name"] for workload in json.load(_fh)["workloads"]]


@pytest.mark.parametrize("workload", GATED)
def test_workload_is_correct_at_seed_0(workload):
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--size", "tiny", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, run.stdout
