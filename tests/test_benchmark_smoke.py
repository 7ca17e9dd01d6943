"""The benchmark still runs on this tree.

``perfbench/run.py`` counts an operation that raises as a failed check, so a
change that breaks one of the benchmark's calls into piglm shows only as
incorrect outputs in its last line. One short traced run of each workload
declared in BENCHMARK.json must report correct outputs and no failed operation.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_correctly(workload):
    # one round (--seconds 0); the trace file goes to the ignored .perfbench-out/
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, proc.stderr[-2000:]
