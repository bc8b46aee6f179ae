"""A smoke run of the benchmark in perfbench/ on the program as it stands."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["parity_study", "large_batch", "deep_ablation"])
def test_one_traced_round_checks_out(workload):
    """One untraced and one traced round of a workload: the benchmark checks
    the program's outputs, its call counts, the composite step against its
    vector reference on the workload's routing and the tracer's span stack,
    and exits 1 when one fails. It writes only into the git-ignored
    perfbench-out/."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
