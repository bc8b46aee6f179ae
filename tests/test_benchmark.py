"""A smoke run of the benchmark in perfbench/ on the program as it stands."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_one_traced_deep_ablation_round_checks_out():
    """One untraced and one traced round of deep_ablation: the benchmark checks
    the program's outputs, its call counts, the composite step against its
    vector reference and the tracer's span stack, and exits 1 when one fails.
    It writes only into the git-ignored perfbench-out/."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "deep_ablation", "--seed", "1",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
