"""Traced benchmark runs of every listed workload.

Only a traced run (``--trace 1``) checks the workload guards: a
``design-sweep`` op builds exactly one 2048-point profile, a
``fit-analysis`` op only 192-point ones and a ``purity-eval`` op none, every
traced name must exist to be wrapped, and the first traced ops must give the
same output digests as an untraced replay.  The benchmark's own self-tests,
which this suite does not collect, also trace ``purity-eval``.  About 3 s
for each of the profile workloads and 4 s for ``purity-eval``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["design-sweep", "fit-analysis", "purity-eval"])
def test_traced_run_passes_guards(workload):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload]
    done = subprocess.run(
        argv + ["--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "guards: pass" in done.stdout
    assert json.loads(done.stdout.strip().splitlines()[-1])["correct"] is True
