"""Tier-1 guard for the benchmark harness.

The traced benchmark wraps public callables at the names their callers look
them up by. Running its self-test here catches a renamed or no longer
called callable before a benchmark run does.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "smoke.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
