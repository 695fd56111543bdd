"""Every micro-benchmark file runs once, untimed, in the default run, so a
bench that stops importing or asserting fails here."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_micro_bench_runs_once():
    benches = sorted(ROOT.glob("tests/bench_*.py"))
    assert benches
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--benchmark-disable", *map(str, benches)],
        cwd=ROOT, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
