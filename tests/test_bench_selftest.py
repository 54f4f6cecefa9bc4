"""The benchmark's self-test, run as its own process.

``bench/selftest.py`` runs each workload at a tiny size and feeds every check
a corrupted output that it must reject. Its checks read what the program
exposes to the benchmark: the RCE step's ``info["olr"]``, ``env.column``, the
profile sidecars, the tuner's study files. A change under ``src/`` that breaks
one of them fails here, before a benchmark run would.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert proc.stdout.splitlines()[-1].endswith(" passed, 0 failed"), proc.stdout[-4000:]
