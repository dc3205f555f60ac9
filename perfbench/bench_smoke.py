"""The benchmark's smoke pass as a pytest target: ``pytest perfbench/``.

``run.py --workload all --smoke`` runs every workload at tiny sizes,
untraced and traced, and fails unless every metric of ``BENCHMARK.json``
is emitted for every workload, every layer records a call on each
workload its metrics should move, and every output validates.
"""

import subprocess
import sys
from pathlib import Path


def bench_e2e_smoke():
    run = Path(__file__).with_name("run.py")
    proc = subprocess.run(
        [sys.executable, str(run), "--workload", "all", "--smoke"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
