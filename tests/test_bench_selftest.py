"""The benchmark's self-test runs with the package suite.

``benchmarks/bench_selftest.py`` lies outside ``testpaths``, yet it calls the
package (``TagTable``, ``tas_wrapup``, ``random_geometric``, the runners the
tracer wraps), so a package change can break it without failing any test
here. This test runs it in a child process, as the benchmark's docstring
says to, and requires every one of its tests to pass. It only reads
``benchmarks/``.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "benchmarks/bench_selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = proc.stdout.strip().splitlines()[-1]
    assert " passed" in last and "failed" not in last and "error" not in last, last
