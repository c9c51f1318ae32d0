"""One fresh-interpreter set-up: import ``spsnet`` and its CLI, then build a
workload's schema-validated configs. Prints the seconds this took.

    python3 benchmarks/setup_probe.py <workload> <seed> <output_dir>

The timer starts before any other import, so everything the package loads
counts; ``run.py`` starts this script several times and reports the median.
"""

import time

t0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import spsnet  # noqa: E402, F401
import spsnet.cli  # noqa: E402, F401
from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]]().build(int(sys.argv[2]), 0, sys.argv[3])
print(repr(time.perf_counter() - t0))
