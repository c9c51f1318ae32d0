#!/usr/bin/env python3
"""Write the stored trade-off rows that ``tradeoff-n50`` checks at its
default workload seed.

    python3 benchmarks/make_reference.py

Run it only on a commit whose outputs are known good: the benchmark then
requires every later commit to move the same traffic and the same volumes up
to a couple of boundary cell flips per row.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

from envinfo import pin_blas_threads  # noqa: E402

pin_blas_threads(1)  # as run.py does, before numpy loads
from workloads import REFERENCE_DIR, REFERENCE_ROUNDS, Tradeoff  # noqa: E402

DEFAULT_SEED = 1  # run.py's default --seed


def main() -> int:
    workload = Tradeoff()
    rounds = []
    with tempfile.TemporaryDirectory(dir=BENCH_DIR.parent) as out_dir:
        for j in range(REFERENCE_ROUNDS):
            configs = workload.build(DEFAULT_SEED, j, out_dir)
            (record,) = workload.body(DEFAULT_SEED, j, configs, out_dir)
            rounds.append([list(row) for row in record.rows])
            print(f"round {j}: {len(record.rows)} rows", flush=True)
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"{workload.name}.json"
    path.write_text(json.dumps({"workload_seed": DEFAULT_SEED, "rounds": rounds}) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
