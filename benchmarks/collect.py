#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and summarise it as a BENCH file.

    python3 benchmarks/collect.py --label seed --seeds 1-10 [--traced] \\
        [--workloads tradeoff-n50,coverage-n20]

For every workload and seed it runs ``run.py --trace 0`` in a fresh process,
for ``run_seconds`` of ``BENCHMARK.json``, and keeps the last-line JSON. Each
end-to-end metric gets its median, its quartiles
(``statistics.quantiles(values, n=4)``) and its spread, the interquartile
distance as a share of the median, next to the bound in ``BENCHMARK.json``.
With ``--traced`` one traced run at the first seed adds
the per-layer metrics. Writes ``benchmarks/BENCH_<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
    if not last.startswith("{"):
        raise SystemExit(f"{workload} seed {seed}: no result (exit {out.returncode})\n{out.stderr}")
    res = json.loads(last)
    res["exit_code"] = out.returncode
    report = ROOT / ".benchmarks-out" / f"result-{workload}-seed{seed}-trace{trace}.json"
    res["report"] = json.loads(report.read_text())
    return res


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--traced", action="store_true")
    args = p.parse_args()
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    bench = {"label": args.label, "seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, s, 0) for s in seeds]
        bench.setdefault("environment", runs[0]["report"]["environment"])
        entry = {
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "all_correct": all(r["correct"] and r["exit_code"] == 0 for r in runs),
            "end_to_end": {name: summarise([r["metrics"][name]["value"] for r in runs])
                           for name in bounds},
        }
        if args.traced:
            traced = run_once(workload, seeds[0], 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["per_layer_correct"] = traced["correct"]
        bench["workloads"][workload] = entry
        for name, s in entry["end_to_end"].items():
            flag = "" if s["spread"] <= bounds[name] / 3 else "  <-- above bound/3"
            print(f"{workload:<16} {name:<12} median {s['median']:<10.5g} spread {s['spread']:.4f} "
                  f"bound {bounds[name]}{flag}", flush=True)
        print(f"{workload:<16} correct on every run: {entry['all_correct']}", flush=True)

    path = BENCH_DIR / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {path}")
    return 0 if all(w["all_correct"] for w in bench["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
