#!/usr/bin/env python3
"""spsnet benchmark: one closed-loop caller per workload, outputs checked.

    python3 benchmarks/run.py                      # all three workloads
    python3 benchmarks/run.py --workload coverage-n20 --seed 3 --seconds 30 --trace 0

Each workload runs in a fresh process of its own. With ``--trace 0`` the
workload runs a fixed number of rounds of runner calls, sized so that at the
seed commit's speed they fill ``--seconds`` (by default ``run_seconds`` of
``BENCHMARK.json``), and reports the end-to-end metrics: ``units_per_s`` over
every round but the first, ``peak_rss_mb`` of the process, and ``setup_s``,
the median of several fresh interpreters importing ``spsnet`` and building
the workload's configs, started between the rounds. With ``--trace 1`` a
fixed number of rounds runs untraced, each followed by the same round traced
(every wrapper removed afterwards), and the per-layer metrics come from the
traced rounds. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed``, ``metrics``. The exit code is
0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".benchmarks-out"
SETUP_STARTS = 9  # timed fresh interpreters per run, after one untimed warm-up
BLAS_THREADS = 1
WORKLOAD_NAMES = ("tradeoff-n50", "coverage-n20", "schedules-n500")

sys.path.insert(0, str(BENCH_DIR))
from envinfo import environment, pin_blas_threads  # noqa: E402


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=("all",) + WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float,
                   default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be non-negative and --seconds positive")
    return args


def import_package():
    if not (SRC / "spsnet" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no spsnet package under {SRC}")
    sys.path.insert(0, str(SRC))


# ---------------------------------------------------------------------------
# setup_s: fresh interpreters importing the package and building configs


def setup_start(args, out_dir: str) -> float:
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), args.workload, str(args.seed), out_dir]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    if out.returncode != 0:
        raise SystemExit(f"benchmark: setup probe failed:\n{out.stderr.strip()}")
    return float(out.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# the closed loop


@dataclass
class PassResult:
    rounds: int = 0
    units: int = 0
    failed: int = 0
    body_s: list[float] = field(default_factory=list)
    round_units: list[int] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)
    scalars: int | None = 0
    problems: list[str] = field(default_factory=list)

    def add(self, check) -> None:
        self.units += check.units
        self.failed += check.failed
        self.problems += check.problems
        if check.scalars is None or self.scalars is None:
            self.scalars = None
        else:
            self.scalars += check.scalars


def run_rounds(workload, seed, out_dir, rounds, *, tracer=None, derive_scalars=False,
               after_round=None) -> PassResult:
    """Run ``rounds`` rounds one after another; each call waits for the previous
    one. ``after_round(j)``, when given, runs untimed after round ``j``."""
    from workloads import RoundCheck

    res = PassResult()
    for j in range(rounds):
        with tracer.span("bench.round") if tracer else nullcontext():
            configs = workload.build(seed, j, out_dir)
            t0 = time.perf_counter()
            try:
                outputs = workload.body(seed, j, configs, out_dir)
            except Exception as exc:  # a runner that raises fails its round's units
                outputs, error = None, exc
            t1 = time.perf_counter()
        if outputs is None:
            check = RoundCheck(units=workload.units_per_round)
            check.fail(check.units, f"round {j}: {type(error).__name__}: {error}")
            res.digests.append("error")
        else:
            check = workload.check(seed, j, configs, outputs, derive_scalars)
            res.digests.append(workload.digest(outputs))
        res.add(check)
        res.body_s.append(t1 - t0)
        res.round_units.append(check.units)
        res.rounds += 1
        if after_round is not None:
            after_round(j)
    final = workload.finish()
    if final is not None:
        res.failed = min(res.units, res.failed + final.failed)
        res.problems += final.problems
    return res


# ---------------------------------------------------------------------------
# one workload in this process


def run_workload(args) -> int:
    pin_blas_threads(BLAS_THREADS)
    import_package()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    out_dir = OUT / "records" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    env = environment(ROOT)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env}

    if args.trace == 0:
        rounds = workload.rounds_for(args.seconds)
        # the set-up starts are spread over the run, so that their median sees
        # the same stretch of machine speed as the rounds do
        starts_after = Counter(k * rounds // SETUP_STARTS for k in range(SETUP_STARTS))
        setup_start(args, str(out_dir))  # untimed: the first start compiles bytecode
        setup: list[float] = []

        def after_round(j):
            setup.extend(setup_start(args, str(out_dir)) for _ in range(starts_after[j]))

        res = run_rounds(workload, args.seed, str(out_dir), rounds, after_round=after_round)
        attempted, failed, problems = res.units, res.failed, res.problems
        # the first round fills caches and finishes lazy set-up, which a user
        # pays once per process: it is checked but not timed
        timed = slice(1, None)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "units_per_s": (sum(res.round_units[timed]) / sum(res.body_s[timed]), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        report.update(setup_samples_s=setup, rounds=res.rounds, round_units=res.round_units,
                      round_body_s=res.body_s)
    else:
        attempted, failed, problems, metrics = traced_run(workload, args, str(out_dir), report)

    fail_frac = failed / attempted if attempted else 1.0
    report.update(attempted=attempted, failed=failed, fail_frac=fail_frac, problems=problems[:50],
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    stem = f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n")

    print("env " + json.dumps(env, sort_keys=True))
    for why in problems[:20]:
        print(f"FAILED {why}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(f"{args.workload} fail_frac {fail_frac:.6g} ({failed}/{attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": report["metrics"]}))
    return 0 if failed == 0 else 1


def traced_run(workload, args, out_dir, report):
    """Untraced and traced runs of the same fixed rounds.

    Each traced round directly follows the untraced round on the same inputs,
    so a drift of the machine's speed falls on both alike. Only the untraced
    outputs are checked; the traced ones must match them byte for byte.
    """
    import layers
    from spans import RedrawCounter, Tracer

    rounds = workload.trace_rounds
    tracer = Tracer()
    redraws = RedrawCounter()
    traced = PassResult()

    def traced_round(j):
        redraws.attach()
        layers.install(tracer)
        try:
            with tracer.span("bench.round"):
                configs = workload.build(args.seed, j, out_dir)
                t0 = time.perf_counter()
                try:
                    outputs = workload.body(args.seed, j, configs, out_dir)
                except Exception:  # the untraced round already counted it
                    outputs = None
                traced.body_s.append(time.perf_counter() - t0)
        finally:
            tracer.restore()
            redraws.detach()
        traced.digests.append("error" if outputs is None else workload.digest(outputs))

    plain = run_rounds(workload, args.seed, out_dir, rounds, derive_scalars=True,
                       after_round=traced_round)
    tracer.write_span_tree(OUT / f"spans-{args.workload}-seed{args.seed}.json")

    # round 0 of the untraced pass fills caches and finishes lazy set-up, which
    # the traced pass then finds done: neither pass's round 0 is compared
    overhead = sum(traced.body_s[1:]) / sum(plain.body_s[1:]) - 1.0
    per_layer = layers.per_layer_metrics(tracer, redraws.redraws, overhead)
    problems, failed = plain.problems, plain.failed
    if traced.digests != plain.digests:
        problems.append("traced outputs differ from untraced outputs")
        failed = plain.units
    if per_layer["diffusion.traffic.scalars"] != plain.scalars:
        problems.append(f"traced traffic {per_layer['diffusion.traffic.scalars']} scalars, "
                        f"outputs imply {plain.scalars}")
        failed = plain.units
    report.update(rounds=rounds, untraced_body_s=plain.body_s, traced_body_s=traced.body_s,
                  untraced_scalars=plain.scalars, spans=len(tracer.spans),
                  spans_dropped=tracer.spans_dropped)
    return plain.units, failed, problems, {k: (v, layers.unit_of(k)) for k, v in per_layer.items()}


# ---------------------------------------------------------------------------
# all workloads, each in its own process


def run_all(args) -> int:
    rows, status = [], 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(out.stdout)
        sys.stderr.write(out.stderr)
        status = status or out.returncode
        lines = out.stdout.strip().splitlines()
        if lines and lines[-1].startswith("{"):
            rows.append((name, json.loads(lines[-1])))
    if rows:
        names = list(rows[0][1]["metrics"])
        print("\nworkload          " + "  ".join(f"{k:>14}" for k in ("fail_frac", *names)))
        for name, res in rows:
            cells = [f"{res['failed'] / res['attempted']:>14.4g}"]
            cells += [f"{res['metrics'][k]['value']:>10.4g} {res['metrics'][k]['unit']:<3}" for k in names]
            print(f"{name:<17} " + "  ".join(cells))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
