"""Tests of the benchmark's own machinery (not part of the package suite).

    python3 -m pytest -q benchmarks/bench_selftest.py
"""

from __future__ import annotations

import json
import logging
import sys
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import layers  # noqa: E402
import run  # noqa: E402
import spsnet  # noqa: E402
from spans import RedrawCounter, Tracer, parse_redraws  # noqa: E402
from spsnet import diffusion, experiments, lp, rng, topology  # noqa: E402
from spsnet.experiments import ExperimentRecord  # noqa: E402
from workloads import REFERENCE_DIR, REFERENCE_ROUNDS, WORKLOADS, Coverage, Schedules, Tradeoff  # noqa: E402


def _package_bindings():
    mods = [m for name, m in sys.modules.items() if name == "spsnet" or name.startswith("spsnet.")]
    out = {(m.__name__, k): v for m in mods for k, v in vars(m).items() if callable(v)}
    for cls in (diffusion.TrafficLog, experiments.ExperimentConfig, experiments.ExperimentRecord):
        out.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return out


def test_wrappers_are_restored_after_a_traced_run():
    before = _package_bindings()
    tracer = Tracer()
    layers.install(tracer)
    try:
        assert diffusion.solve_lp is not before[("spsnet.diffusion", "solve_lp")]
        assert diffusion.solve_lp.__traced_original__ is lp.solve_lp.__traced_original__
        table = diffusion.TagTable(0, 3, spsnet.sps.AggregateSums.zeros(2, 1))
        table.append(frozenset({0, 1}), spsnet.sps.AggregateSums.zeros(2, 1))
        diffusion.tas_wrapup(table)  # overlapping tags: goes through the LP
    finally:
        tracer.restore()
    after = _package_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.stat("lp.solve_lp").calls == 1
    assert tracer.stat("lp.solve_lp").extra == {"rows": 2, "covered": 2}
    assert tracer.child_s[("diffusion.tas_wrapup", "lp.solve_lp")] > 0


def test_self_time_on_a_synthetic_nested_span():
    ticks = iter([0.0, 0.0, 1.0, 2.0, 4.0, 5.0, 6.5, 9.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))  # t0 = 0
    outer = tracer.enter("outer")  # 0.0
    inner = tracer.enter("inner")  # 1.0
    leaf = tracer.enter("leaf", keep_span=False)  # 2.0
    tracer.exit(leaf)  # 4.0
    tracer.exit(inner)  # 5.0
    again = tracer.enter("inner")  # 6.5
    tracer.exit(again)  # 9.0
    tracer.exit(outer)  # 10.0
    assert tracer.stat("leaf").incl_s == 2.0 and tracer.stat("leaf").self_s == 2.0
    assert tracer.stat("inner").calls == 2
    assert tracer.stat("inner").incl_s == 4.0 + 2.5
    assert tracer.stat("inner").self_s == 2.0 + 2.5
    assert tracer.stat("outer").incl_s == 10.0
    assert tracer.stat("outer").self_s == 10.0 - 6.5
    assert tracer.child_s[("outer", "inner")] == 6.5
    # three spans kept (the leaf is counted only), children point at the outer span
    assert tracer.spans == [("outer", 0.0, 10.0, -1), ("inner", 1.0, 5.0, 0), ("inner", 6.5, 9.0, 0)]


def test_nested_calls_of_one_name_count_inclusive_time_once():
    ticks = iter([0.0, 0.0, 1.0, 3.0, 4.0])
    tracer = Tracer(clock=lambda: next(ticks))
    a = tracer.enter("f")
    b = tracer.enter("f")
    tracer.exit(b)
    tracer.exit(a)
    assert tracer.stat("f").calls == 2
    assert tracer.stat("f").incl_s == 4.0
    assert tracer.stat("f").self_s == 4.0


def _coverage_records(cov: Coverage, wrong_case: int | None = None):
    records = []
    for i, (label, _, _) in enumerate(cov.cases):
        rounds_done, scalars = cov.expected_traffic(label)
        rows = []
        for t in range(cov.trials):
            sent = scalars + 1 if (i == wrong_case and t == 0) else scalars
            rows.append((t, 0, rounds_done, sent, "", 1, 1.0, 1.0, 1.0))
        records.append(ExperimentRecord("coverage", [], rows, {}, "x"))
    return records


def test_a_wrong_traffic_integer_counts_as_a_failure():
    cov = Coverage()
    cov.trials, cov.units_per_round = 3, 3 * len(cov.cases)
    good = cov.check(1, 0, None, _coverage_records(cov), derive_scalars=False)
    assert good.failed == 0 and good.units == 24
    bad = cov.check(1, 0, None, _coverage_records(cov, wrong_case=2), derive_scalars=False)
    assert bad.failed == 1 and "tas-1 trial 0" in bad.problems[0]

    sched = Schedules()
    record = ExperimentRecord("success_rate", [], [()] * 8, {"crosscheck_failures": 0}, "x")
    totals = [(8000, 8760)] * sched.deployments
    assert sched.check(1, 0, None, (record, totals), derive_scalars=False).failed == 0
    totals[3] = (8000, 8761)
    assert sched.check(1, 0, None, (record, totals), derive_scalars=False).failed == 1


def test_pooled_coverage_outside_the_wilson_interval_fails_the_case():
    cov = Coverage()
    cov.covers["local"] = [800, 1000]  # 0.80 is far outside the z = 4 interval around 0.9
    cov.covers["full"] = [900, 1000]
    out = cov.finish()
    assert out.failed == 1000 and out.problems[0].startswith("local")


def test_redraw_count_is_parsed_from_the_topology_debug_record():
    assert parse_redraws("random_geometric: connected after 4 attempts") == 3
    assert parse_redraws("something else") == 0
    n, radius = 30, 0.2
    # replay the deployment loop to know how many attempts the seed needs
    replay = rng.substream(7, "redraws")
    attempts = 1
    while True:
        pos = replay.uniform(0.0, 1.0, size=(n, 2))
        adj = ((pos[:, None, :] - pos[None, :, :]) ** 2).sum(axis=2) <= radius ** 2
        np.fill_diagonal(adj, False)
        if (topology.bfs_levels(adj, 0) >= 0).all():
            break
        attempts += 1
    assert attempts > 1
    logger = logging.getLogger("spsnet.topology")
    level = logger.level
    counter = RedrawCounter().attach()
    try:
        topology.random_geometric(n, rng.substream(7, "redraws"), radius=radius)
    finally:
        counter.detach()
    assert counter.redraws == attempts - 1
    assert logger.level == level and counter not in logger.handlers


def test_benchmark_json_lists_what_the_code_reports():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert [m["name"] for m in spec["per_layer"]] == list(layers.per_layer_metrics(Tracer(), 0, 0.0))
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "units_per_s", "peak_rss_mb"}


def test_reference_covers_every_round_of_a_default_run():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    reference = json.loads((REFERENCE_DIR / f"{Tradeoff.name}.json").read_text())
    assert reference["workload_seed"] == run.parse_args([]).seed
    assert len(reference["rounds"]) == REFERENCE_ROUNDS
    assert Tradeoff.rounds_for(spec["run_seconds"]) <= REFERENCE_ROUNDS
