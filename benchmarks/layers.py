"""Which ``spsnet`` callables the traced run wraps, and the per-layer metrics
computed from what they record.

The layers are the package modules. ``cli`` is left out: it is a thin
argparse front end whose cost shows in ``setup_s``.
"""

from __future__ import annotations

import os

DIFFUSION_RUNNERS = ("run_mf", "run_tas", "run_consensus", "run_tas_tree", "run_mf_tree",
                     "run_tas_clustered", "run_mf_clustered")
ANALYSIS_FORMULAS = ("traffic_tas_tree", "traffic_mf_tree", "traffic_tas_binary", "traffic_mf_binary",
                     "traffic_tas_clustered", "traffic_mf_clustered", "critical_size")
EXPERIMENT_RUNNERS = ("run_coverage", "run_tradeoff", "run_success_rate")


def _lp_observe(stat, args, kwargs, result):
    tags = (args[0] if args else kwargs["problem"]).tags
    stat.add("rows", tags.shape[0])
    stat.add("covered", int((tags.sum(axis=0) > 0).sum()))


def _region_observe(stat, args, kwargs, result):
    stat.add("cells", int(result.member_mask.size))


def _distill_observe(stat, args, kwargs, result):
    stat.add("kept", int(result is not None))


def _record_observe(stat, args, kwargs, result):
    # TrafficLog.record(self, round_, node, scalars, ...)
    stat.add("scalars", int(args[3] if len(args) > 3 else kwargs["scalars"]))


def _write_observe(stat, args, kwargs, result):
    stat.add("bytes", os.path.getsize(args[1] if len(args) > 1 else kwargs["path"]))


def install(tracer) -> None:
    """Wrap every measured layer boundary; ``tracer.restore()`` undoes it."""
    from spsnet import diffusion, experiments

    fn = tracer.patch_function
    fn("spsnet.rng", "substream", "rng.substream", keep_span=False)
    fn("spsnet.rng", "derive_seed", "rng.derive_seed", keep_span=False)
    fn("spsnet.model", "generate_measurements", "model.generate_measurements")
    for name in ("random_geometric", "spanning_tree", "diameter"):
        fn("spsnet.topology", name, f"topology.{name}")
    fn("spsnet.lp", "solve_lp", "lp.solve_lp", observe=_lp_observe)
    fn("spsnet.sps", "evaluate_region", "sps.evaluate_region", observe=_region_observe)
    for name in ("truncated_aggregate", "batch_aggregate"):
        fn("spsnet.sps", name, f"sps.{name}")
    for name in ("membership", "z_values", "draw_sign_matrix", "local_aggregate"):
        fn("spsnet.sps", name, f"sps.{name}", keep_span=False)
    fn("spsnet.diffusion", "tas_distill", "diffusion.tas_distill", keep_span=False,
       observe=_distill_observe)
    fn("spsnet.diffusion", "tas_aggregate", "diffusion.tas_aggregate", keep_span=False)
    fn("spsnet.diffusion", "tas_wrapup", "diffusion.tas_wrapup")
    for name in DIFFUSION_RUNNERS:
        fn("spsnet.diffusion", name, f"diffusion.{name}")
    tracer.patch_method(diffusion.TrafficLog, "record", "diffusion.traffic.record", keep_span=False,
                        observe=_record_observe)
    for name in ANALYSIS_FORMULAS:
        fn("spsnet.analysis", name, "analysis.formulas", keep_span=False)
    for name in EXPERIMENT_RUNNERS:
        fn("spsnet.experiments", name, "experiments.runner")
    tracer.patch_method(experiments.ExperimentConfig, "__init__", "experiments.config")
    for name in ("to_csv", "to_json"):
        tracer.patch_method(experiments.ExperimentRecord, name, "experiments.write",
                            observe=_write_observe)


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name's last part."""
    last = name.rsplit(".", 1)[-1]
    if last == "s" or last.endswith("_s"):
        return "s"
    return {"overhead_frac": "frac", "kept_frac": "frac", "lp_frac": "frac", "bytes": "bytes",
            "rows_mean": "rows", "covered_mean": "nodes", "cells": "cells",
            "scalars": "scalars"}.get(last, "count")


def _mean(total, calls):
    return total / calls if calls else 0.0


def per_layer_metrics(tracer, redraws: int, overhead_frac: float) -> dict[str, float]:
    """Every per-layer metric, by name, from one traced run."""
    st = tracer.stat
    out: dict[str, float] = {}

    lp = st("lp.solve_lp")
    out["lp.solve_lp.calls"] = lp.calls
    out["lp.solve_lp.s"] = lp.incl_s
    out["lp.solve_lp.rows_mean"] = _mean(lp.extra.get("rows", 0), lp.calls)
    out["lp.solve_lp.covered_mean"] = _mean(lp.extra.get("covered", 0), lp.calls)
    out["lp.solve_lp.failed"] = lp.failed

    region = st("sps.evaluate_region")
    out["sps.evaluate_region.calls"] = region.calls
    out["sps.evaluate_region.cells"] = region.extra.get("cells", 0)
    out["sps.evaluate_region.s"] = region.incl_s
    out["sps.membership.calls"] = st("sps.membership").calls
    out["sps.membership.s"] = st("sps.membership").incl_s
    for name in ("z_values", "draw_sign_matrix", "batch_aggregate"):
        out[f"sps.{name}.s"] = st(f"sps.{name}").incl_s
    for name in ("truncated_aggregate", "local_aggregate"):
        out[f"sps.{name}.calls"] = st(f"sps.{name}").calls
        out[f"sps.{name}.s"] = st(f"sps.{name}").incl_s

    gen = st("model.generate_measurements")
    out["model.generate_measurements.calls"] = gen.calls
    out["model.generate_measurements.s"] = gen.incl_s

    out["rng.substream.calls"] = st("rng.substream").calls
    out["rng.substream.s"] = st("rng.substream").incl_s
    out["rng.derive_seed.calls"] = st("rng.derive_seed").calls

    distill = st("diffusion.tas_distill")
    out["diffusion.tas_distill.calls"] = distill.calls
    out["diffusion.tas_distill.s"] = distill.incl_s
    out["diffusion.tas_distill.kept_frac"] = _mean(distill.extra.get("kept", 0), distill.calls)
    out["diffusion.tas_aggregate.calls"] = st("diffusion.tas_aggregate").calls
    out["diffusion.tas_aggregate.s"] = st("diffusion.tas_aggregate").incl_s
    wrapup = st("diffusion.tas_wrapup")
    out["diffusion.tas_wrapup.calls"] = wrapup.calls
    out["diffusion.tas_wrapup.self_s"] = wrapup.self_s
    lp_in_wrapup = tracer.child_s.get(("diffusion.tas_wrapup", "lp.solve_lp"), 0.0)
    out["diffusion.tas_wrapup.lp_frac"] = _mean(lp_in_wrapup, wrapup.incl_s)
    record = st("diffusion.traffic.record")
    out["diffusion.traffic.events"] = record.calls
    out["diffusion.traffic.record_s"] = record.incl_s
    out["diffusion.traffic.scalars"] = record.extra.get("scalars", 0)
    for name in DIFFUSION_RUNNERS:
        out[f"diffusion.{name}.self_s"] = st(f"diffusion.{name}").self_s

    rgg = st("topology.random_geometric")
    out["topology.random_geometric.calls"] = rgg.calls
    out["topology.random_geometric.s"] = rgg.incl_s
    out["topology.redraws"] = redraws
    out["topology.spanning_tree.s"] = st("topology.spanning_tree").incl_s
    out["topology.diameter.s"] = st("topology.diameter").incl_s

    out["analysis.formulas.calls"] = st("analysis.formulas").calls
    out["analysis.formulas.s"] = st("analysis.formulas").incl_s

    out["experiments.config.s"] = st("experiments.config").incl_s
    out["experiments.runner.self_s"] = st("experiments.runner").self_s
    out["experiments.write.s"] = st("experiments.write").incl_s
    out["experiments.write.bytes"] = st("experiments.write").extra.get("bytes", 0)

    out["trace.overhead_frac"] = overhead_frac
    return out
