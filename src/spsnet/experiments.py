"""Seeded batch experiments: coverage Monte Carlo, volume-traffic curves,
TAS-versus-MF success rates.

Every runner is a pure function of its configuration: topology, data, signs
and tie-breaks all come from named substreams of the config seed, rows are
emitted in sorted order, and the CSV/JSON writers stamp each record with a
hash of the configuration so outputs can be replayed and diffed byte for
byte.
"""

from __future__ import annotations

import copy
import csv
import functools
import hashlib
import json
from collections.abc import Callable
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .analysis import traffic_mf_tree, traffic_tas_tree
from .diffusion import (
    CONSENSUS_SCHEMES,
    MfResult,
    TrafficLog,
    payload_sizes,
    run_consensus,
    run_mf,
    run_mf_clustered,
    run_mf_tree,
    run_pf,
    run_tas,
    run_tas_clustered,
    run_tas_tree,
)
from .model import FieldConfig, NoiseSpec, Samples, generate_measurements
from .rng import derive_seed, substream
from .sps import (
    AggregateSums,
    RegionResult,
    SignMatrix,
    SingularMatrixError,
    batch_aggregate,
    draw_sign_matrix,
    evaluate_region,
    local_aggregate,
    ls_estimate,
    membership,
    tie_exact_aggregate,
    truncated_aggregate,
    z_values,
)
from .topology import (
    Graph,
    clustered,
    complete_binary_tree,
    diameter,
    random_geometric,
    spanning_tree,
)

TOOL_VERSION = "0.1.0"


@functools.cache
def _schema() -> dict:
    """The packaged config schema, read once: every key, its type and its
    default. Reading it imports no ``jsonschema``."""
    text = resources.files("spsnet").joinpath("data/experiment_config.schema.json").read_text()
    return json.loads(text)


@functools.cache
def _validator():
    """The packaged schema's validator, built on first use: importing
    ``jsonschema`` is a large share of a fresh start, and commands that load
    no config never pay for it."""
    import jsonschema

    return jsonschema.Draft202012Validator(_schema())


def validate_config(raw: dict) -> None:
    """Raise the jsonschema.ValidationError ``jsonschema.validate`` would raise
    (the best match) when the config does not fit the packaged schema.

    Uses one validator built per process and does not re-check the schema
    against its metaschema; the test suite checks it against draft 2020-12.
    """
    from jsonschema.exceptions import best_match

    error = best_match(_validator().iter_errors(raw))
    if error is not None:
        raise error


def _resolve(value, schema: dict):
    """A fresh copy of ``value`` read through ``schema``: every absent property
    that declares a default gets it, and every float the schema types as an
    integer is an int (JSON Schema counts 2.0 as an integer, the runners count
    with ints). Keys the schema does not list are copied as they are. The
    alternatives of an ``anyOf`` are read as one schema."""
    if isinstance(value, dict):
        props = schema.get("properties", {})
        out = {key: _resolve(v, props.get(key, {})) for key, v in value.items()}
        for key, sub in props.items():
            if key not in out and "default" in sub:
                out[key] = _resolve(sub["default"], sub)
        return out
    parts = [schema, *schema.get("anyOf", ())]
    if isinstance(value, list):
        items = next((part["items"] for part in parts if "items" in part), {})
        return [_resolve(v, items) for v in value]
    # a part's "type" is one name or a list of names; "integer" is in either
    if isinstance(value, float) and any("integer" in part.get("type", ()) for part in parts):
        return int(value)
    return value


class ExperimentConfig:
    """Validated experiment configuration.

    ``raw`` is the config as given, which ``config_hash`` hashes; ``cfg`` is
    the config the runners read: every default filled in, ``model.p_true``
    defaulted to (-0.5)^k, and every integer-typed value an int.
    """

    def __init__(self, raw: dict):
        validate_config(raw)
        self.raw = copy.deepcopy(raw)
        self.cfg = cfg = _resolve(raw, _schema())
        model = cfg["model"]
        if model["p_true"] is None:
            model["p_true"] = [(-0.5) ** k for k in range(model["n_p"])]
        topo = cfg["topology"]
        if topo["kind"] == "clustered" and topo["n_clusters"] > topo["n_nodes"]:
            raise ValueError(f"topology.n_clusters ({topo['n_clusters']}) must not exceed "
                             f"topology.n_nodes ({topo['n_nodes']})")

    @property
    def config_hash(self) -> str:
        # where the outputs land does not affect what the experiment computes
        material = json.dumps({k: v for k, v in self.raw.items() if k != "output_dir"},
                              sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(material.encode()).hexdigest()[:12]

    @property
    def seed(self) -> int:
        return self.cfg["seed"]

    def field_config(self) -> FieldConfig:
        cfg = self.cfg["model"]
        return FieldConfig(
            n_p=cfg["n_p"],
            p_true=np.asarray(cfg["p_true"], dtype=float),
            n_x=cfg["n_x"],
            regressor_family=cfg["regressor_family"],
            noise=NoiseSpec(kind=cfg["noise"]["kind"], scale=cfg["noise"]["scale"]),
            regressor_seed=cfg["regressor_seed"],
        )

    def region_params(self, center=None) -> dict:
        """A copy of the ``region`` section; without a box, a unit-halfwidth
        box around ``center`` when one is given."""
        region = copy.deepcopy(self.cfg["region"])
        if region["box"] is None and center is not None:
            region["box"] = [[float(c) - 1.0, float(c) + 1.0] for c in np.atleast_1d(center)]
        return region


@dataclass(eq=False)
class ExperimentRecord:
    """Tabular result of one experiment plus its summary statistics."""

    name: str
    columns: list[str]
    rows: list[tuple]
    summary: dict
    config_hash: str

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(f"# name={self.name} config_hash={self.config_hash} tool_version={TOOL_VERSION}\n")
            writer = csv.writer(fh)
            writer.writerow(self.columns)
            for row in self.rows:
                writer.writerow(list(row))

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "config_hash": self.config_hash,
            "tool_version": TOOL_VERSION,
            "columns": list(self.columns),
            "rows": [list(r) for r in self.rows],
            "summary": self.summary,
        }

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def wilson_interval(successes: int, trials: int, z: float = 3.0) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion (default 3-sigma)."""
    if trials < 1:
        raise ValueError("trials must be positive")
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * np.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return float(max(0.0, center - half)), float(min(1.0, center + half))


# ---------------------------------------------------------------------------
# topology construction from config


@dataclass(eq=False)
class TopologyBundle:
    kind: str
    graph: Graph
    tree: object | None
    clusters: object | None
    positions: np.ndarray
    radius: float | None = None  # the broadcast radius of a random deployment


def build_topology(seed: int, tcfg: dict, *path) -> TopologyBundle:
    """Instantiate the configured topology from the ``(seed, label, *path)``
    substreams.

    Geometric kinds carry their own node positions; the synthetic kinds
    (complete, binary, clustered) get uniform positions so the measurement
    model is always well defined.
    """
    kind = tcfg["kind"]
    n = tcfg["n_nodes"]
    if kind == "binary":
        tree = complete_binary_tree(tcfg["depth"])
        n = tree.n_nodes
    if kind in ("rgg", "tree"):
        g = random_geometric(n, substream(seed, "topology", *path), radius=tcfg.get("radius"))
        if kind == "rgg":
            return TopologyBundle(kind, g, None, None, g.positions, g.radius)
        tree = spanning_tree(g)
        return TopologyBundle(kind, tree.graph(), tree, None, g.positions, g.radius)
    positions = substream(seed, "positions", *path).uniform(0.0, 1.0, size=(n, 2))
    if kind == "complete":
        adj = ~np.eye(n, dtype=bool)
        return TopologyBundle(kind, Graph(adjacency=adj, positions=positions), None, None, positions)
    if kind == "binary":
        return TopologyBundle(kind, tree.graph(), tree, None, positions)
    if kind == "clustered":
        topo = clustered(n, tcfg["n_clusters"], substream(seed, "topology", *path))
        return TopologyBundle(kind, topo.graph(), None, topo, positions)
    raise ValueError(f"unknown topology kind {kind!r}")


# ---------------------------------------------------------------------------
# the protocol table: what each protocol hands the SPS test


def _own_aggregate(samples, signs, c):
    """``local_aggregate`` of the one node whose weight is nonzero."""
    (k,) = np.flatnonzero(c)
    return local_aggregate(samples, k, signs.column(k))


def _full(bundle, samples, signs, diff):
    n = bundle.graph.n_nodes
    return MfResult([[(1 << n) - 1] * n], TrafficLog("full", n), 0), truncated_aggregate


def _local(bundle, samples, signs, diff):
    n = bundle.graph.n_nodes
    return MfResult([[1 << k for k in range(n)]], TrafficLog("local", n), 0), _own_aggregate


def _pf(bundle, samples, signs, diff):
    return run_pf(bundle.graph, samples, max_rounds=diff["rounds"]), truncated_aggregate


def _mf(bundle, samples, signs, diff):
    if bundle.tree is not None:
        res = run_mf_tree(bundle.tree, samples)
    elif bundle.clusters is not None:
        res = run_mf_clustered(bundle.clusters, samples)
    else:
        res = run_mf(bundle.graph, samples, max_rounds=diff["rounds"])
    return res, truncated_aggregate


def _tas(bundle, samples, signs, diff):
    if bundle.tree is not None:
        res = run_tas_tree(bundle.tree, samples, signs)
    elif bundle.clusters is not None:
        res = run_tas_clustered(bundle.clusters, samples, signs)
    else:
        res = run_tas(bundle.graph, samples, signs, rounds=diff["rounds"])
    return res, tie_exact_aggregate


def _consensus(bundle, samples, signs, diff):
    res = run_consensus(bundle.graph, samples, signs, iterations=diff["iterations"], scheme=diff["scheme"])
    return res, tie_exact_aggregate


# Each entry runs its protocol and returns (result, builder of its aggregates).
# Entries look their runners and builders up by module-level name at call
# time, so a patched module binding (as a tracer installs) reaches every
# protocol.
PROTOCOLS = {"full": _full, "local": _local, "pf": _pf, "mf": _mf, "tas": _tas, "consensus": _consensus}


def run_protocol(bundle: TopologyBundle, samples: Samples, signs: SignMatrix,
                 diff: dict) -> tuple[object, Callable[..., AggregateSums]]:
    """Run the protocol ``diff["protocol"]`` names on one data draw, which
    only sizes the payloads, and return the run result with the one way its
    aggregates are built, ``(run, builder)``.

    ``run.weights(k, r)`` is node k's weight vector c at round r, the end of
    the run when r is None: PF and MF read the knowledge after round r is
    delivered (a round past the last one gives the final knowledge), TAS the
    wrap-up as round r sends, consensus N * W^r after iteration r; TAS and
    consensus raise ValueError for a round that was not run. ``run.traffic``
    is empty for ``full`` and ``local``, which have no rounds. The weights
    never read the data, so one run serves every draw on its topology.
    ``builder(samples, signs, c)`` gives the c-weighted aggregate sums: TAS
    and consensus build with ``tie_exact_aggregate``, ``local`` with its
    node's ``local_aggregate`` (the same values and Z), and ``full``, PF and
    MF with ``truncated_aggregate``.

    On tree and binary bundles MF and TAS run the tree's schedule, on
    clustered bundles the clusters' one, and ``diffusion.rounds`` is ignored.
    Every other case runs the general-graph runner. TAS wraps up a node's
    table on each read of its weights, and builds nothing before.
    """
    protocol = diff["protocol"]
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}")
    return PROTOCOLS[protocol](bundle, samples, signs, diff)


def _draw_data(seed: int, positions: np.ndarray, fc: FieldConfig, m: int, *path) -> tuple[Samples, SignMatrix]:
    """One data draw on a deployment: measurements from the ``("noise",
    *path)`` substream of ``seed``, the m x N signs from ``("signs", *path)``."""
    samples = generate_measurements(positions, fc, substream(seed, "noise", *path))
    return samples, draw_sign_matrix(m, len(positions), derive_seed(seed, "signs", *path))


def simulate(config: ExperimentConfig) -> tuple[object, Callable[..., AggregateSums], Samples, SignMatrix]:
    """``(run, builder, samples, signs)``: the configured protocol's
    ``run_protocol`` pair and the data of coverage trial 0, as the ``region``
    and ``diffuse`` subcommands run them."""
    cfg = config.cfg
    bundle = build_topology(config.seed, cfg["topology"])
    samples, signs = _draw_data(config.seed, bundle.positions, config.field_config(), cfg["sps"]["m"], 0)
    return *run_protocol(bundle, samples, signs, cfg["diffusion"]), samples, signs


def _designated_node(config: ExperimentConfig, n_nodes: int) -> int:
    """The config's ``node``, checked against the network size."""
    node = config.cfg["node"]
    if not 0 <= node < n_nodes:
        raise ValueError("designated node is out of range")
    return node


# ---------------------------------------------------------------------------
# coverage Monte Carlo


def _region_volume(agg, region, q, tie_seed) -> float:
    res = evaluate_region(agg, region["box"], region["grid_per_dim"], q, tie_seed=tie_seed)
    return float(res.volume)


def run_coverage(config: ExperimentConfig) -> ExperimentRecord:
    """Monte Carlo estimate of the confidence region's coverage of p_true.

    Each trial is one deployment: it redraws noise and signs (topology and
    regressors stay fixed), runs the configured protocol and logs its
    traffic, reads the designated node's weights c once (every node's with
    ``all_nodes``), builds its aggregate and its ``c_*`` columns from that c,
    and tests membership of the true parameter. Nodes with equal weights
    share one aggregate. Region volumes are evaluated per row only when the
    region section asks for it.
    """
    seed, cfg = config.seed, config.cfg
    bundle = build_topology(seed, cfg["topology"])
    n = bundle.graph.n_nodes
    fc = config.field_config()
    m, q = cfg["sps"]["m"], cfg["sps"]["q"]
    diff = cfg["diffusion"]
    designated = _designated_node(config, n)
    nodes = list(range(n)) if cfg["all_nodes"] else [designated]
    region = config.region_params(fc.p_true)
    trials = cfg["trials"]

    rows = []
    covers_by_node = {k: 0 for k in nodes}
    for trial in range(trials):
        samples, signs = _draw_data(seed, bundle.positions, fc, m, trial)
        run, builder = run_protocol(bundle, samples, signs, diff)
        per_node = run.traffic.per_node_totals
        built = {}  # one aggregate per distinct weight vector: ``full`` builds once
        for k in nodes:
            c = run.weights(k)
            key = c.tobytes()
            if key not in built:
                built[key] = builder(samples, signs, c)
            agg = built[key]
            covers = membership(z_values(agg, fc.p_true), q,
                                lambda: substream(seed, "ties", trial, k).uniform(size=m))
            covers_by_node[k] += covers
            volume = (_region_volume(agg, region, q, derive_seed(seed, "region-ties", trial, k))
                      if region["evaluate"] else "")
            rows.append((
                trial, k, int(run.rounds_run), int(per_node[k]), volume, int(covers),
                float(np.min(c)), float(np.mean(c)), float(np.max(c)),
            ))

    rates = {k: covers_by_node[k] / trials for k in nodes}
    lo, hi = wilson_interval(covers_by_node[designated], trials)
    summary = {
        "protocol": diff["protocol"],
        "trials": trials,
        "node": designated,
        "coverage": rates[designated],
        "expected": 1.0 - q / m,
        "wilson_low": lo,
        "wilson_high": hi,
    }
    if cfg["all_nodes"]:
        summary["coverage_min"] = float(min(rates.values()))
        summary["coverage_max"] = float(max(rates.values()))
    return ExperimentRecord(
        name="coverage",
        columns=["trial", "node", "rounds_done", "scalars_sent", "volume", "covers_truth",
                 "c_min", "c_mean", "c_max"],
        rows=rows,
        summary=summary,
        config_hash=config.config_hash,
    )


# ---------------------------------------------------------------------------
# volume-versus-traffic trade-off


def _consensus_checkpoints(limit: int) -> list[int]:
    """Every iteration up to 16, geometric later; always includes the limit,
    and 4 only when the limit is at least 4 (else ``avg_volume_at_4`` is
    null)."""
    ts = set(range(1, min(16, limit) + 1))
    t = 16
    while t < limit:
        t = min(limit, max(t + 1, int(t * 1.3)))
        ts.add(t)
    return sorted(ts)


def _rgg_topology(config: ExperimentConfig, study: str) -> dict:
    """The ``topology`` section of a study that draws its own random geometric
    deployments; any other ``kind`` raises ValueError."""
    tcfg = config.cfg["topology"]
    if tcfg["kind"] != "rgg":
        raise ValueError(f"{study} study draws random geometric deployments; "
                         f"topology.kind must be 'rgg', not {tcfg['kind']!r}")
    return tcfg


def run_tradeoff(config: ExperimentConfig) -> ExperimentRecord:
    """Average region volume against average per-node traffic, per round.

    For every seed: one data draw on a fresh random geometric network, then
    MF, TAS and both consensus schemes run through the protocol table, and
    the region volume of every sampled node's aggregate, built from
    ``weights(k, r)``, is measured at each round read (every round for MF and
    TAS, the checkpoints for consensus); traffic per node is the log's total
    through round r over N. A seed's reads share one memo of volumes keyed by
    (builder, c): the same builder gives the same Z from the same c, so a
    region whose grid had no tie does not depend on its tie seed and is
    reused; one that drew tie keys is not stored, and a later read of that c
    is evaluated with its own seed. Rows are (protocol, round, avg scalars
    per node, avg volume) averaged over seeds and sampled nodes, a shorter
    curve held at its last point; the summary locates the consensus iteration
    bracket whose mean volume first matches full diffusion and the per-node
    scalars this costs. A ``topology.kind`` other than ``rgg`` raises
    ValueError.
    """
    seed, cfg = config.seed, config.cfg
    fc = config.field_config()
    tcfg = _rgg_topology(config, "trade-off")
    n = tcfg["n_nodes"]
    m, q = cfg["sps"]["m"], cfg["sps"]["q"]
    region = config.region_params(fc.p_true)
    pars = cfg["tradeoff"]
    n_seeds = pars["n_seeds"]
    d_rec, d_agg = payload_sizes(fc.n_p, m)
    checkpoints = _consensus_checkpoints(pars["max_iterations"])

    curves: dict[str, list[list[tuple[int, float, float]]]] = {}
    full_volumes = []
    for s in range(n_seeds):
        bundle = build_topology(seed, tcfg, s)
        graph = bundle.graph
        samples, signs = _draw_data(seed, bundle.positions, fc, m, s)
        if pars["node_sample"] is None:
            sample_nodes = list(range(n))
        else:
            pick = substream(seed, "node-sample", s).choice(n, size=min(pars["node_sample"], n), replace=False)
            sample_nodes = sorted(int(v) for v in pick)
        full_volumes.append(_region_volume(batch_aggregate(samples, signs), region, q,
                                           derive_seed(seed, "rt", s, "full")))

        # (curve, tie-seed label, diffusion, rounds read; None reads every round run)
        rounds_tas = pars["rounds"] if pars["rounds"] is not None else diameter(graph) + 2
        reads = [("mf", "mf", {"protocol": "mf", "rounds": None}, None),
                 ("tas", "tas", {"protocol": "tas", "rounds": rounds_tas}, None)]
        reads += [(f"consensus-{scheme}", scheme,
                   {"protocol": "consensus", "iterations": checkpoints[-1], "scheme": scheme}, checkpoints)
                  for scheme in CONSENSUS_SCHEMES]
        volumes = {}  # (builder, c bytes) -> volume of a region that drew no tie keys
        for name, label, diff, rounds in reads:
            run, builder = run_protocol(bundle, samples, signs, diff)
            curve = []
            for r in range(run.rounds_run + 1) if rounds is None else rounds:
                vols = []
                for k in sample_nodes:
                    c = run.weights(k, r)
                    key = (builder, c.tobytes())
                    vol = volumes.get(key)
                    if vol is None:
                        res = evaluate_region(builder(samples, signs, c), region["box"], region["grid_per_dim"],
                                              q, derive_seed(seed, "rt", s, label, r, k))
                        vol = res.volume
                        if not res.tied:
                            volumes[key] = vol
                    vols.append(vol)
                curve.append((r, run.traffic.total_through_round(r) / n, float(np.mean(vols))))
            curves.setdefault(name, []).append(curve)

    # average the per-seed curves, step-extending the shorter ones
    full_avg = float(np.mean(full_volumes))
    rows = [("full", 0, 0.0, full_avg)]
    averaged: dict[str, list[tuple[int, float, float]]] = {}
    for protocol, seed_curves in curves.items():
        pts = []
        for i, (r, _, _) in enumerate(max(seed_curves, key=len)):
            entries = [c[min(i, len(c) - 1)] for c in seed_curves]
            pts.append((r, float(np.mean([e[1] for e in entries])), float(np.mean([e[2] for e in entries]))))
        averaged[protocol] = pts
        rows += [(protocol, *pt) for pt in pts]

    tol = float(pars["volume_tolerance"])
    summary = {
        "n_seeds": n_seeds,
        "d_record": d_rec,
        "d_aggregate": d_agg,
        "full_avg_volume": full_avg,
    }
    for protocol in ("mf", "tas"):
        _, scal, vol = averaged[protocol][-1]
        summary[protocol] = {
            "final_avg_scalars_per_node": scal,
            "final_avg_volume": vol,
        }
    for scheme in CONSENSUS_SCHEMES:
        pts = averaged[f"consensus-{scheme}"]
        at4 = next((vol for t, _, vol in pts if t == 4), None)
        entry = {"avg_volume_at_4": at4, "final_avg_volume": pts[-1][2]}
        # iterations the consensus needs to first reach each flooding
        # protocol's achieved mean volume; (lo, hi] brackets the matching
        # point, so (lo + 1) * d_agg is a per-node scalar lower bound
        for protocol in ("mf", "tas"):
            threshold = summary[protocol]["final_avg_volume"] * (1.0 + tol)
            hi = None
            lo = 0
            for t, _, vol in pts:
                if vol <= threshold:
                    hi = t
                    break
                lo = t
            entry[f"matched_vs_{protocol}"] = {
                "threshold_volume": float(threshold),
                "lo": lo,
                "hi": hi,
                "scalars_per_node_lower_bound": float((lo + 1) * d_agg) if hi is not None else None,
            }
        summary[f"consensus-{scheme}"] = entry
    return ExperimentRecord(
        name="tradeoff",
        columns=["protocol", "round", "avg_scalars_per_node", "avg_volume"],
        rows=rows,
        summary=summary,
        config_hash=config.config_hash,
    )


# ---------------------------------------------------------------------------
# TAS-versus-MF success rate on random trees


def run_success_rate(config: ExperimentConfig) -> ExperimentRecord:
    """Fraction of random-tree realizations on which TAS moves fewer scalars.

    Trees are breadth-first spanning trees of connected random geometric
    deployments. Per realization the two scheduled simulators run once and
    their totals are checked against the census formulas exactly; the n_p
    sweep then evaluates the (verified) formulas on the same census, since
    only the payload sizes change with n_p. The sizes come from
    ``success_rate.n_nodes``; of ``topology`` only ``radius`` is read (the
    default scales with each size), and a ``topology.kind`` other than
    ``rgg`` raises ValueError.
    """
    seed = config.seed
    tcfg = _rgg_topology(config, "success-rate")
    pars = config.cfg["success_rate"]
    m = config.cfg["sps"]["m"]
    n_list, np_list, realizations = pars["n_nodes"], pars["n_p"], pars["realizations"]
    np_check = np_list[0]
    fc = FieldConfig(
        n_p=np_check,
        p_true=np.zeros(np_check),
        noise=NoiseSpec(kind="gaussian", scale=0.1),
    )

    rows = []
    rates: dict[tuple[int, int], float] = {}
    crosscheck_failures = 0
    for n_nodes in n_list:
        wins = {n_p: 0 for n_p in np_list}
        for r in range(realizations):
            bundle = build_topology(seed, {**tcfg, "kind": "tree", "n_nodes": n_nodes}, n_nodes, r)
            tree = bundle.tree
            lam = tree.level_counts
            bar = tree.childless_counts
            samples, signs = _draw_data(seed, bundle.positions, fc, m, n_nodes, r)
            tas_sim = run_tas_tree(tree, samples, signs).traffic.total_scalars
            mf_sim = run_mf_tree(tree, samples).traffic.total_scalars
            if tas_sim != traffic_tas_tree(lam, bar, np_check, m):
                crosscheck_failures += 1
            if mf_sim != traffic_mf_tree(lam, bar, np_check, m):
                crosscheck_failures += 1
            for n_p in np_list:
                if traffic_tas_tree(lam, bar, n_p, m) < traffic_mf_tree(lam, bar, n_p, m):
                    wins[n_p] += 1
        for n_p in np_list:
            rate = wins[n_p] / realizations
            rates[(n_nodes, n_p)] = rate
            rows.append((n_nodes, n_p, realizations, wins[n_p], rate))

    inversions = {}
    for n_p in np_list:
        seq = [rates[(n_nodes, n_p)] for n_nodes in n_list]
        inversions[str(n_p)] = int(sum(1 for a, b in zip(seq, seq[1:]) if b < a))
    summary = {
        "m": m,
        "n_nodes": n_list,
        "n_p": np_list,
        "realizations": realizations,
        "crosscheck_failures": crosscheck_failures,
        "rates": {f"{n}:{p}": rates[(n, p)] for (n, p) in rates},
        "monotone_inversions": inversions,
    }
    return ExperimentRecord(
        name="success_rate",
        columns=["n_nodes", "n_p", "realizations", "tas_wins", "success_rate"],
        rows=rows,
        summary=summary,
        config_hash=config.config_hash,
    )


# ---------------------------------------------------------------------------
# one-shot region evaluation (library core of the `region` subcommand)


def run_region(config: ExperimentConfig) -> tuple[RegionResult, dict]:
    """Confidence region for one data set: explicit data block or simulation.

    With a ``data`` block the aggregate is built directly from the given
    regressors, measurements, and sign matrix (drawn from sps.m when only a
    sign seed is given). Otherwise one seeded trial of the configured
    diffusion supplies the designated node's aggregate. Without an explicit
    box the region is evaluated on a unit-halfwidth box around the
    least-squares estimate, or on the minimum-norm least-squares solution
    when the normal-equations matrix is too ill-conditioned for the estimate
    (fewer weighted samples than parameters); ``meta`` then records that
    matrix's ``rank`` and whether the region is ``bounded`` (full rank).
    Non-finite data, or a sign matrix whose width is not the number of rows,
    raise ValueError.
    """
    seed, cfg = config.seed, config.cfg
    m, q = cfg["sps"]["m"], cfg["sps"]["q"]
    if "data" in cfg:
        data = cfg["data"]
        samples = Samples(data["phi"], data["y"])
        if "signs" in data:
            signs = SignMatrix(data["signs"])
        else:
            signs = draw_sign_matrix(m, len(samples), data.get("sign_seed", seed))
        agg = batch_aggregate(samples, signs)
        m = signs.m
        meta = {"source": "data", "n_nodes": len(samples)}
    else:
        run, builder, samples, signs = simulate(config)
        agg = builder(samples, signs, run.weights(_designated_node(config, run.traffic.n_nodes)))
        meta = {"source": "simulation", "n_nodes": run.traffic.n_nodes,
                "protocol": cfg["diffusion"]["protocol"]}
    center = None
    if cfg["region"]["box"] is None:
        try:
            center = ls_estimate(agg)
        except SingularMatrixError:
            center, _, rank, _ = np.linalg.lstsq(agg.mat[0], agg.vec[0], rcond=None)
            meta.update({"rank": int(rank), "bounded": bool(rank == agg.n_p)})
    region = config.region_params(center)
    tie_seed = region["tie_seed"] if region["tie_seed"] is not None else derive_seed(seed, "region-ties")
    result = evaluate_region(agg, region["box"], region["grid_per_dim"], q, tie_seed=tie_seed)
    meta.update({"m": int(m), "q": int(q), "volume": float(result.volume)})
    return result, meta
