"""The trade-off study and the consensus runner as the package first wrote them.

The package now reads every protocol of the trade-off study through the
protocol table, node k at round r, in one loop, and builds every consensus
aggregate from the weights N * W^t, stepped only when they are read. These
oracles keep the old shape: ``run_tradeoff`` reads MF knowledge, TAS wrap-ups
and consensus snapshots in three loops of their own, and ``eager_consensus``
steps every node's state, and W^t, through every iteration up front and
copies the ones it was told to keep; W^t is stepped with the right product
W^t W, as the package steps the rows it reads. TAS comes from the eager runner in
``diffusion_oracle``, which carries payloads. A TAS or consensus read's region
is evaluated on ``tie_exact_aggregate`` of the oracle's weights, as the
package does, and the oracle's payload sum or stepped state is returned next
to it for the test to compare. Tests require the package's record and every
consensus weight to equal these bit for bit.
"""

from __future__ import annotations

import numpy as np

import diffusion_oracle
from spsnet.diffusion import consensus_weights, payload_sizes, run_mf
from spsnet.experiments import ExperimentRecord, _consensus_checkpoints, _region_volume
from spsnet.model import generate_measurements
from spsnet.rng import derive_seed, substream
from spsnet.sps import (
    AggregateSums,
    batch_aggregate,
    draw_sign_matrix,
    tie_exact_aggregate,
    truncated_aggregate,
)
from spsnet.topology import diameter, random_geometric


class EagerConsensus:
    """Every state and weight matrix N * W^t the run was told to keep, and the
    final ones."""

    def __init__(self, vec, mat, power, iterations, snapshots):
        self.vec, self.mat, self.power, self.iterations, self.snapshots = vec, mat, power, iterations, snapshots

    def state(self, k: int, iteration: int | None = None) -> AggregateSums:
        if iteration is None:
            return AggregateSums(self.vec[k].copy(), self.mat[k].copy())
        v, m, _ = self.snapshots[iteration]
        return AggregateSums(v[k].copy(), m[k].copy())

    def weights(self, iteration: int | None = None) -> np.ndarray:
        power = self.power if iteration is None else self.snapshots[iteration][2]
        return len(power) * power


def eager_consensus(graph, samples, signs, iterations, scheme="metropolis", snapshot_iters=()) -> EagerConsensus:
    """Step all states from N times the local aggregates, and W^t from the
    identity, through every iteration, copying both at ``snapshot_iters``."""
    n = graph.n_nodes
    w = consensus_weights(graph, scheme)
    vec, mat = diffusion_oracle.local_aggregate_arrays(samples, signs)
    vec, mat, power = n * vec, n * mat, np.eye(n)
    wanted = set(int(t) for t in snapshot_iters)
    snapshots = {}
    if 0 in wanted:
        snapshots[0] = (vec.copy(), mat.copy(), power.copy())
    for t in range(1, iterations + 1):
        vec = np.einsum("kj,jab->kab", w, vec)
        mat = np.einsum("kj,jabc->kabc", w, mat)
        power = np.einsum("kj,ji->ki", power, w)  # W^t W: each row stepped on its own
        if t in wanted:
            snapshots[t] = (vec.copy(), mat.copy(), power.copy())
    return EagerConsensus(vec, mat, power, iterations, snapshots)


def run_tradeoff(config):
    """The three-loop study: (record, per-seed curves by protocol, and every
    TAS and consensus read as (aggregate built from the weights, eager payload
    sum or stepped state)."""
    seed = config.seed
    tcfg = config.cfg["topology"]
    n = int(tcfg["n_nodes"])
    fc = config.field_config()
    m, q = config.cfg["sps"]["m"], config.cfg["sps"]["q"]
    region = config.region_params(fc.p_true)
    pars = config.cfg["tradeoff"]
    n_seeds = int(pars["n_seeds"])
    d_rec, d_agg = payload_sizes(fc.n_p, m)
    checkpoints = _consensus_checkpoints(int(pars["max_iterations"]))

    curves = {"mf": [], "tas": [], "consensus-metropolis": [], "consensus-perron": []}
    full_volumes = []
    reads = []

    for s in range(n_seeds):
        graph = random_geometric(n, substream(seed, "topology", s), radius=tcfg.get("radius"))
        samples = generate_measurements(graph.positions, fc, substream(seed, "noise", s))
        signs = draw_sign_matrix(m, n, derive_seed(seed, "signs", s))
        if pars["node_sample"] is None:
            sample_nodes = list(range(n))
        else:
            pick = substream(seed, "node-sample", s).choice(n, size=min(int(pars["node_sample"]), n), replace=False)
            sample_nodes = sorted(int(v) for v in pick)

        full_agg = batch_aggregate(samples, signs)
        full_volumes.append(_region_volume(full_agg, region, q, derive_seed(seed, "rt", s, "full")))

        mf = run_mf(graph, samples)
        curve = []
        for r in range(0, mf.rounds_run + 1):
            vols = []
            for k in sample_nodes:
                agg = truncated_aggregate(samples, signs, mf.weights(k, r))
                vols.append(_region_volume(agg, region, q, derive_seed(seed, "rt", s, "mf", r, k)))
            scal = mf.traffic.total_through_round(r) / n
            curve.append((r, float(scal), float(np.mean(vols))))
        curves["mf"].append(curve)

        rounds_tas = pars["rounds"] if pars["rounds"] is not None else diameter(graph) + 2
        tas = diffusion_oracle.run_tas(graph, samples, signs, rounds=rounds_tas,
                                       snapshot_rounds=range(rounds_tas + 1), wrapup_nodes=sample_nodes)
        curve = []
        for r in range(0, rounds_tas + 1):
            weights, payload_sums = tas.snapshots[r]
            vols = []
            for k in sample_nodes:
                agg = tie_exact_aggregate(samples, signs, weights[k])
                reads.append((agg, payload_sums[k]))
                vols.append(_region_volume(agg, region, q, derive_seed(seed, "rt", s, "tas", r, k)))
            scal = tas.traffic.total_through_round(r) / n
            curve.append((r, float(scal), float(np.mean(vols))))
        curves["tas"].append(curve)

        for scheme in ("metropolis", "perron"):
            res = eager_consensus(graph, samples, signs, checkpoints[-1], scheme, snapshot_iters=checkpoints)
            curve = []
            for t in checkpoints:
                vols = []
                for k in sample_nodes:
                    agg = tie_exact_aggregate(samples, signs, res.weights(t)[k])
                    reads.append((agg, res.state(k, t)))
                    vols.append(_region_volume(agg, region, q, derive_seed(seed, "rt", s, scheme, t, k)))
                curve.append((t, float(t * d_agg), float(np.mean(vols))))
            curves[f"consensus-{scheme}"].append(curve)

    rows = []
    full_avg = float(np.mean(full_volumes))
    rows.append(("full", 0, 0.0, full_avg))
    averaged = {}
    for protocol, seed_curves in curves.items():
        if protocol.startswith("consensus"):
            pts = []
            for i, t in enumerate(checkpoints):
                scal = seed_curves[0][i][1]
                vol = float(np.mean([c[i][2] for c in seed_curves]))
                pts.append((t, scal, vol))
        else:
            max_r = max(len(c) - 1 for c in seed_curves)
            pts = []
            for r in range(0, max_r + 1):
                entries = [c[min(r, len(c) - 1)] for c in seed_curves]
                pts.append((r, float(np.mean([e[1] for e in entries])),
                            float(np.mean([e[2] for e in entries]))))
        averaged[protocol] = pts
        for r, scal, vol in pts:
            rows.append((protocol, r, scal, vol))

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
    for scheme in ("metropolis", "perron"):
        pts = averaged[f"consensus-{scheme}"]
        at4 = next((vol for t, _, vol in pts if t == 4), None)
        entry = {"avg_volume_at_4": at4, "final_avg_volume": pts[-1][2]}
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
    record = ExperimentRecord(
        name="tradeoff",
        columns=["protocol", "round", "avg_scalars_per_node", "avg_volume"],
        rows=rows,
        summary=summary,
        config_hash=config.config_hash,
    )
    return record, curves, reads
