"""The three benchmark workloads: inputs, timed body, and output checks.

A workload runs in rounds. Round ``j`` of workload seed ``s`` builds its
schema-validated configs with config seed ``10 * (1000 * s + j) + i`` for its
``i``-th config, so the same workload seed always gives the same inputs and
no two rounds share one. How many rounds a run holds depends only on the
workload and the run length, never on how fast the rounds go, so every
commit is timed on the same inputs. Only ``body`` is timed: the public runner calls plus
writing each record with ``to_csv`` and ``to_json``, as the CLI does.
``body`` reaches the package through its modules (``experiments.run_tradeoff``)
so that a traced run sees every call; ``check`` calls no wrapped function, so
it runs the same with tracing on or off.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from spsnet import diffusion, experiments, model, rng, sps, topology
from spsnet.analysis import traffic_mf_tree, traffic_tas_tree
from spsnet.diffusion import payload_sizes
from spsnet.experiments import ExperimentConfig, wilson_interval
from spsnet.model import FieldConfig, NoiseSpec

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_ROUNDS = 12  # rounds of the default seed stored by make_reference.py

# z of the pooled per-case Wilson interval: P(|Z| > 4) = 6.3e-5, so a correct
# program fails one of the eight coverage cases on about 1 seed in 2000
WILSON_Z = 4.0


def config_seed(seed: int, round_: int, index: int = 0) -> int:
    return 10 * (1000 * seed + round_) + index


def record_digest(records) -> str:
    h = hashlib.sha256()
    for rec in records:
        h.update(json.dumps(rec.to_json_dict(), sort_keys=True).encode())
    return h.hexdigest()


def write_record(record, out_dir: str, stem: str) -> None:
    record.to_csv(os.path.join(out_dir, f"{stem}.csv"))
    record.to_json(os.path.join(out_dir, f"{stem}.json"))


@dataclass
class RoundCheck:
    units: int
    failed: int = 0
    scalars: int | None = None  # traffic total derived from the outputs alone
    problems: list[str] = field(default_factory=list)

    def fail(self, units: int, why: str) -> None:
        self.failed = min(self.units, self.failed + units)
        self.problems.append(why)


class Workload:
    name: str
    why: str
    round_s: float  # seconds one round took at the seed commit on the reference machine
    trace_rounds: int  # fixed round count of a traced run, so its counts repeat exactly
    units_per_round: int

    @classmethod
    def rounds_for(cls, seconds: float) -> int:
        """Rounds of a ``--trace 0`` run: one untimed, then ``seconds`` of work
        at the seed commit's speed."""
        return 1 + max(1, round(seconds / cls.round_s))

    def build(self, seed: int, round_: int, out_dir: str) -> list[ExperimentConfig]:
        raise NotImplementedError

    def body(self, seed: int, round_: int, configs, out_dir: str):
        raise NotImplementedError

    def check(self, seed: int, round_: int, configs, outputs, derive_scalars: bool) -> RoundCheck:
        raise NotImplementedError

    def finish(self) -> RoundCheck | None:
        """Checks pooled over all rounds of a pass; None when there are none."""
        return None

    def digest(self, outputs) -> str:
        return record_digest(outputs)


# ---------------------------------------------------------------------------
# tradeoff-n50: the volume-versus-traffic study at criterion 12's config, N=50


class Tradeoff(Workload):
    """Criterion 12's config on 50 nodes instead of 100.

    At N=100 one seed costs 7-21 s, and the wrap-up LP's share of it moves
    from 2 s to 16 s with the topology, so a run holds three seeds and its
    throughput moves by half between workload seeds. At N=50 a seed costs
    about 4 s with a spread of 12%.
    """

    name = "tradeoff-n50"
    why = "volume-versus-traffic study at criterion 12's config on 50 nodes; grid regions and the wrap-up LP do most of the work"
    round_s = 3.8
    trace_rounds = 4
    units_per_round = 1  # one seed
    n_nodes, n_p, m, grid, node_sample = 50, 3, 10, 12, 12
    max_iterations = 512
    # a last-bit change in Z can flip a cell whose verdict sits on a rounding
    # boundary; allow two such flips per averaged row, nothing more
    cell_flips = 2

    def __init__(self):
        self.reference = None  # loaded by the first check, outside set-up

    def build(self, seed, round_, out_dir):
        return [ExperimentConfig({
            "seed": config_seed(seed, round_),
            "output_dir": out_dir,
            "topology": {"kind": "rgg", "n_nodes": self.n_nodes},
            "model": {"n_p": self.n_p},
            "sps": {"m": self.m, "q": 1},
            "region": {"grid_per_dim": self.grid},
            "tradeoff": {"n_seeds": 1, "node_sample": self.node_sample,
                         "max_iterations": self.max_iterations},
        })]

    def body(self, seed, round_, configs, out_dir):
        record = experiments.run_tradeoff(configs[0])
        write_record(record, out_dir, self.name)
        return [record]

    def check(self, seed, round_, configs, outputs, derive_scalars):
        (record,) = outputs
        out = RoundCheck(units=self.units_per_round)
        s = record.summary
        if not abs(s["mf"]["final_avg_volume"] - s["full_avg_volume"]) < 1e-12:
            out.fail(1, "MF final volume differs from the full-data volume")
        _, d_agg = payload_sizes(self.n_p, self.m)
        for protocol, t, scal, _ in record.rows:
            if protocol.startswith("consensus") and scal != t * d_agg:
                out.fail(1, f"{protocol} round {t}: {scal} scalars, expected {t * d_agg}")
        if self.reference is None:
            self.reference = json.loads((REFERENCE_DIR / f"{self.name}.json").read_text())
        if seed == self.reference["workload_seed"] and round_ < len(self.reference["rounds"]):
            for why in self.compare_reference(record.rows, self.reference["rounds"][round_]):
                out.fail(1, why)
        final = {p: scal for p, _, scal, _ in record.rows}  # last row per protocol
        out.scalars = (round(final["mf"] * self.n_nodes) + round(final["tas"] * self.n_nodes)
                       + 2 * self.max_iterations * self.n_nodes * d_agg)
        return out

    def compare_reference(self, rows, ref_rows):
        """Traffic must equal the stored rows; volumes may move by cell flips."""
        if [tuple(r[:2]) for r in rows] != [tuple(r[:2]) for r in ref_rows]:
            return ["rows differ from the reference in protocol or round"]
        cell = 2.0 ** self.n_p / self.grid ** self.n_p  # box is p_true +/- 1
        problems = []
        for (protocol, rnd, scal, vol), (_, _, ref_scal, ref_vol) in zip(rows, ref_rows):
            averaged = 1 if protocol == "full" else self.node_sample
            if scal != ref_scal:
                problems.append(f"{protocol} round {rnd}: traffic {scal} != reference {ref_scal}")
            if abs(vol - ref_vol) > self.cell_flips * cell / averaged + 1e-12:
                problems.append(f"{protocol} round {rnd}: volume {vol} vs reference {ref_vol}")
        return problems


# ---------------------------------------------------------------------------
# coverage-n20: the eight coverage cases of criteria 1-3


class Coverage(Workload):
    name = "coverage-n20"
    why = "eight coverage cases of criteria 1-3; thousands of tiny trials, no LP and no grid"
    round_s = 2.25
    trace_rounds = 4
    trials = 250  # per case per round
    n_nodes, n_p, m, q = 20, 2, 10, 1
    cases = (
        ("full", {"protocol": "full"}, "gaussian"),
        ("mf-1", {"protocol": "mf", "rounds": 1}, "gaussian"),
        ("tas-1", {"protocol": "tas", "rounds": 1}, "gaussian"),
        ("consensus-4", {"protocol": "consensus", "iterations": 4, "scheme": "metropolis"}, "gaussian"),
        ("local", {"protocol": "local"}, "gaussian"),
        ("full-uniform", {"protocol": "full"}, "uniform"),
        ("full-laplace", {"protocol": "full"}, "laplace"),
        ("full-two-point", {"protocol": "full"}, "two-point"),
    )

    units_per_round = trials * len(cases)  # one trial

    def __init__(self):
        self.covers = {label: [0, 0] for label, _, _ in self.cases}

    def expected_traffic(self, label):
        """(rounds_done, scalars sent by the designated node) per trial."""
        d_rec, d_agg = payload_sizes(self.n_p, self.m)
        return {"mf-1": (1, d_rec), "tas-1": (1, 2 * d_agg),
                "consensus-4": (4, 4 * d_agg)}.get(label, (0, 0))

    def build(self, seed, round_, out_dir):
        return [ExperimentConfig({
            "seed": config_seed(seed, round_, i),
            "output_dir": out_dir,
            "trials": self.trials,
            "topology": {"kind": "rgg", "n_nodes": self.n_nodes},
            "model": {"n_p": self.n_p, "noise": {"kind": noise, "scale": 0.1}},
            "sps": {"m": self.m, "q": self.q},
            "diffusion": diffusion,
        }) for i, (_, diffusion, noise) in enumerate(self.cases)]

    def body(self, seed, round_, configs, out_dir):
        records = []
        for (label, _, _), cfg in zip(self.cases, configs):
            record = experiments.run_coverage(cfg)
            write_record(record, out_dir, f"{self.name}-{label}")
            records.append(record)
        return records

    def check(self, seed, round_, configs, outputs, derive_scalars):
        out = RoundCheck(units=self.units_per_round, scalars=0)
        for (label, _, _), record in zip(self.cases, outputs):
            rounds_done, scalars = self.expected_traffic(label)
            if len(record.rows) != self.trials:
                out.fail(self.trials, f"{label}: {len(record.rows)} rows for {self.trials} trials")
                continue
            for trial, _, rnd, sent, _, covers, *_ in record.rows:
                if (rnd, sent) != (rounds_done, scalars) or covers not in (0, 1):
                    out.fail(1, f"{label} trial {trial}: rounds {rnd}, scalars {sent}")
                self.covers[label][0] += covers
            self.covers[label][1] += len(record.rows)
            # every node of these protocols sends what the designated node sends
            out.scalars += self.n_nodes * sum(row[3] for row in record.rows)
        return out

    def finish(self):
        out = RoundCheck(units=sum(n for _, n in self.covers.values()))
        target = 1.0 - self.q / self.m
        for label, (hits, n) in self.covers.items():
            if n == 0:  # every round of the case failed already
                continue
            lo, hi = wilson_interval(hits, n, z=WILSON_Z)
            if not lo <= target <= hi:
                out.fail(n, f"{label}: coverage {hits}/{n}, Wilson interval [{lo:.4f}, {hi:.4f}]")
        self.covers = {label: [0, 0] for label in self.covers}
        return out


# ---------------------------------------------------------------------------
# schedules-n500: scheduled TAS/MF on spanning trees and clustered deployments


class Schedules(Workload):
    name = "schedules-n500"
    why = "TAS-vs-MF success rate on BFS trees up to N=500 plus clustered deployments; every traffic total has a closed form"
    round_s = 0.9
    trace_rounds = 10
    realizations = 2  # per tree size per round
    deployments = 8  # clustered deployments per round
    tree_sizes, n_p_sweep, m = (10, 500), (2, 3, 4, 5), 10
    cluster_nodes, n_clusters = 140, 20
    cluster_totals = (8000, 8760)  # TAS and MF, criterion 6
    # one tree realization or one clustered deployment
    units_per_round = realizations * len(tree_sizes) + deployments

    def build(self, seed, round_, out_dir):
        return [ExperimentConfig({
            "seed": config_seed(seed, round_),
            "output_dir": out_dir,
            "sps": {"m": self.m, "q": 1},
            "success_rate": {"n_nodes": list(self.tree_sizes), "n_p": list(self.n_p_sweep),
                             "realizations": self.realizations},
        })]

    def body(self, seed, round_, configs, out_dir):
        record = experiments.run_success_rate(configs[0])
        write_record(record, out_dir, self.name)
        cs = configs[0].seed
        fc = FieldConfig(n_p=2, p_true=np.zeros(2), noise=NoiseSpec(scale=0.1))
        totals = []
        for r in range(self.deployments):
            topo = topology.clustered(self.cluster_nodes, self.n_clusters, rng.substream(cs, "clusters", r))
            positions = rng.substream(cs, "pos", r).uniform(0, 1, (self.cluster_nodes, 2))
            samples = model.generate_measurements(positions, fc, rng.substream(cs, "noise", r))
            signs = sps.draw_sign_matrix(self.m, self.cluster_nodes, rng.derive_seed(cs, "signs", r))
            totals.append((diffusion.run_tas_clustered(topo, samples, signs).traffic.total_scalars,
                           diffusion.run_mf_clustered(topo, samples).traffic.total_scalars))
        return record, totals

    def digest(self, outputs):
        record, totals = outputs
        return record_digest([record]) + json.dumps(totals)

    def check(self, seed, round_, configs, outputs, derive_scalars):
        record, totals = outputs
        trees = self.realizations * len(self.tree_sizes)
        out = RoundCheck(units=self.units_per_round)
        failures = record.summary["crosscheck_failures"]
        if failures:
            out.fail(min(failures, trees), f"{failures} simulated tree totals differ from the census formula")
        if len(record.rows) != len(self.tree_sizes) * len(self.n_p_sweep):
            out.fail(trees, "success-rate table has the wrong shape")
        for r, pair in enumerate(totals):
            if tuple(pair) != self.cluster_totals:
                out.fail(1, f"clustered deployment {r}: totals {pair}, expected {self.cluster_totals}")
        if derive_scalars:
            out.scalars = sum(sum(pair) for pair in totals) + self.tree_traffic(configs[0].seed)
        return out

    def tree_traffic(self, cs: int) -> int:
        """Census-formula traffic of the round's trees, rebuilt from their seeds.

        The success-rate record holds no totals, and ``crosscheck_failures ==
        0`` says the simulators moved exactly these.
        """
        total = 0
        for n_nodes in self.tree_sizes:
            for r in range(self.realizations):
                graph = topology.random_geometric(n_nodes, rng.substream(cs, "topology", n_nodes, r))
                tree = topology.spanning_tree(graph)
                lam, bar = tree.level_counts, tree.childless_counts
                total += traffic_tas_tree(lam, bar, self.n_p_sweep[0], self.m)
                total += traffic_mf_tree(lam, bar, self.n_p_sweep[0], self.m)
        return total


WORKLOADS = {w.name: w for w in (Tradeoff, Coverage, Schedules)}
