"""The seven protocol runners as the package first wrote them, one loop each.

The package now runs every flooding protocol through one schedule-driven
engine and every TAS variant through another. These oracles keep the old
shape: ``run_pf``, ``run_mf`` and ``run_tas`` each own a round loop, and the
tree and clustered runners each script their stages and receivers by hand.
Tests require the engines to log the same events in the same order and to
reproduce knowledge, arrival rounds, every tag table and every weight and
aggregate bit for bit. The oracles also keep the eager snapshots the package
first took: a copy of the knowledge after each requested round, and for TAS
the wrap-up of every requested node as each requested round sends. The TAS
oracles wrap up every table before they return. The package instead answers
for any node and round after the run, from arrival rounds and tag-table
prefixes, and wraps up nothing until it is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from spsnet.diffusion import (
    TagTable,
    TrafficLog,
    _check_samples,
    _complete_message,
    _local_tables,
    payload_sizes,
    tas_aggregate,
    tas_distill,
    tas_wrapup,
)
from spsnet.sps import AggregateSums, SignMatrix
from spsnet.topology import ClusteredTopology, Graph, TreeTopology, diameter


@dataclass(eq=False)
class PfResult:
    """A PF run as the package first reported it."""

    known: np.ndarray
    traffic: TrafficLog
    rounds_run: int
    full_knowledge_round: int | None


@dataclass(eq=False)
class MfResult:
    """A flooding run with its knowledge snapshots already taken."""

    known: np.ndarray
    transmitted: np.ndarray
    arrival_round: np.ndarray
    traffic: TrafficLog
    rounds_run: int
    completion_round: int | None
    snapshots: dict[int, np.ndarray] = field(default_factory=dict)


@dataclass(eq=False)
class TasResult:
    """A TAS run with its final wrap-up already done."""

    tables: list[TagTable]
    traffic: TrafficLog
    weights: np.ndarray
    aggregates: list[AggregateSums]
    complete: np.ndarray
    rounds_run: int
    snapshots: dict[int, tuple[np.ndarray, list[AggregateSums]]] = field(default_factory=dict)


def _wrapup_all(tables, nodes=None):
    """Weights, aggregates and completion flags of the given nodes' tables
    (every node when None; other rows stay zero, None and False)."""
    n = len(tables)
    nodes = range(n) if nodes is None else nodes
    weights = np.zeros((n, n))
    aggs: list[AggregateSums | None] = [None] * n
    complete = np.zeros(n, dtype=bool)
    for k in nodes:
        w, agg = tas_wrapup(tables[k])
        weights[k] = w.c
        aggs[k] = agg
        complete[k] = w.complete
    return weights, aggs, complete


def _bool_matmul(adj: np.ndarray, rows: np.ndarray) -> np.ndarray:
    return (adj.astype(np.uint8) @ rows.astype(np.uint8)) > 0


def run_pf(graph: Graph, samples, max_rounds: int | None = None) -> PfResult:
    """Plain flooding: every node rebroadcasts everything it knows each round.

    Stops after the first round that adds no knowledge anywhere (or at
    ``max_rounds``); the round at which knowledge first became complete
    everywhere is reported separately. Traffic dominates modified flooding
    round by round because the transmitted set always contains the rows MF
    would send.
    """
    n = graph.n_nodes
    _check_samples(samples, n)
    d_rec, _ = payload_sizes(samples.n_p, 2)
    known = np.eye(n, dtype=bool)
    traffic = TrafficLog("pf", n)
    full_round = 0 if known.all() else None
    cap = max_rounds if max_rounds is not None else n + 2
    rounds_run = 0
    for rnd in range(1, cap + 1):
        rounds_run = rnd
        for k in range(n):
            cnt = int(known[k].sum())
            traffic.record(rnd, k, cnt * d_rec, tag_bits=cnt * n)
        new_known = known | _bool_matmul(graph.adjacency, known)
        grew = bool((new_known & ~known).any())
        known = new_known
        if full_round is None and known.all():
            full_round = rnd
        if not grew:
            break
    return PfResult(known=known, traffic=traffic, rounds_run=rounds_run, full_knowledge_round=full_round)


def _mf_snapshot_fill(snapshots: dict, wanted, known: np.ndarray, upto: int):
    for r in wanted:
        if r not in snapshots and r >= upto:
            snapshots[r] = known.copy()


def run_mf(
    graph: Graph,
    samples,
    max_rounds: int | None = None,
    snapshot_rounds=(),
) -> MfResult:
    """Modified flooding: forward each record at most once per node.

    Round 1 is every node broadcasting its own record; later rounds forward
    whatever arrived and was never sent. The run quiesces (no node holds an
    untransmitted row) within diameter + 2 rounds; knowledge is complete
    everywhere within diameter + 1. ``snapshot_rounds`` asks for copies of the
    knowledge matrix after given rounds (0 = initial state).
    """
    n = graph.n_nodes
    _check_samples(samples, n)
    d_rec, _ = payload_sizes(samples.n_p, 2)
    known = np.eye(n, dtype=bool)
    transmitted = np.zeros((n, n), dtype=bool)
    arrival = np.where(np.eye(n, dtype=bool), 0, -1)
    traffic = TrafficLog("mf", n)
    snapshots: dict[int, np.ndarray] = {}
    wanted = set(int(r) for r in snapshot_rounds)
    if 0 in wanted:
        snapshots[0] = known.copy()
    completion_round = 0 if known.all() else None
    cap = max_rounds if max_rounds is not None else n + 2
    rounds_run = 0
    for rnd in range(1, cap + 1):
        pending = known & ~transmitted
        if not pending.any():
            break
        rounds_run = rnd
        for k in range(n):
            cnt = int(pending[k].sum())
            if cnt:
                traffic.record(rnd, k, cnt * d_rec, tag_bits=cnt * n)
        transmitted |= pending
        new_known = known | _bool_matmul(graph.adjacency, pending)
        arrival[new_known & ~known] = rnd
        known = new_known
        if completion_round is None and known.all():
            completion_round = rnd
        if rnd in wanted:
            snapshots[rnd] = known.copy()
    _mf_snapshot_fill(snapshots, wanted, known, rounds_run + 1)
    return MfResult(
        known=known,
        transmitted=transmitted,
        arrival_round=arrival,
        traffic=traffic,
        rounds_run=rounds_run,
        completion_round=completion_round,
        snapshots=snapshots,
    )


def run_mf_tree(tree: TreeTopology, samples) -> MfResult:
    """Modified flooding on a rooted tree with a level schedule.

    Forward sweep: levels L down to 0 each broadcast their untransmitted rows
    (a node's subtree by the time its level fires). Backward sweep: levels 1
    to L-1, nodes with children only, forward what the root's broadcast gave
    them. Every node ends up knowing all records, and the totals match the
    per-level census formula exactly.
    """
    n = tree.n_nodes
    _check_samples(samples, n)
    d_rec, _ = payload_sizes(samples.n_p, 2)
    known = np.eye(n, dtype=bool)
    transmitted = np.zeros((n, n), dtype=bool)
    arrival = np.where(np.eye(n, dtype=bool), 0, -1)
    traffic = TrafficLog("mf-tree", n)
    depth = tree.depth
    rnd = 0

    def neighbors(v: int):
        out = list(tree.children(v))
        if tree.parent[v] >= 0:
            out.append(int(tree.parent[v]))
        return out

    def stage(senders):
        nonlocal rnd
        rnd += 1
        sends = []
        for s in sorted(int(v) for v in senders):
            mask = known[s] & ~transmitted[s]
            if not mask.any():
                continue
            sends.append((s, mask.copy()))
            traffic.record(rnd, s, int(mask.sum()) * d_rec, tag_bits=int(mask.sum()) * n)
        for s, mask in sends:
            transmitted[s] |= mask
            for nb in neighbors(s):
                newly = mask & ~known[nb]
                known[nb] |= mask
                arrival[nb, newly] = rnd

    for level in range(depth, -1, -1):
        stage(tree.nodes_at_level(level))
    for level in range(1, depth):
        stage(v for v in tree.nodes_at_level(level) if tree.children(v).size > 0)

    return MfResult(
        known=known,
        transmitted=transmitted,
        arrival_round=arrival,
        traffic=traffic,
        rounds_run=rnd,
        completion_round=rnd if known.all() else None,
        snapshots={},
    )


def run_mf_clustered(topo: ClusteredTopology, samples) -> MfResult:
    """Modified flooding on a clustered topology, three scripted stages.

    Members send their record to their head; heads broadcast everything they
    hold (own cluster) to the head mesh and their members; heads then forward
    the other clusters' records to their members.
    """
    n = topo.n_nodes
    _check_samples(samples, n)
    d_rec, _ = payload_sizes(samples.n_p, 2)
    known = np.eye(n, dtype=bool)
    transmitted = np.zeros((n, n), dtype=bool)
    arrival = np.where(np.eye(n, dtype=bool), 0, -1)
    traffic = TrafficLog("mf-clustered", n)
    head_set = set(int(h) for h in topo.heads)

    def receivers(v: int):
        h = int(topo.heads[topo.assignment[v]])
        if v == h:
            out = [int(x) for x in topo.members(topo.assignment[v]) if int(x) != v]
            out += [int(x) for x in head_set if x != v]
            return sorted(set(out))
        return [h]

    def stage(rnd: int, senders):
        sends = []
        for s in sorted(senders):
            mask = known[s] & ~transmitted[s]
            if not mask.any():
                continue
            sends.append((s, mask.copy()))
            traffic.record(rnd, s, int(mask.sum()) * d_rec, tag_bits=int(mask.sum()) * n)
        for s, mask in sends:
            transmitted[s] |= mask
            for nb in receivers(s):
                newly = mask & ~known[nb]
                known[nb] |= mask
                arrival[nb, newly] = rnd

    stage(1, [v for v in range(n) if v not in head_set])
    stage(2, head_set)
    stage(3, head_set)
    return MfResult(
        known=known,
        transmitted=transmitted,
        arrival_round=arrival,
        traffic=traffic,
        rounds_run=3,
        completion_round=3 if known.all() else None,
        snapshots={},
    )


def run_tas(
    graph: Graph,
    samples,
    signs: SignMatrix,
    rounds: int | None = None,
    snapshot_rounds=(),
    wrapup_nodes=None,
) -> TasResult:
    """Tagged aggregate sums on an arbitrary connected graph.

    Round 0 is the initialization broadcast of each node's local row. Each of
    the following ``rounds`` cycles (default: graph diameter) runs reception,
    distillation, aggregation, transmission. A node transmits every round as
    long as its aggregation finds a never-merged row, even when the message
    repeats content; with no never-merged row it stays silent. The final
    wrap-up may be partial on general graphs, so per-node completion flags
    are reported rather than assumed.
    """
    n = graph.n_nodes
    tables = _local_tables(samples, signs, n)
    if rounds is None:
        rounds = diameter(graph)
    _, d_agg = payload_sizes(samples.n_p, signs.m)
    traffic = TrafficLog("tas", n)
    wanted = set(int(r) for r in snapshot_rounds)
    snapshots: dict[int, tuple[np.ndarray, list[AggregateSums]]] = {}

    outbox: dict[int, tuple[int, AggregateSums]] = {}
    for k in range(n):
        outbox[k] = (tables[k].rows[0].tag, tables[k].rows[0].payload.copy())
        traffic.record(0, k, d_agg, tag_bits=n)
    if 0 in wanted:
        w, a, _ = _wrapup_all(tables, wrapup_nodes)
        snapshots[0] = (w, a)

    for rnd in range(1, rounds + 1):
        for k in range(n):
            for sender in sorted(int(s) for s in graph.neighbors(k)):
                if sender in outbox:
                    tag, payload = outbox[sender]
                    tas_distill(tables[k], tag, payload)
        new_outbox: dict[int, tuple[int, AggregateSums]] = {}
        for k in range(n):
            msg = tas_aggregate(tables[k])
            if msg is not None:
                new_outbox[k] = msg
                traffic.record(rnd, k, d_agg, tag_bits=n)
        outbox = new_outbox
        if rnd in wanted:
            w, a, _ = _wrapup_all(tables, wrapup_nodes)
            snapshots[rnd] = (w, a)

    weights, aggs, complete = _wrapup_all(tables, wrapup_nodes)
    return TasResult(
        tables=tables,
        traffic=traffic,
        weights=weights,
        aggregates=aggs,
        complete=complete,
        rounds_run=rounds,
        snapshots=snapshots,
    )


def run_tas_tree(tree: TreeTopology, samples, signs: SignMatrix) -> TasResult:
    """TAS on a rooted tree: one forward sweep and one backward sweep.

    Levels fire from the deepest up to the root, each node merging its
    subtree into a single message; then levels 1..L-1 (nodes with children
    only) redistribute the complete aggregate downwards. Every node finishes
    with weights all one, and the scalar totals hit the census formula
    exactly.
    """
    n = tree.n_nodes
    tables = _local_tables(samples, signs, n)
    _, d_agg = payload_sizes(samples.n_p, signs.m)
    traffic = TrafficLog("tas-tree", n)
    depth = tree.depth
    rnd = 0

    def neighbors(v: int):
        out = [int(c) for c in tree.children(v)]
        if tree.parent[v] >= 0:
            out.append(int(tree.parent[v]))
        return sorted(out)

    def stage(senders):
        nonlocal rnd
        rnd += 1
        msgs = []
        for s in sorted(int(v) for v in senders):
            msg = tas_aggregate(tables[s])
            if msg is None:
                continue
            msgs.append((s, msg))
            traffic.record(rnd, s, d_agg, tag_bits=n)
        for s, (tag, payload) in msgs:
            for nb in neighbors(s):
                tas_distill(tables[nb], tag, payload)

    for level in range(depth, -1, -1):
        stage(tree.nodes_at_level(level))
    for level in range(1, depth):
        stage(v for v in tree.nodes_at_level(level) if tree.children(v).size > 0)

    weights, aggs, complete = _wrapup_all(tables)
    return TasResult(
        tables=tables,
        traffic=traffic,
        weights=weights,
        aggregates=aggs,
        complete=complete,
        rounds_run=rnd,
        snapshots={},
    )


def run_tas_clustered(topo: ClusteredTopology, samples, signs: SignMatrix) -> TasResult:
    """TAS on a clustered topology, three scripted stages.

    Members send their local row to their head; heads broadcast their cluster
    aggregate across the head mesh (members overhear); heads then broadcast
    the complete aggregate to their cluster. The final stage transmits
    unconditionally, so the totals are (N + n_c) aggregate payloads even for
    a single cluster, where the last broadcast repeats the mesh one.
    """
    n = topo.n_nodes
    tables = _local_tables(samples, signs, n)
    _, d_agg = payload_sizes(samples.n_p, signs.m)
    traffic = TrafficLog("tas-clustered", n)
    head_set = sorted(int(h) for h in topo.heads)

    def cluster_receivers(h: int):
        own = [int(v) for v in topo.members(topo.assignment[h]) if int(v) != h]
        mesh = [x for x in head_set if x != h]
        return sorted(set(own + mesh))

    # stage 1: members to their heads
    msgs = []
    for v in range(n):
        if v in head_set:
            continue
        row = tables[v].rows[0]
        msgs.append((v, int(topo.heads[topo.assignment[v]]), (row.tag, row.payload.copy())))
        traffic.record(1, v, d_agg, tag_bits=n)
    for _, h, (tag, payload) in msgs:
        tas_distill(tables[h], tag, payload)

    # stage 2: heads broadcast their cluster aggregate
    msgs = []
    for h in head_set:
        msg = tas_aggregate(tables[h])
        msgs.append((h, msg))
        traffic.record(2, h, d_agg, tag_bits=n)
    for h, (tag, payload) in msgs:
        for nb in cluster_receivers(h):
            tas_distill(tables[nb], tag, payload)

    # stage 3: heads broadcast the complete aggregate, repeated or not
    msgs = []
    for h in head_set:
        msg = tas_aggregate(tables[h])
        if msg is None:
            msg = _complete_message(tables[h])
        msgs.append((h, msg))
        traffic.record(3, h, d_agg, tag_bits=n)
    for h, (tag, payload) in msgs:
        for nb in cluster_receivers(h):
            tas_distill(tables[nb], tag, payload)

    weights, aggs, complete = _wrapup_all(tables)
    return TasResult(
        tables=tables,
        traffic=traffic,
        weights=weights,
        aggregates=aggs,
        complete=complete,
        rounds_run=3,
        snapshots={},
    )
