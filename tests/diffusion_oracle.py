"""The seven protocol runners as the package first wrote them, one loop each.

The package now runs every flooding protocol through one schedule-driven
engine and every TAS variant through another. These oracles keep the old
shape: ``run_pf``, ``run_mf`` and ``run_tas`` each own a round loop, and the
tree and clustered runners each script their stages and receivers by hand.
Tests require the engines to log the same events in the same order and to
reproduce knowledge, arrival rounds, every tag table's tags and every weight
bit for bit (TAS aggregates: see below). The oracles also keep the eager snapshots the package
first took: a copy of the knowledge after each requested round, and for TAS
the wrap-up of every requested node as each requested round sends. The TAS
oracles wrap up every table before they return. The package instead answers
for any node and round after the run, from arrival rounds and tag-table
prefixes, and wraps up nothing until it is read. Flooding here keeps the
dense (N, N) knowledge, transmitted and arrival-round arrays the package
first kept; the package keeps one bitmask per node and round instead.

TAS here carries payloads, eagerly: ``PayloadTable`` rows hold a tag and a
payload, and ``tas_distill``, ``tas_aggregate``, ``_complete_message`` and
``tas_wrapup`` below are the package's bodies from before it moved tags only.
They add and subtract payloads as the run goes, and every TAS oracle lists the
messages it sent. The package runs TAS on tags alone and builds a node's
aggregate from its weights, so tests require the same tags, merge flags,
traffic and weights bit for bit, and aggregates close to these. The payloads
start from ``local_aggregate_arrays``, every node's local sums stacked, which
the package no longer needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from spsnet.diffusion import TrafficLog, _unpack, payload_sizes
from spsnet.lp import LpProblem, solve_lp
from spsnet.sps import AggregateSums, SignMatrix
from spsnet.topology import ClusteredTopology, Graph, TreeTopology, diameter
from tas_oracle import WrapUpWeights, minus, plus, scaled


def local_aggregate_arrays(samples, signs: SignMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Every node's ``local_aggregate`` stacked: vec (N, m, n_p), mat (N, m, n_p, n_p).

    One broadcast product per array, made of the elementwise multiplies
    ``local_aggregate`` makes, so slice k has the bits of node k's sums.
    """
    if signs.n_nodes != len(samples):
        raise ValueError("sign matrix width must match the number of samples")
    phi, y = samples.phi, samples.y
    col = signs.entries.T.astype(float)  # (N, m): node k's sign column in row k
    vec = col[:, :, None] * (phi * y[:, None])[:, None, :]
    mat = col[:, :, None, None] * (phi[:, :, None] * phi[:, None, :])[:, None, :, :]
    return vec, mat


@dataclass(eq=False)
class PfResult:
    """A PF run as the package first reported it, with ``history[r]`` a copy
    of the knowledge after round r."""

    known: np.ndarray
    traffic: TrafficLog
    rounds_run: int
    full_knowledge_round: int | None
    history: list[np.ndarray] = field(default_factory=list)


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
    """A TAS run with its final wrap-up already done, and every message it
    sent as (tag, payload), in sending order."""

    tables: list[PayloadTable]
    traffic: TrafficLog
    weights: np.ndarray
    aggregates: list[AggregateSums]
    complete: np.ndarray
    rounds_run: int
    messages: list[tuple[int, AggregateSums]]
    snapshots: dict[int, tuple[np.ndarray, list[AggregateSums]]] = field(default_factory=dict)


@dataclass(eq=False)
class PayloadRow:
    tag: int
    payload: AggregateSums
    merged: bool = False


class PayloadTable:
    """A tag table as the package first kept it: ``int`` tags, each row with
    its payload; row 0 is the owner's local row."""

    def __init__(self, owner: int, n_nodes: int, local_payload: AggregateSums):
        self.owner = owner
        self.n_nodes = n_nodes
        self.rows = [PayloadRow(1 << owner, local_payload)]
        self._wrapup = (0, None)  # last (row count, wrap-up): rows are only appended

    def append(self, tag: int, payload: AggregateSums) -> PayloadRow:
        row = PayloadRow(tag, payload)
        self.rows.append(row)
        return row


def _cover(tags) -> tuple[int, bool]:
    """(mask of the nodes the tags name, whether those tags are pairwise
    disjoint): disjoint exactly when the tags' bit counts add up to the mask's.
    The package's own copy, as it first read both off a table's rows."""
    covered = bits = 0
    for tag in tags:
        covered |= tag
        bits += tag.bit_count()
    return covered, bits == covered.bit_count()


def _local_tables(samples, signs: SignMatrix, n: int) -> list[PayloadTable]:
    vec, mat = local_aggregate_arrays(samples, signs)
    return [PayloadTable(k, n, AggregateSums(vec[k], mat[k])) for k in range(n)]


def tas_distill(table: PayloadTable, tag: int, payload: AggregateSums):
    """Subtract the stored subset rows in scan order from the payload, and
    append the residual when its tag is not empty."""
    remaining = tag
    subtracted = []
    for row in table.rows:
        t = row.tag
        if t & remaining == t:
            remaining ^= t
            subtracted.append(row.payload)
    if not remaining:
        return None
    residual = payload
    for known in subtracted:
        residual = minus(residual, known)
    return table.append(remaining, residual)


def tas_aggregate(table: PayloadTable):
    """The first never-merged row plus every disjoint row in scan order."""
    start = next((r for r in table.rows if not r.merged), None)
    if start is None:
        return None
    tag = start.tag
    data = start.payload
    start.merged = True
    for row in table.rows:
        if not tag & row.tag:
            data = plus(data, row.payload)
            tag |= row.tag
            row.merged = True
    return tag, data


def _complete_message(table: PayloadTable):
    """Row 0 plus every further row; the tags must be disjoint."""
    covered, disjoint = _cover(r.tag for r in table.rows)
    if not disjoint:
        raise ValueError("complete message requires pairwise disjoint tags")
    data = None
    for row in table.rows:
        data = row.payload if data is None else plus(data, row.payload)
        row.merged = True
    return covered, data


def tas_wrapup(table: PayloadTable, n_rows: int | None = None) -> tuple[WrapUpWeights, AggregateSums]:
    """Weights and the b-weighted sum of the payloads of the first ``n_rows``
    rows: b is all ones when their tags are disjoint, else the wrap-up LP's.
    Rows are only appended, so the table's last wrap-up is reused while the
    prefix has as many rows."""
    rows = table.rows[:n_rows]
    if table._wrapup[0] == len(rows):
        return table._wrapup[1]
    covered, disjoint = _cover(r.tag for r in rows)
    if disjoint:
        coeffs = [1.0] * len(rows)
        c = _unpack([covered], table.n_nodes)[0].astype(float)
    else:
        tagmat = _unpack([row.tag for row in rows], table.n_nodes).astype(float)
        b = solve_lp(LpProblem(tagmat))[0]
        coeffs = b.tolist()
        c = b @ tagmat
        c[np.abs(c) <= 1e-9] = 0.0
        c[np.abs(c - 1.0) <= 1e-9] = 1.0
    agg = None
    for coeff, row in zip(coeffs, rows):
        if coeff == 0:
            continue
        term = row.payload if coeff == 1 else scaled(row.payload, coeff)
        agg = term if agg is None else plus(agg, term)
    if agg is None:
        first = rows[0].payload
        agg = AggregateSums.zeros(first.m, first.n_p)
    table._wrapup = (len(rows), (WrapUpWeights(c), agg))
    return table._wrapup[1]


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
        complete[k] = (w.c == 1.0).all()
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
    d_rec, _ = payload_sizes(samples.n_p, 2)
    known = np.eye(n, dtype=bool)
    traffic = TrafficLog("pf", n)
    full_round = 0 if known.all() else None
    history = [known]
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
        history.append(known)
        if full_round is None and known.all():
            full_round = rnd
        if not grew:
            break
    return PfResult(known=known, traffic=traffic, rounds_run=rounds_run, full_knowledge_round=full_round,
                    history=history)


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
    d_rec, _ = payload_sizes(samples.n_p, 2)
    known = np.eye(n, dtype=bool)
    transmitted = np.zeros((n, n), dtype=bool)
    arrival = np.where(np.eye(n, dtype=bool), 0, -1)
    traffic = TrafficLog("mf-tree", n)
    depth = tree.depth
    rnd = 0

    def neighbors(v: int):
        out = list(np.flatnonzero(tree.parent == v))
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
        stage(v for v in tree.nodes_at_level(level) if (tree.parent == v).any())

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
        outbox[k] = (tables[k].rows[0].tag, tables[k].rows[0].payload)
        traffic.record(0, k, d_agg, tag_bits=n)
    messages = list(outbox.values())
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
                messages.append(msg)
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
        messages=messages,
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
    messages = []

    def neighbors(v: int):
        out = [int(c) for c in np.flatnonzero(tree.parent == v)]
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
            messages.append(msg)
            traffic.record(rnd, s, d_agg, tag_bits=n)
        for s, (tag, payload) in msgs:
            for nb in neighbors(s):
                tas_distill(tables[nb], tag, payload)

    for level in range(depth, -1, -1):
        stage(tree.nodes_at_level(level))
    for level in range(1, depth):
        stage(v for v in tree.nodes_at_level(level) if (tree.parent == v).any())

    weights, aggs, complete = _wrapup_all(tables)
    return TasResult(
        tables=tables,
        traffic=traffic,
        weights=weights,
        aggregates=aggs,
        complete=complete,
        rounds_run=rnd,
        messages=messages,
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
        msgs.append((v, int(topo.heads[topo.assignment[v]]), (row.tag, row.payload)))
        traffic.record(1, v, d_agg, tag_bits=n)
    messages = [msg for _, _, msg in msgs]
    for _, h, (tag, payload) in msgs:
        tas_distill(tables[h], tag, payload)

    # stage 2: heads broadcast their cluster aggregate
    msgs = []
    for h in head_set:
        msg = tas_aggregate(tables[h])
        msgs.append((h, msg))
        messages.append(msg)
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
        messages.append(msg)
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
        messages=messages,
        snapshots={},
    )
