"""Information diffusion protocols with exact communication accounting.

Four ways for every node to learn the network-wide aggregate sums, all
operating in synchronous broadcast rounds:

PF (plain flooding)      every node rebroadcasts every record it knows, every
                         round. Simple, heavy.
MF (modified flooding)   each record is transmitted at most once per node;
                         nodes forward only rows they have never sent.
TAS (tagged aggregate    nodes exchange partially aggregated sums labelled by
sums)                    a tag, the set of nodes whose data the payload
                         contains. Reception runs a distillation step that
                         subtracts already-known content, aggregation merges
                         disjoint rows into one outgoing message, and a final
                         wrap-up turns the stored rows into per-node weights
                         via a small linear program.
consensus                every node averages its neighbors' running
                         aggregates under a doubly stochastic mixing matrix;
                         initial states are scaled by N so the fixed point is
                         the full sum.

Traffic is counted in scalars: a raw record costs n_p + 1 of them, an
aggregate payload m * (n_p + n_p (n_p + 1) / 2). Tag bits are reported
informationally (one bit per node per tagged message) and never enter the
scalar totals. All runners are deterministic: nodes transmit in id order and
messages are delivered before the next round starts.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .lp import LpProblem, solve_lp
from .sps import AggregateSums, SignMatrix, WrapUpWeights, local_aggregate
from .topology import ClusteredTopology, DisconnectedGraphError, Graph, TreeTopology, diameter


def payload_sizes(n_p: int, m: int) -> tuple[int, int]:
    """(d_record, d_aggregate) scalar payload sizes.

    d_record = n_p + 1 covers (phi_i, y_i). d_aggregate counts the m
    vector/matrix pairs with each symmetric matrix stored once per distinct
    entry; the per-sum cost d_aggregate / m is independent of m.
    """
    if n_p < 1 or m < 2:
        raise ValueError("require n_p >= 1 and m >= 2")
    return n_p + 1, m * (n_p + n_p * (n_p + 1) // 2)


# ---------------------------------------------------------------------------
# traffic accounting


@dataclass(frozen=True)
class TrafficEvent:
    """One broadcast: round, sender, scalar cost, informational tag bits.

    ``origins`` lists the record ids carried (flooding protocols only); it is
    provenance for the no-retransmission invariant, not part of the cost.
    """

    round: int
    node: int
    scalars: int
    tag_bits: int = 0
    origins: tuple[int, ...] | None = None


class TrafficLog:
    """Append-only transmission log for one protocol run."""

    def __init__(self, protocol: str, n_nodes: int):
        self.protocol = protocol
        self.n_nodes = n_nodes
        self.events: list[TrafficEvent] = []
        self._per_node = np.zeros(n_nodes, dtype=np.int64)

    def record(self, round_: int, node: int, scalars: int, tag_bits: int = 0, origins=None):
        if scalars < 0 or tag_bits < 0:
            raise ValueError("traffic amounts must be non-negative")
        if origins is not None:
            origins = tuple(int(o) for o in origins)
        self.events.append(TrafficEvent(int(round_), int(node), int(scalars), int(tag_bits), origins))
        self._per_node[node] += scalars

    @property
    def total_scalars(self) -> int:
        return int(self._per_node.sum())

    @property
    def per_node_totals(self) -> np.ndarray:
        return self._per_node.copy()

    def total_through_round(self, round_: int) -> int:
        return sum(e.scalars for e in self.events if e.round <= round_)

    def per_node_through_round(self, round_: int) -> np.ndarray:
        out = np.zeros(self.n_nodes, dtype=np.int64)
        for e in self.events:
            if e.round <= round_:
                out[e.node] += e.scalars
        return out

    def round_totals(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for e in self.events:
            out[e.round] = out.get(e.round, 0) + e.scalars
        return out

    def to_csv(self, path) -> None:
        """CSV rows sorted by (round, node); cumulative_scalars is the
        sender's running total after the event."""
        running = np.zeros(self.n_nodes, dtype=np.int64)
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["protocol", "round", "node_id", "scalars_sent", "cumulative_scalars", "tag_bits"])
            for e in sorted(self.events, key=lambda e: (e.round, e.node)):
                running[e.node] += e.scalars
                w.writerow([self.protocol, e.round, e.node, e.scalars, int(running[e.node]), e.tag_bits])


# ---------------------------------------------------------------------------
# tag tables


@dataclass(eq=False)
class TagRow:
    """Stored row: tag (set of node ids the payload accounts for) + payload."""

    tag: frozenset
    payload: object
    merged: bool = False


class TagTable:
    """A node's insertion-ordered store of tagged rows.

    Row 0 is always the owner's local one-hot row. Tags never repeat within a
    table. The table records which rows have already been merged into an
    outgoing aggregate so later aggregation phases can start from fresh
    content.
    """

    def __init__(self, owner: int, n_nodes: int, local_payload):
        if not 0 <= owner < n_nodes:
            raise ValueError("owner must be a valid node id")
        self.owner = owner
        self.n_nodes = n_nodes
        self.rows: list[TagRow] = [TagRow(frozenset((owner,)), local_payload)]
        self._tags = {self.rows[0].tag}
        self._wrapup: tuple[bytes, np.ndarray | None] = (b"", None)  # last (tag matrix bytes, b)

    def has_tag(self, tag: frozenset) -> bool:
        return tag in self._tags

    def append(self, tag: frozenset, payload) -> TagRow:
        if not tag:
            raise ValueError("cannot store an empty tag")
        if not all(0 <= i < self.n_nodes for i in tag):
            raise ValueError("tag contains an unknown node id")
        if tag in self._tags:
            raise ValueError("duplicate tag")
        row = TagRow(frozenset(tag), payload)
        self.rows.append(row)
        self._tags.add(row.tag)
        return row

    def coverage(self) -> frozenset:
        out: set = set()
        for row in self.rows:
            out |= row.tag
        return frozenset(out)

    def tag_matrix(self) -> np.ndarray:
        """0/1 matrix, one row per stored row, one column per network node."""
        t = np.zeros((len(self.rows), self.n_nodes), dtype=np.uint8)
        for r, row in enumerate(self.rows):
            t[r, list(row.tag)] = 1
        return t


def tas_distill(table: TagTable, tag: frozenset, payload: AggregateSums) -> TagRow | None:
    """Reduce an incoming message against the stored rows and keep the rest.

    Scanning stored rows in insertion order, every row whose tag is still a
    subset of the remaining incoming tag is subtracted (tag and payload).
    What is left is new information; it is appended as a row. A message whose
    residual is empty, or whose residual tag duplicates a stored tag, carries
    nothing new and is discarded. The incoming payload is never mutated.
    """
    remaining = set(tag)
    residual = payload.copy()
    for row in table.rows:
        if row.tag <= remaining:
            remaining -= row.tag
            residual.isub(row.payload)
    if not remaining:
        return None
    ftag = frozenset(remaining)
    if table.has_tag(ftag):
        return None
    return table.append(ftag, residual)


def tas_aggregate(table: TagTable) -> tuple[frozenset, AggregateSums] | None:
    """Build one outgoing message from the table.

    The running pair starts from the first row never merged before (None when
    there is no such row, in which case the node stays silent). All rows are
    then scanned in insertion order and every row whose tag is disjoint from
    the running tag is summed in and marked merged. Rows overlapping the
    running tag are skipped; resolving partial overlaps is the wrap-up's job.
    """
    start = next((r for r in table.rows if not r.merged), None)
    if start is None:
        return None
    tag = set(start.tag)
    data = start.payload.copy()
    start.merged = True
    for row in table.rows:
        if row is start:
            continue
        if tag.isdisjoint(row.tag):
            data.iadd(row.payload)
            tag |= row.tag
            row.merged = True
    return frozenset(tag), data


def _complete_message(table: TagTable) -> tuple[frozenset, AggregateSums]:
    """Sum of all stored rows; valid when tags are pairwise disjoint."""
    tag: set = set()
    data = None
    for row in table.rows:
        if not tag.isdisjoint(row.tag):
            raise ValueError("complete message requires pairwise disjoint tags")
        tag |= row.tag
        data = row.payload.copy() if data is None else data.iadd(row.payload)
        row.merged = True
    return frozenset(tag), data


def tas_wrapup(table: TagTable) -> tuple[WrapUpWeights, AggregateSums]:
    """Turn a table into per-node weights and a weighted aggregate.

    When stored tags are pairwise disjoint every row is used with coefficient
    one, so covered nodes get weight exactly 1 (all ones when the table spans
    the network, which also yields the exact full sum). Overlapping tags are
    resolved by the wrap-up LP; the resulting weights are clamped into [0, 1]
    at tolerance 1e-9 and values within 1e-9 of 0 or 1 are snapped exact.
    The coefficients b depend on the tag matrix alone: the table keeps the
    last (tag matrix, read-only b) pair and reuses b while its tag matrix is
    unchanged. The aggregate is rebuilt from b on every call.
    """
    tags = table.tag_matrix()
    key = tags.tobytes()
    tagmat = tags.astype(float)
    if table._wrapup[0] != key:
        if tagmat.sum(axis=0).max() <= 1:
            b = np.ones(len(table.rows))
        else:
            b, _ = solve_lp(LpProblem(tagmat))
        b.flags.writeable = False
        table._wrapup = (key, b)
    b = table._wrapup[1]
    c = b @ tagmat
    c[np.abs(c) <= 1e-9] = 0.0
    c[np.abs(c - 1.0) <= 1e-9] = 1.0
    weights = WrapUpWeights(c)
    agg = None
    for coeff, row in zip(b, table.rows):
        if coeff == 0:
            continue
        term = row.payload.scaled(coeff) if coeff != 1 else row.payload.copy()
        agg = term if agg is None else agg.iadd(term)
    if agg is None:
        first = table.rows[0].payload
        agg = AggregateSums.zeros(first.m, first.n_p)
    return weights, agg


# ---------------------------------------------------------------------------
# flooding protocols (record payloads, boolean knowledge state)


def _bool_matmul(adj: np.ndarray, rows: np.ndarray) -> np.ndarray:
    return (adj.astype(np.uint8) @ rows.astype(np.uint8)) > 0


@dataclass(eq=False)
class PfResult:
    known: np.ndarray
    traffic: TrafficLog
    rounds_run: int
    full_knowledge_round: int | None


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
    d_rec, _ = payload_sizes(samples[0].phi.shape[0], 2)
    known = np.eye(n, dtype=bool)
    traffic = TrafficLog("pf", n)
    full_round = 0 if known.all() else None
    cap = max_rounds if max_rounds is not None else n + 2
    rounds_run = 0
    for rnd in range(1, cap + 1):
        rounds_run = rnd
        for k in range(n):
            cnt = int(known[k].sum())
            traffic.record(rnd, k, cnt * d_rec, tag_bits=cnt * n, origins=np.flatnonzero(known[k]))
        new_known = known | _bool_matmul(graph.adjacency, known)
        grew = bool((new_known & ~known).any())
        known = new_known
        if full_round is None and known.all():
            full_round = rnd
        if not grew:
            break
    return PfResult(known=known, traffic=traffic, rounds_run=rounds_run, full_knowledge_round=full_round)


@dataclass(eq=False)
class MfResult:
    known: np.ndarray
    transmitted: np.ndarray
    arrival_round: np.ndarray
    traffic: TrafficLog
    rounds_run: int
    completion_round: int | None
    snapshots: dict[int, np.ndarray] = field(default_factory=dict)

    def weights(self, k: int) -> np.ndarray:
        """Binary contribution weights at node k: 1 for each known record."""
        return self.known[k].astype(float)

    def table(self, k: int, samples) -> TagTable:
        """Materialize node k's store as a tag table of one-hot record rows."""
        order = [(0, k)] + sorted(
            (int(self.arrival_round[k, i]), i)
            for i in np.flatnonzero(self.known[k])
            if i != k
        )
        table = TagTable(owner=k, n_nodes=self.known.shape[0], local_payload=samples[k])
        for _, i in order[1:]:
            table.append(frozenset((i,)), samples[i])
        return table


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
    d_rec, _ = payload_sizes(samples[0].phi.shape[0], 2)
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
                traffic.record(rnd, k, cnt * d_rec, tag_bits=cnt * n, origins=np.flatnonzero(pending[k]))
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
    d_rec, _ = payload_sizes(samples[0].phi.shape[0], 2)
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
            traffic.record(rnd, s, int(mask.sum()) * d_rec, tag_bits=int(mask.sum()) * n,
                           origins=np.flatnonzero(mask))
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
    d_rec, _ = payload_sizes(samples[0].phi.shape[0], 2)
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
            traffic.record(rnd, s, int(mask.sum()) * d_rec, tag_bits=int(mask.sum()) * n,
                           origins=np.flatnonzero(mask))
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


# ---------------------------------------------------------------------------
# tagged aggregate sums


@dataclass(eq=False)
class TasResult:
    tables: list[TagTable]
    traffic: TrafficLog
    weights: np.ndarray
    aggregates: list[AggregateSums]
    complete: np.ndarray
    rounds_run: int
    snapshots: dict[int, tuple[np.ndarray, list[AggregateSums]]] = field(default_factory=dict)


def _wrapup_all(tables, nodes=None):
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
    _check_samples(samples, n)
    if signs.n_nodes != n:
        raise ValueError("sign matrix width must match the node count")
    if rounds is None:
        rounds = diameter(graph)
    _, d_agg = payload_sizes(samples[0].phi.shape[0], signs.m)
    tables = [TagTable(k, n, local_aggregate(samples[k], signs.column(k))) for k in range(n)]
    traffic = TrafficLog("tas", n)
    wanted = set(int(r) for r in snapshot_rounds)
    snapshots: dict[int, tuple[np.ndarray, list[AggregateSums]]] = {}

    outbox: dict[int, tuple[frozenset, AggregateSums]] = {}
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
        new_outbox: dict[int, tuple[frozenset, AggregateSums]] = {}
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
    _check_samples(samples, n)
    if signs.n_nodes != n:
        raise ValueError("sign matrix width must match the node count")
    _, d_agg = payload_sizes(samples[0].phi.shape[0], signs.m)
    tables = [TagTable(k, n, local_aggregate(samples[k], signs.column(k))) for k in range(n)]
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
    _check_samples(samples, n)
    if signs.n_nodes != n:
        raise ValueError("sign matrix width must match the node count")
    _, d_agg = payload_sizes(samples[0].phi.shape[0], signs.m)
    tables = [TagTable(k, n, local_aggregate(samples[k], signs.column(k))) for k in range(n)]
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


# ---------------------------------------------------------------------------
# consensus

CONSENSUS_SCHEMES = ("metropolis", "perron")


def consensus_weights(graph: Graph, scheme: str = "metropolis") -> np.ndarray:
    """Doubly stochastic mixing matrix for a connected graph.

    metropolis: w_ij = 1 / (1 + max(deg_i, deg_j)) on edges, diagonal fills
    the remainder. perron: W = I - L / (max_degree + 1) with L the graph
    Laplacian. Both are symmetric with rows summing to one, and their second
    largest eigenvalue modulus is below one on connected graphs, so repeated
    averaging converges to the uniform mean.
    """
    if scheme not in CONSENSUS_SCHEMES:
        raise ValueError(f"unknown consensus scheme {scheme!r}")
    if not graph.is_connected():
        raise DisconnectedGraphError("consensus weights require a connected graph")
    n = graph.n_nodes
    deg = graph.degrees.astype(float)
    adj = graph.adjacency
    if scheme == "metropolis":
        w = np.zeros((n, n))
        for i in range(n):
            for j in graph.neighbors(i):
                w[i, j] = 1.0 / (1.0 + max(deg[i], deg[j]))
        np.fill_diagonal(w, 1.0 - w.sum(axis=1))
        return w
    eps = 1.0 / (deg.max() + 1.0)
    lap = np.diag(deg) - adj.astype(float)
    return np.eye(n) - eps * lap


@dataclass(eq=False)
class ConsensusResult:
    mixing: np.ndarray
    vec: np.ndarray
    mat: np.ndarray
    traffic: TrafficLog
    iterations: int
    snapshots: dict[int, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    def state(self, k: int, iteration: int | None = None) -> AggregateSums:
        if iteration is None:
            return AggregateSums(self.vec[k].copy(), self.mat[k].copy())
        v, m = self.snapshots[iteration]
        return AggregateSums(v[k].copy(), m[k].copy())

    def effective_weights(self, iteration: int | None = None) -> np.ndarray:
        """c[k, i] = N * (W^t)[k, i], the weight of node i's data at node k."""
        t = self.iterations if iteration is None else iteration
        n = self.mixing.shape[0]
        return n * np.linalg.matrix_power(self.mixing, t)

    def reported_weights(self, k: int, iteration: int | None = None) -> WrapUpWeights:
        """Effective weights clipped into [0, 1] for reporting."""
        c = np.clip(self.effective_weights(iteration)[k], 0.0, 1.0)
        return WrapUpWeights(c)


def run_consensus(
    graph: Graph,
    samples,
    signs: SignMatrix,
    iterations: int,
    scheme: str = "metropolis",
    snapshot_iters=(),
) -> ConsensusResult:
    """Average consensus over the aggregate payloads.

    States start at N times the local aggregate so the fixed point of
    averaging equals the full-network sum. Every node transmits its state
    every iteration: traffic after t iterations is exactly t * N aggregate
    payloads. Membership evaluation can use the state at any iteration; the
    running state equals the truncated aggregate with weights N * (W^t)[k, :].
    """
    n = graph.n_nodes
    _check_samples(samples, n)
    if signs.n_nodes != n:
        raise ValueError("sign matrix width must match the node count")
    if iterations < 0:
        raise ValueError("iterations must be non-negative")
    _, d_agg = payload_sizes(samples[0].phi.shape[0], signs.m)
    w = consensus_weights(graph, scheme)
    locals_ = [local_aggregate(samples[k], signs.column(k)) for k in range(n)]
    vec = np.stack([n * loc.vec for loc in locals_])
    mat = np.stack([n * loc.mat for loc in locals_])
    traffic = TrafficLog(f"consensus-{scheme}", n)
    wanted = set(int(t) for t in snapshot_iters)
    snapshots: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    if 0 in wanted:
        snapshots[0] = (vec.copy(), mat.copy())
    for t in range(1, iterations + 1):
        for k in range(n):
            traffic.record(t, k, d_agg, tag_bits=0)
        vec = np.einsum("kj,jab->kab", w, vec)
        mat = np.einsum("kj,jabc->kabc", w, mat)
        if t in wanted:
            snapshots[t] = (vec.copy(), mat.copy())
    return ConsensusResult(
        mixing=w, vec=vec, mat=mat, traffic=traffic, iterations=iterations, snapshots=snapshots
    )


def _check_samples(samples, n: int) -> None:
    if len(samples) != n:
        raise ValueError(f"expected {n} samples, got {len(samples)}")
    n_p = samples[0].phi.shape[0]
    if any(s.phi.shape[0] != n_p for s in samples):
        raise ValueError("all regressors must share one dimension")
