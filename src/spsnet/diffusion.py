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

PF, MF and TAS run along a schedule: a list of sender sets, one per stage
(round). In a stage every sender builds one message with its protocol's step,
and the sender's neighbours in the topology's graph then take it in:

PF     sends every record it knows;          receivers add the records to
MF     sends the records it knows and has    what they know
       not sent yet
TAS    sends its local row (start-up), a     receivers distill the message
       ``tas_aggregate`` message, or that    into their tag tables
       message else the complete sum

On a general graph every node sends in every round; ``TreeTopology.stages()``
and ``ClusteredTopology.stages()`` list the scripted sweeps. Flooding on a
general graph stops after a round that teaches nobody anything. ``run_tas``
sends its last round but never delivers it. Consensus is linear and runs on
its own.

A TAS tag is one Python ``int`` used as a bitmask: bit i is set when node i's
data is in the payload. So a subset test is ``t & rem == t``, disjointness is
``not a & b``, a union is ``a | b``, and the 0/1 tag matrix the wrap-up LP
reads is unpacked from each tag's little-endian bytes.

Traffic is counted in scalars: a raw record costs n_p + 1 of them, an
aggregate payload m * (n_p + n_p (n_p + 1) / 2). Tag bits are reported
informationally (one bit per node per tagged message) and never enter the
scalar totals. All runners are deterministic: nodes transmit in id order,
each receiver hears a stage's senders in id order, and a stage's messages
are delivered before the next stage starts.

A finished run answers for any node and round after the fact, so nothing is
asked for in advance. ``MfResult.known_after(r)`` is the knowledge after round
r is delivered (a round past the last one gives the final knowledge), read
off the arrival rounds. ``TasResult.wrapup(k, r)`` wraps up node k's table as
round r sends, before that round is delivered: tag tables only grow and a
stored payload never changes, so that table is a prefix of the final one, and
the run records each table's row count per round. Nothing is wrapped up
until it is read.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .lp import LpProblem, solve_lp
from .model import Samples
from .sps import AggregateSums, SignMatrix, WrapUpWeights, local_aggregate_arrays
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


class TrafficEvent(NamedTuple):
    """One broadcast: round, sender, scalar cost, informational tag bits.

    A named tuple, so logging one costs one tuple.
    """

    round: int
    node: int
    scalars: int
    tag_bits: int = 0


class TrafficLog:
    """Append-only transmission log for one protocol run: one event per
    ``record`` call, per-node totals kept as Python ints."""

    def __init__(self, protocol: str, n_nodes: int):
        self.protocol = protocol
        self.n_nodes = n_nodes
        self.events: list[TrafficEvent] = []
        self._per_node = [0] * n_nodes

    def record(self, round_: int, node: int, scalars: int, tag_bits: int = 0):
        if scalars < 0 or tag_bits < 0:
            raise ValueError("traffic amounts must be non-negative")
        node, scalars = int(node), int(scalars)
        self.events.append(TrafficEvent(int(round_), node, scalars, int(tag_bits)))
        self._per_node[node] += scalars

    @property
    def total_scalars(self) -> int:
        return sum(self._per_node)

    @property
    def per_node_totals(self) -> np.ndarray:
        return np.array(self._per_node, dtype=np.int64)

    def total_through_round(self, round_: int) -> int:
        return sum(e.scalars for e in self.events if e.round <= round_)

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
    """Stored row: tag (bitmask of the node ids the payload accounts for) + payload."""

    tag: int
    payload: object
    merged: bool = False


def _unpack(masks, n_nodes: int) -> np.ndarray:
    """0/1 uint8 matrix with one row per bitmask: column i is bit i."""
    nbytes = (n_nodes + 7) // 8
    buf = b"".join(t.to_bytes(nbytes, "little") for t in masks)
    packed = np.frombuffer(buf, dtype=np.uint8).reshape(len(masks), nbytes)
    return np.unpackbits(packed, axis=1, count=n_nodes, bitorder="little")


def _mask_of(ids) -> int:
    """Bitmask of a collection of node ids (a negative id raises ValueError)."""
    tag = 0
    for i in ids:
        tag |= 1 << int(i)
    return tag


class TagTable:
    """A node's insertion-ordered store of tagged rows.

    Every tag is an ``int`` bitmask over the table's ``n_nodes`` node ids
    (bit i is node i). Row 0 is always the owner's local row, tag
    ``1 << owner``. Tags never repeat within a table. The table records which
    rows have already been merged into an outgoing aggregate so later
    aggregation phases can start from fresh content. Rows are added only
    through ``append``, which also takes a collection of node ids and stores
    its mask.
    """

    def __init__(self, owner: int, n_nodes: int, local_payload):
        if not 0 <= owner < n_nodes:
            raise ValueError("owner must be a valid node id")
        self.owner = owner
        self.n_nodes = n_nodes
        self.rows: list[TagRow] = [TagRow(1 << owner, local_payload)]
        self._tags = {1 << owner}
        self._wrapup: tuple[bytes, np.ndarray | None] = (b"", None)  # last (tag matrix bytes, b)

    def append(self, tag, payload) -> TagRow:
        if not isinstance(tag, int):
            tag = _mask_of(tag)
        if tag <= 0:
            raise ValueError("a tag must name at least one node")
        if tag >> self.n_nodes:
            raise ValueError("tag contains an unknown node id")
        if tag in self._tags:
            raise ValueError("duplicate tag")
        row = TagRow(tag, payload)
        self.rows.append(row)
        self._tags.add(tag)
        return row

    def tag_matrix(self) -> np.ndarray:
        """0/1 matrix, one row per stored row, one column per network node."""
        return _unpack([row.tag for row in self.rows], self.n_nodes)


def _cover(rows) -> tuple[int, bool]:
    """(mask of the nodes the rows' tags name, whether those tags are pairwise
    disjoint): disjoint exactly when the tags' bit counts add up to the mask's."""
    covered = bits = 0
    for row in rows:
        covered |= row.tag
        bits += row.tag.bit_count()
    return covered, bits == covered.bit_count()


def tas_distill(table: TagTable, tag: int, payload: AggregateSums) -> TagRow | None:
    """Reduce an incoming message against the stored rows and keep the rest.

    Scanning stored rows in insertion order, every row whose tag is still a
    subset of the remaining incoming tag is subtracted (tag and payload).
    What is left is new information; it is appended as a row. A message whose
    residual is empty carries nothing new and is discarded. (A residual never
    repeats a stored tag: the scan would have subtracted that row.) Payloads
    are touched only for a kept row: a copy of the incoming payload minus the
    subtracted rows in scan order. The incoming payload is never mutated.
    """
    remaining = tag
    subtracted = []
    for row in table.rows:
        t = row.tag
        if t & remaining == t:
            remaining ^= t
            subtracted.append(row.payload)
    if not remaining:
        return None
    residual = payload.copy()
    for known in subtracted:
        residual.isub(known)
    return table.append(remaining, residual)


def tas_aggregate(table: TagTable) -> tuple[int, AggregateSums] | None:
    """Build one outgoing message from the table.

    The running pair starts from the first row never merged before (None when
    there is no such row, in which case the node stays silent). All rows are
    then scanned in insertion order and every row whose tag is disjoint from
    the running tag is summed in and marked merged; the start row overlaps
    itself, so it is not added twice. Rows overlapping the running tag are
    skipped; resolving partial overlaps is the wrap-up's job.
    """
    start = next((r for r in table.rows if not r.merged), None)
    if start is None:
        return None
    tag = start.tag
    data = start.payload.copy()
    start.merged = True
    for row in table.rows:
        if not tag & row.tag:
            data.iadd(row.payload)
            tag |= row.tag
            row.merged = True
    return tag, data


def _complete_message(table: TagTable) -> tuple[int, AggregateSums]:
    """Sum of all stored rows; valid when tags are pairwise disjoint."""
    covered, disjoint = _cover(table.rows)
    if not disjoint:
        raise ValueError("complete message requires pairwise disjoint tags")
    data = None
    for row in table.rows:
        data = row.payload.copy() if data is None else data.iadd(row.payload)
        row.merged = True
    return covered, data


def tas_wrapup(table: TagTable, n_rows: int | None = None) -> tuple[WrapUpWeights, AggregateSums]:
    """Turn a table, or its first ``n_rows`` rows, into per-node weights and a
    weighted aggregate.

    When those rows' tags are pairwise disjoint every row is used with
    coefficient one, so covered nodes get weight exactly 1 (all ones when the
    rows span the network, which also yields the exact full sum); c is then
    unpacked from the covered mask without building a tag matrix. Overlapping
    tags are resolved by the wrap-up LP; the resulting weights are clamped
    into [0, 1] at tolerance 1e-9 and values within 1e-9 of 0 or 1 are
    snapped exact. The coefficients b depend on the tag matrix alone: the
    table keeps the last (tag matrix, read-only b) pair and reuses b while the
    tag matrix it is asked for is unchanged. On both paths the aggregate is
    rebuilt on every call: a copy of the first used row, then every further
    used row added in row order.
    """
    rows = table.rows[:n_rows]
    covered, disjoint = _cover(rows)
    if disjoint:
        coeffs = [1.0] * len(rows)
        c = _unpack([covered], table.n_nodes)[0].astype(float)
    else:
        tags = _unpack([row.tag for row in rows], table.n_nodes)
        key = tags.tobytes()
        tagmat = tags.astype(float)
        if table._wrapup[0] != key:
            b, _ = solve_lp(LpProblem(tagmat))
            b.flags.writeable = False
            table._wrapup = (key, b)
        b = table._wrapup[1]
        coeffs = b.tolist()
        c = b @ tagmat
        c[np.abs(c) <= 1e-9] = 0.0
        c[np.abs(c - 1.0) <= 1e-9] = 1.0
    weights = WrapUpWeights(c)
    agg = None
    for coeff, row in zip(coeffs, rows):
        if coeff == 0:
            continue
        term = row.payload if coeff == 1 else row.payload.scaled(coeff)
        agg = term.copy() if agg is None else agg.iadd(term)
    if agg is None:
        first = rows[0].payload
        agg = AggregateSums.zeros(first.m, first.n_p)
    return weights, agg


# ---------------------------------------------------------------------------
# flooding protocols (record payloads, boolean knowledge state)


@dataclass(eq=False)
class MfResult:
    known: np.ndarray
    transmitted: np.ndarray
    arrival_round: np.ndarray
    traffic: TrafficLog
    rounds_run: int
    completion_round: int | None

    def known_after(self, rnd: int) -> np.ndarray:
        """Who knows which record after round ``rnd`` is delivered (0 = own
        records only); a round past the last one gives the final knowledge."""
        return (0 <= self.arrival_round) & (self.arrival_round <= rnd)


def _flood(protocol: str, graph: Graph, stages, samples, plain=False, until_quiet=False) -> MfResult:
    """Flooding along a schedule; stage s (from 1) is round s.

    Each sender sends every record it knows (``plain``, PF) or every record
    it knows and has not sent (MF); the stage's neighbours then learn them.
    With ``until_quiet`` the run stops after a stage that taught nobody
    anything; a fixed schedule runs every stage. Either way the run reports
    the first round after which every node knew every record (None when that
    never happened).
    """
    n = graph.n_nodes
    _check_samples(samples, n)
    d_rec, _ = payload_sizes(samples.n_p, 2)
    known = np.eye(n, dtype=bool)
    transmitted = np.zeros((n, n), dtype=bool)
    arrival = np.where(known, 0, -1)
    traffic = TrafficLog(protocol, n)
    completion_round = 0 if known.all() else None
    rnd = 0
    for rnd, senders in enumerate(stages, start=1):
        sent = known[senders] if plain else known[senders] & ~transmitted[senders]
        transmitted[senders] |= sent
        before = known.copy()  # every row of ``sent`` was taken before any delivery
        for s, row, cnt in zip(senders.tolist(), sent, sent.sum(axis=1).tolist()):
            if cnt:
                traffic.record(rnd, s, cnt * d_rec, tag_bits=cnt * n)
                known[graph.neighbors(s)] |= row
        newly = known & ~before
        arrival[newly] = rnd
        if completion_round is None and known.all():
            completion_round = rnd
        if until_quiet and not newly.any():
            break
    return MfResult(known, transmitted, arrival, traffic, rnd, completion_round)


def _every_node(graph: Graph, rounds: int) -> list[np.ndarray]:
    """The schedule of a general graph: every node sends in every round."""
    return [np.arange(graph.n_nodes)] * rounds


def run_pf(graph: Graph, samples, max_rounds: int | None = None) -> MfResult:
    """Plain flooding: every node rebroadcasts everything it knows each round.

    Stops after the first round that adds no knowledge anywhere (or at
    ``max_rounds``); the round at which knowledge first became complete
    everywhere is ``completion_round``. Traffic dominates modified flooding
    round by round because the transmitted set always contains the rows MF
    would send.
    """
    cap = max_rounds if max_rounds is not None else graph.n_nodes + 2
    return _flood("pf", graph, _every_node(graph, cap), samples, plain=True, until_quiet=True)


def run_mf(graph: Graph, samples, max_rounds: int | None = None) -> MfResult:
    """Modified flooding: forward each record at most once per node.

    Round 1 is every node broadcasting its own record; later rounds forward
    whatever arrived and was never sent. The run quiesces (no node holds an
    untransmitted row) within diameter + 2 rounds; knowledge is complete
    everywhere within diameter + 1.
    """
    cap = max_rounds if max_rounds is not None else graph.n_nodes + 2
    return _flood("mf", graph, _every_node(graph, cap), samples, until_quiet=True)


def run_mf_tree(tree: TreeTopology, samples) -> MfResult:
    """Modified flooding on a rooted tree along ``tree.stages()``.

    The forward sweep gives every node its subtree by the time its level
    fires, and the root all records; the backward sweep forwards what the
    root's broadcast gave each level. Every node ends up knowing all records,
    and the totals match the per-level census formula exactly.
    """
    return _flood("mf-tree", tree.graph(), tree.stages(), samples)


def run_mf_clustered(topo: ClusteredTopology, samples) -> MfResult:
    """Modified flooding on a clustered topology along ``topo.stages()``.

    Members send their record to their head; heads broadcast everything they
    hold (own cluster) to the head mesh and their members; heads then forward
    the other clusters' records to their members.
    """
    return _flood("mf-clustered", topo.graph(), topo.stages(), samples)


# ---------------------------------------------------------------------------
# tagged aggregate sums


@dataclass(eq=False)
class TasResult:
    """A finished TAS run: its tag tables, traffic, and each table's row count
    as each round sent (``row_counts[rnd][k]``)."""

    tables: list[TagTable]
    traffic: TrafficLog
    rounds_run: int
    row_counts: dict[int, list[int]]

    def wrapup(self, k: int, rnd: int | None = None) -> tuple[WrapUpWeights, AggregateSums]:
        """Node k's weights and aggregate as round ``rnd`` sends, before it is
        delivered; from the whole table when ``rnd`` is None."""
        if not 0 <= k < len(self.tables):
            raise ValueError(f"node {k} is not in the network")
        if rnd is not None and rnd not in self.row_counts:
            raise ValueError(f"round {rnd} was not run")
        return tas_wrapup(self.tables[k], None if rnd is None else self.row_counts[rnd][k])


def _local_row(table: TagTable) -> tuple[int, AggregateSums]:
    """The start-up message: a copy of row 0, which stays unmerged."""
    row = table.rows[0]
    return row.tag, row.payload.copy()


def _aggregate_or_complete(table: TagTable) -> tuple[int, AggregateSums]:
    """A fresh aggregate when there is one, else the complete sum again."""
    return tas_aggregate(table) or _complete_message(table)


def _tas(protocol: str, graph: Graph, stages, steps, samples, signs: SignMatrix, first_round=1,
         deliver_last=True) -> TasResult:
    """TAS along a schedule; stage i is round ``first_round + i``.

    In each stage every sender builds its message with that stage's step (a
    sender whose step gives None stays silent), and every table's row count
    is recorded. Each neighbour of a sender then distills the message,
    hearing senders in ascending id order. Without ``deliver_last`` the final
    stage is sent but never delivered. Wrap-ups are left to the result.
    """
    n = graph.n_nodes
    tables = _local_tables(samples, signs, n)
    _, d_agg = payload_sizes(samples.n_p, signs.m)
    traffic = TrafficLog(protocol, n)
    row_counts: dict[int, list[int]] = {}
    for i, (senders, step) in enumerate(zip(stages, steps, strict=True)):
        rnd = first_round + i
        msgs = []
        for s in senders.tolist():
            msg = step(tables[s])
            if msg is not None:
                msgs.append((s, msg))
                traffic.record(rnd, s, d_agg, tag_bits=n)
        row_counts[rnd] = [len(t.rows) for t in tables]
        if deliver_last or i < len(stages) - 1:
            for s, (tag, payload) in msgs:
                for k in graph.neighbors(s).tolist():
                    tas_distill(tables[k], tag, payload)
    return TasResult(tables, traffic, rnd, row_counts)


def run_tas(graph: Graph, samples, signs: SignMatrix, rounds: int | None = None) -> TasResult:
    """Tagged aggregate sums on an arbitrary connected graph.

    Round 0 is the initialization broadcast of each node's local row. Each of
    the following ``rounds`` cycles (default: graph diameter) runs reception,
    distillation, aggregation, transmission. A node transmits every round as
    long as its aggregation finds a never-merged row, even when the message
    repeats content; with no never-merged row it stays silent. The last
    round's messages are sent but never received, so a wrap-up as the last
    round sends reads the final tables. The final wrap-up may be partial on
    general graphs, so completion is reported per node, not assumed.
    """
    if rounds is None:
        rounds = diameter(graph)
    if rounds < 0:
        raise ValueError("rounds must be non-negative")
    return _tas("tas", graph, _every_node(graph, rounds + 1), [_local_row] + [tas_aggregate] * rounds,
                samples, signs, first_round=0, deliver_last=False)


def run_tas_tree(tree: TreeTopology, samples, signs: SignMatrix) -> TasResult:
    """TAS on a rooted tree along ``tree.stages()``.

    In the forward sweep each node merges its subtree into a single message;
    in the backward sweep the complete aggregate flows down. Every node
    finishes with weights all one, and the scalar totals hit the census
    formula exactly.
    """
    stages = tree.stages()
    return _tas("tas-tree", tree.graph(), stages, [tas_aggregate] * len(stages), samples, signs)


def run_tas_clustered(topo: ClusteredTopology, samples, signs: SignMatrix) -> TasResult:
    """TAS on a clustered topology along ``topo.stages()``.

    Members send their local row to their head; heads broadcast their cluster
    aggregate across the head mesh (members overhear); heads then broadcast
    the complete aggregate to their cluster. The final stage transmits
    unconditionally, so the totals are (N + n_c) aggregate payloads even for
    a single cluster, where the last broadcast repeats the mesh one.
    """
    return _tas("tas-clustered", topo.graph(), topo.stages(),
                [_local_row, tas_aggregate, _aggregate_or_complete], samples, signs)


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
        w = np.where(adj, 1.0 / (1.0 + np.maximum(deg[:, None], deg[None, :])), 0.0)
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
    _, d_agg = payload_sizes(samples.n_p, signs.m)
    w = consensus_weights(graph, scheme)
    vec, mat = local_aggregate_arrays(samples, signs)
    vec, mat = n * vec, n * mat
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


def _check_samples(samples: Samples, n: int) -> None:
    if len(samples) != n:
        raise ValueError(f"expected {n} samples, got {len(samples)}")


def _local_tables(samples: Samples, signs: SignMatrix, n: int) -> list[TagTable]:
    """One tag table per node, holding that node's local aggregate as row 0.

    Node k's payload views slice k of ``local_aggregate_arrays``: the slices
    do not overlap, so no two tables share payload memory.
    """
    _check_samples(samples, n)
    vec, mat = local_aggregate_arrays(samples, signs)  # checks the sign matrix width
    return [TagTable(k, n, AggregateSums._of_valid(vec[k], mat[k])) for k in range(n)]
