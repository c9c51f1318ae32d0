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
                         wrap-up turns the stored rows into per-node weights:
                         the greedy disjoint rows' 0/1 mask whenever those
                         rows cover every node the table names, otherwise a
                         small linear program, then that mask as a fallback.
consensus                every node averages its neighbors' running
                         aggregates under a doubly stochastic mixing matrix;
                         initial states are scaled by N so the fixed point is
                         the full sum. After t iterations node k holds the
                         aggregate weighted by row k of N * W^t.

PF, MF and TAS run along a schedule: a list of sender sets, one per stage
(round). In a stage every sender builds one message with its protocol's step,
and the sender's neighbours in the topology's graph then take it in:

PF     sends every record it knows;          receivers add the records to
MF     sends the records it knows and has    what they know
       not sent yet
TAS    sends its local tag (start-up), a     receivers distill the tag
       ``tas_aggregate`` tag, or that tag    into their tag tables
       else the complete one

On a general graph every node sends in every round; ``TreeTopology.stages()``
and ``ClusteredTopology.stages()`` list the scripted sweeps. Flooding on a
general graph stops after a round that teaches nobody anything. ``run_tas``
sends its last round but never delivers it. Consensus is linear and runs on
its own.

Whose data a node holds is one Python ``int`` used as a bitmask, bit i for
node i: a TAS tag names the nodes whose data its message carries, and a
flooding node keeps one mask of the records it knows and one of those it has
sent. So a subset test is ``t & rem == t``, disjointness is ``not a & b``, a
union is ``a | b``, and a 0/1 matrix (the tag matrix the wrap-up LP reads, or
flooding knowledge) is unpacked from the masks' little-endian bytes. A tag
table is two parallel lists, ``tags`` (one mask per row) and ``merged`` (one
flag per row). Receivers come from the graph's ``neighbor_lists``.

Traffic is counted in scalars: a raw record costs n_p + 1 of them, an
aggregate payload m * (n_p + n_p (n_p + 1) / 2). Tag bits are reported
informationally (one bit per node per tagged message) and never enter the
scalar totals. A run's ``TrafficLog`` keeps one event per broadcast and adds
its scalars to that round's running sum, which the network and through-round
totals read. All runners are deterministic: nodes transmit in id order,
each receiver hears a stage's senders in id order, and a stage's messages
are delivered before the next stage starts.

A finished run answers for any node and round after the fact, so nothing is
asked for in advance. Every result has one read, ``weights(k, r)``, node k's
weight vector c at round r (None: the end of the run), and a ``rounds_run``.
``MfResult`` unpacks node k's mask of the knowledge after round r is
delivered (a round past the last one gives the final knowledge).
``TasResult`` wraps up node k's table as round r sends, before that round is
delivered: tag tables only grow, so that table is a prefix of the final one,
and the run records each table's row count per round. Nothing is wrapped up
until it is read, and each read wraps up its prefix afresh. ``ConsensusResult``
gives row k of N * W^t after iteration t; only the rows that are read are
stepped, each from its identity row with the right product.

No run reads the data, only their shapes. A TAS message's payload is the sum
of the local aggregates its tag names, so distillation, aggregation and
traffic depend on the tags alone, and the wrap-up turns a table into the
weights c; flooding knowledge is 0/1 weights, and consensus is linear, so its
states are the N * W^t-weighted sums. The aggregate a node would have
assembled is c-weighted, so the SPS side builds it from c.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .lp import LpProblem, SimplexError, solve_lp
from .model import Samples
from .sps import SignMatrix
from .topology import ClusteredTopology, DisconnectedGraphError, Graph, TreeTopology, _check_node, diameter

logger = logging.getLogger(__name__)


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
    """One broadcast: round, sender, scalar cost, informational tag bits."""

    round: int
    node: int
    scalars: int
    tag_bits: int = 0


class TrafficLog:
    """Append-only transmission log for one protocol run: one plain tuple per
    ``record`` call, and beside it each round's running scalar sum, a Python
    int. The round sums answer ``total_scalars`` and ``total_through_round``;
    ``per_node_totals`` sums the events on each read."""

    def __init__(self, protocol: str, n_nodes: int):
        self.protocol = protocol
        self.n_nodes = n_nodes
        self._events: list[tuple[int, int, int, int]] = []
        self._per_round: dict[int, int] = {}

    def record(self, round_: int, node: int, scalars: int, tag_bits: int = 0):
        if scalars < 0 or tag_bits < 0:
            raise ValueError("traffic amounts must be non-negative")
        if not 0 <= node < self.n_nodes:  # tested inline: record runs once per event
            _check_node(node, self.n_nodes)
        round_, scalars = int(round_), int(scalars)
        self._events.append((round_, int(node), scalars, int(tag_bits)))
        self._per_round[round_] = self._per_round.get(round_, 0) + scalars

    @property
    def events(self) -> list[TrafficEvent]:
        return list(map(TrafficEvent._make, self._events))

    @property
    def total_scalars(self) -> int:
        return sum(self._per_round.values())

    @property
    def per_node_totals(self) -> np.ndarray:
        per_node = [0] * self.n_nodes
        for _, node, scalars, _ in self._events:
            per_node[node] += scalars
        return np.array(per_node, dtype=np.int64)

    def total_through_round(self, round_: int) -> int:
        return sum(total for rnd, total in self._per_round.items() if rnd <= round_)

    def to_csv(self, path) -> None:
        """CSV rows sorted by (round, node); cumulative_scalars is the
        sender's running total after the event."""
        running = [0] * self.n_nodes
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["protocol", "round", "node_id", "scalars_sent", "cumulative_scalars", "tag_bits"])
            for rnd, node, scalars, bits in sorted(self._events, key=lambda e: (e[0], e[1])):
                running[node] += scalars
                w.writerow([self.protocol, rnd, node, scalars, running[node], bits])


# ---------------------------------------------------------------------------
# tag tables


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
    """A node's tag table: row i is ``tags[i]``, an ``int`` bitmask over the
    table's ``n_nodes`` node ids (bit i is node i), and ``merged[i]``, whether
    an outgoing aggregate has merged it, so later aggregation phases can
    start from fresh content. Rows keep insertion order, row 0 is the owner's
    local row ``1 << owner``, and tags never repeat. ``covered`` is the OR of
    every tag and ``disjoint`` whether the tags are pairwise disjoint.
    ``append`` checks a tag against the network and every stored tag (it
    takes a collection of node ids too) and returns it; ``tas_distill``
    stores the residuals it keeps inline, unchecked. A table holds no
    payload: ``local_payload`` and ``append``'s ``payload`` are ignored.
    """

    def __init__(self, owner: int, n_nodes: int, local_payload=None):
        if not 0 <= owner < n_nodes:
            raise ValueError("owner must be a valid node id")
        self.owner = owner
        self.n_nodes = n_nodes
        self.tags: list[int] = [1 << owner]
        self.merged: list[bool] = [False]
        self.covered = 1 << owner
        self.disjoint = True

    def append(self, tag, payload=None) -> int:
        if not isinstance(tag, int):
            tag = _mask_of(tag)
        if tag <= 0:
            raise ValueError("a tag must name at least one node")
        if tag >> self.n_nodes:
            raise ValueError("tag contains an unknown node id")
        if tag in self.tags:
            raise ValueError("duplicate tag")
        self.tags.append(tag)
        self.merged.append(False)
        self.disjoint = self.disjoint and not tag & self.covered
        self.covered |= tag
        return tag


def tas_distill(table: TagTable, tag: int) -> int | None:
    """Reduce an incoming tag against the stored rows and keep the rest.

    Scanning stored rows in insertion order, every row whose tag is still a
    subset of the remaining incoming tag is subtracted. What is left is new
    information; it is stored as a row and returned. A message whose residual
    is empty carries nothing new and is discarded (None). (A residual never
    repeats a stored tag: the scan would have subtracted that row.) The
    incoming tag must be a message tag of the same network, a mask over the
    table's node ids; the residual is stored without ``append``'s checks.

    Two cases need no scan, read off the table's ``covered`` and ``disjoint``:
    a tag sharing no node with ``covered`` is kept whole, and when the table
    is disjoint, a tag that contains ``covered`` keeps ``tag ^ covered`` (and
    is discarded when it equals ``covered``), as the scan would; both
    residuals miss ``covered``, so ``disjoint`` holds.
    """
    covered = table.covered
    if tag & covered:
        if table.disjoint and tag & covered == covered:
            tag ^= covered
        else:
            for t in table.tags:
                if t & tag == t:
                    tag ^= t
            table.disjoint = table.disjoint and not tag & covered
    if not tag:
        return None
    table.tags.append(tag)
    table.merged.append(False)
    table.covered = covered | tag
    return tag


def tas_aggregate(table: TagTable) -> int | None:
    """Build one outgoing message's tag from the table.

    The running tag starts from the first row never merged before (None when
    there is no such row, in which case the node stays silent). All rows are
    then scanned in insertion order and every row whose tag is disjoint from
    the running tag is merged in and marked merged; the start row overlaps
    itself, so it is not merged twice. Rows overlapping the running tag are
    skipped; resolving partial overlaps is the wrap-up's job.
    """
    merged, tags = table.merged, table.tags
    if all(merged):
        return None
    start = merged.index(False)
    tag = tags[start]
    merged[start] = True
    for i, t in enumerate(tags):
        if not tag & t:
            tag |= t
            merged[i] = True
    return tag


def _complete_message(table: TagTable) -> int:
    """The union of all stored rows; valid when tags are pairwise disjoint."""
    if not table.disjoint:
        raise ValueError("complete message requires pairwise disjoint tags")
    table.merged = [True] * len(table.tags)
    return table.covered


def tas_wrapup(table: TagTable, n_rows: int | None = None) -> np.ndarray:
    """The per-node weights c of a table, or of its first ``n_rows`` rows
    (1..the table's row count; anything else raises ValueError).

    One pass over those rows, in insertion order, takes each row whose tag
    misses every row taken before, and ORs every tag into ``covered``. When
    the taken rows cover every node the rows name, c is the 0/1 mask of the
    taken rows (all ones when they span the network), read without building
    a tag matrix: each c_i is at most 1 and is 0 off ``covered``, so that
    mask is the LP's unique optimum. Otherwise the wrap-up LP resolves the
    overlapping tags, solved afresh on every call; values within 1e-9 of 0
    or 1 are snapped exact.

    When the LP raises ``SimplexError`` or gives a weight further than 1e-9
    outside [0, 1], the wrap-up falls back to the same mask of taken rows and
    logs one WARNING naming the owner, the row count and the reason. Those
    weights read the tags only, so coverage stays exact; only the region grows.
    """
    if n_rows is not None and not 1 <= n_rows <= len(table.tags):
        raise ValueError(f"n_rows must lie in 1..{len(table.tags)}, got {n_rows}")
    tags = table.tags[:n_rows]
    taken = covered = 0
    for t in tags:
        if not t & taken:
            taken |= t
        covered |= t
    if taken != covered:
        tagmat = _unpack(tags, table.n_nodes).astype(float)
        try:
            b, _ = solve_lp(LpProblem(tagmat))
        except SimplexError as err:
            reason = str(err)
        else:
            c = b @ tagmat
            c[np.abs(c) <= 1e-9] = 0.0
            c[np.abs(c - 1.0) <= 1e-9] = 1.0
            if ((0.0 <= c) & (c <= 1.0)).all():
                return c
            reason = "a weight lies more than 1e-9 outside [0, 1]"
        logger.warning("tas_wrapup: node %d, %d rows: %s; using the disjoint rows' 0/1 weights",
                       table.owner, len(tags), reason)
    return _unpack([taken], table.n_nodes)[0].astype(float)


# ---------------------------------------------------------------------------
# flooding protocols (record payloads, knowledge as per-node bitmasks)


@dataclass(eq=False)
class MfResult:
    """A flooding run: ``masks[r][k]``, an ``int`` bitmask like a TAS tag, has
    bit i set when node k holds node i's record after round r is delivered.

    Knowledge with no rounds is one list of masks: ``full`` is every node
    knowing every record, ``local`` every node knowing its own.
    """

    masks: list[list[int]]
    traffic: TrafficLog
    rounds_run: int

    def weights(self, k: int, rnd: int | None = None) -> np.ndarray:
        """Node k's 0/1 weights after round ``rnd`` (0: its own record only);
        None or a round past the last gives the final knowledge."""
        if rnd is not None and rnd < 0:
            raise ValueError(f"round {rnd} was not run")
        masks = self.masks[self.rounds_run if rnd is None else min(rnd, self.rounds_run)]
        _check_node(k, len(masks))
        return _unpack([masks[k]], len(masks))[0].astype(float)


def _flood(protocol: str, graph: Graph, stages, samples, plain=False, until_quiet=False) -> MfResult:
    """Flooding along a schedule; stage s (from 1) is round s.

    A sender sends the records it knows (``plain``, PF) or knows and has not
    sent (MF), both bitmasks per node, every message of a stage formed before
    receivers OR it in. ``until_quiet`` stops after a stage that taught nobody.
    """
    n = graph.n_nodes
    _check_samples(samples, n)
    d_rec, _ = payload_sizes(samples.n_p, 2)
    known, sent = [1 << k for k in range(n)], [0] * n
    masks, traffic = [known], TrafficLog(protocol, n)
    neighbors = graph.neighbor_lists
    for rnd, senders in enumerate(stages, start=1):
        msgs = [(s, known[s] if plain else known[s] & ~sent[s]) for s in senders.tolist()]
        known = known.copy()
        for s, msg in msgs:
            if msg:
                sent[s] |= msg
                traffic.record(rnd, s, msg.bit_count() * d_rec, tag_bits=msg.bit_count() * n)
                for k in neighbors[s]:
                    known[k] |= msg
        masks.append(known)
        if until_quiet and known == masks[-2]:
            break
    return MfResult(masks, traffic, len(masks) - 1)


def _every_node(graph: Graph, rounds: int | None) -> list[np.ndarray]:
    """The schedule of a general graph: every node sends in each of ``rounds``
    rounds (None: N + 2, flooding's cap); a negative count raises ValueError."""
    rounds = graph.n_nodes + 2 if rounds is None else rounds
    if rounds < 0:
        raise ValueError("rounds must be non-negative")
    return [np.arange(graph.n_nodes)] * rounds


def run_pf(graph: Graph, samples, max_rounds: int | None = None) -> MfResult:
    """Plain flooding: every node rebroadcasts everything it knows each round.

    Stops after the first round that adds no knowledge anywhere (or at
    ``max_rounds``); ``masks`` shows the round at which knowledge first
    became complete everywhere. Traffic dominates modified flooding round by
    round because the transmitted set always contains the rows MF would send.
    """
    return _flood("pf", graph, _every_node(graph, max_rounds), samples, plain=True, until_quiet=True)


def run_mf(graph: Graph, samples, max_rounds: int | None = None) -> MfResult:
    """Modified flooding: forward each record at most once per node.

    Round 1 is every node broadcasting its own record; later rounds forward
    whatever arrived and was never sent. The run quiesces (no node holds an
    untransmitted row) within diameter + 2 rounds; knowledge is complete
    everywhere within diameter + 1.
    """
    return _flood("mf", graph, _every_node(graph, max_rounds), samples, until_quiet=True)


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

    def weights(self, k: int, rnd: int | None = None) -> np.ndarray:
        """Node k's wrap-up weights as round ``rnd`` sends, before it is
        delivered; from the whole table when ``rnd`` is None.

        Tables only grow and tags never repeat, so the table a round sent is
        the first ``row_counts[rnd][k]`` rows of the final one; every read
        wraps that prefix up with ``tas_wrapup``.
        """
        _check_node(k, len(self.tables))
        if rnd is not None and rnd not in self.row_counts:
            raise ValueError(f"round {rnd} was not run")
        return tas_wrapup(self.tables[k], None if rnd is None else self.row_counts[rnd][k])


def _local_row(table: TagTable) -> int:
    """The start-up message: row 0's tag; the row stays unmerged."""
    return table.tags[0]


def _aggregate_or_complete(table: TagTable) -> int:
    """A fresh aggregate when there is one, else the complete sum again."""
    return tas_aggregate(table) or _complete_message(table)


def _tas(protocol: str, graph: Graph, stages, steps, samples, signs: SignMatrix, first_round=1,
         deliver_last=True) -> TasResult:
    """TAS along a schedule; stage i is round ``first_round + i``.

    In each stage every sender builds its message's tag with that stage's
    step (a sender whose step gives None stays silent), and every table's
    row count is recorded: a running count per table, bumped whenever
    distillation keeps a row, copied once per stage. Each neighbour of a sender then
    distills the message, hearing senders in ascending id order. Without
    ``deliver_last`` the final stage is sent but never delivered. Wrap-ups
    are left to the result.
    """
    n = graph.n_nodes
    _check_samples(samples, n)
    _check_signs(signs, n)
    tables = [TagTable(k, n) for k in range(n)]
    _, d_agg = payload_sizes(samples.n_p, signs.m)
    traffic = TrafficLog(protocol, n)
    counts = [1] * n
    row_counts: dict[int, list[int]] = {}
    neighbors = graph.neighbor_lists
    for i, (senders, step) in enumerate(zip(stages, steps, strict=True)):
        rnd = first_round + i
        msgs = []
        for s in senders.tolist():
            tag = step(tables[s])
            if tag is not None:
                msgs.append((s, tag))
                traffic.record(rnd, s, d_agg, tag_bits=n)
        row_counts[rnd] = counts.copy()
        if deliver_last or i < len(stages) - 1:
            for s, tag in msgs:
                for k in neighbors[s]:
                    if tas_distill(tables[k], tag) is not None:
                        counts[k] += 1
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
    """A consensus run, read on demand: ``weights(k, t)`` is row k of
    N * W^t, node k's weight vector after iteration t (the last one when t is
    None).

    Row k of W^t is e_k W^t, so it is stepped on its own with the right
    product, one ``einsum`` per iteration, and only the rows that are read
    are stepped. One cursor ``(t, nodes read so far, their rows of W^t)``
    holds them: a read at a later t steps every row of the cursor forward, a
    node new to the cursor steps alone from its identity row up to the
    cursor's t and joins it, and an earlier t restarts the cursor from the
    identity rows of its nodes. A row's bits do not depend on which rows are
    stepped with it, so the read order changes no weight. Reads in iteration
    order step each iteration once. No BLAS call is made, so the bits do not
    depend on the kernel OpenBLAS picks for the CPU. An iteration that was
    not run raises ValueError.
    """

    mixing: np.ndarray
    traffic: TrafficLog
    rounds_run: int
    _cursor: tuple[int, dict[int, int], np.ndarray] | None = field(default=None, init=False, repr=False)

    def weights(self, k: int, iteration: int | None = None) -> np.ndarray:
        """c[i] = N * (W^t)[k, i], the weight of node i's data at node k."""
        t = self.rounds_run if iteration is None else iteration
        if not 0 <= t <= self.rounds_run:
            raise ValueError(f"iteration {t} was not run")
        n = self.mixing.shape[0]
        _check_node(k, n)
        at, nodes, rows = self._cursor or (0, {}, np.empty((0, n)))
        if at > t:
            at, rows = 0, _unit_rows(list(nodes), n)
        if k not in nodes:
            nodes[k] = len(rows)
            rows = np.concatenate([rows, self._step(_unit_rows([k], n), at)])
        rows = self._step(rows, t - at)
        self._cursor = (t, nodes, rows)
        return n * rows[nodes[k]]

    def _step(self, rows: np.ndarray, iterations: int) -> np.ndarray:
        for _ in range(iterations):
            rows = np.einsum("kj,ji->ki", rows, self.mixing)
        return rows


def _unit_rows(nodes: list[int], n: int) -> np.ndarray:
    """The identity rows of ``nodes``, in that order."""
    rows = np.zeros((len(nodes), n))
    rows[np.arange(len(nodes)), nodes] = 1.0
    return rows


def run_consensus(graph: Graph, samples, signs: SignMatrix, iterations: int,
                  scheme: str = "metropolis") -> ConsensusResult:
    """Average consensus over the aggregate payloads.

    States start at N times the local aggregate so the fixed point of
    averaging equals the full-network sum. Every node transmits its state
    every iteration: traffic after t iterations is exactly t * N aggregate
    payloads, logged as one event per node per iteration. The run builds the
    mixing matrix and logs the traffic; node k's state after iteration t is
    the aggregate with weights N * (W^t)[k, :], which ``weights(k, t)`` gives.
    """
    n = graph.n_nodes
    _check_samples(samples, n)
    _check_signs(signs, n)
    if iterations < 0:
        raise ValueError("iterations must be non-negative")
    _, d_agg = payload_sizes(samples.n_p, signs.m)
    w = consensus_weights(graph, scheme)
    traffic = TrafficLog(f"consensus-{scheme}", n)
    for t in range(1, iterations + 1):
        for k in range(n):
            traffic.record(t, k, d_agg, tag_bits=0)
    return ConsensusResult(w, traffic, iterations)


def _check_samples(samples: Samples, n: int) -> None:
    if len(samples) != n:
        raise ValueError(f"expected {n} samples, got {len(samples)}")


def _check_signs(signs: SignMatrix, n: int) -> None:
    if signs.n_nodes != n:
        raise ValueError("sign matrix width must match the node count")
