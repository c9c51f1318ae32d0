"""Property test: the schedule-driven engines against the old per-runner loops.

Every traffic integer, weight and aggregate the benchmark checks comes out of
these seven runners, so each must log the same events in the same order and
end with the same state as its oracle in ``diffusion_oracle``: knowledge,
records sent per node, arrival rounds and round counts for flooding; every
message's tag, every tag table row (tag, merged flag), weights and completion
flags for TAS. The TAS oracles carry payloads and do their arithmetic
eagerly; the package moves tags only, and the aggregate built from its
weights with ``tie_exact_aggregate`` must be close to the oracle's. The round
views must equal the oracles' eager snapshots: every node's flooding
``weights(k, r)`` stacked into the knowledge matrix bit for bit for every
round, also past the last one, and TAS ``weights(k, r)`` for every node and
round (weights bit for bit, aggregates close). The package keeps flooding
knowledge as bitmasks, so arrival rounds are derived from the stacked
weights. On the tree and clustered schedules, which the oracles do not
snapshot, ``weights(k, r)`` must equal the wrap-up of a fresh table holding
that prefix of node k's rows. Cases cover random geometric graphs of 2 to 60 nodes, their spanning
trees, complete binary trees and clustered deployments with one cluster, N/4
clusters and one node per cluster.

Two things differ from the oracles on purpose. Every MF result reports as
``completion_round`` the first round after which all nodes know every record,
also on the tree and clustered schedules (the oracles report the last
stage there). And a TAS result wraps up nothing until ``weights`` is called,
and each prefix of a table once, where the oracles wrap up every table
before they return.
"""

import numpy as np
import pytest
from weight_rows import knowledge

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import diffusion_oracle as oracle  # noqa: E402
from spsnet import diffusion  # noqa: E402
from spsnet.model import FieldConfig, NoiseSpec, generate_measurements  # noqa: E402
from spsnet.rng import substream  # noqa: E402
from spsnet.sps import draw_sign_matrix, tie_exact_aggregate  # noqa: E402
from spsnet.topology import clustered, complete_binary_tree, random_geometric, spanning_tree  # noqa: E402

EXAMPLES = 100


def data_for(positions, seed, n_p, m):
    fc = FieldConfig(n_p=n_p, p_true=np.ones(n_p), noise=NoiseSpec(scale=0.1))
    samples = generate_measurements(positions, fc, substream(seed, "noise"))
    return samples, draw_sign_matrix(m, positions.shape[0], seed)


@st.composite
def networks(draw):
    """(seed, graph, samples, signs) on a connected random geometric graph."""
    n_nodes = draw(st.sampled_from(range(2, 61)))
    seed = draw(st.integers(0, 2**32 - 1))
    graph = random_geometric(n_nodes, substream(seed, "topology"))
    samples, signs = data_for(graph.positions, seed, draw(st.integers(1, 3)), draw(st.integers(2, 4)))
    return seed, graph, samples, signs


def assert_same_log(log, ref):
    assert (log.protocol, log.n_nodes) == (ref.protocol, ref.n_nodes)
    assert log.events == ref.events
    assert np.array_equal(log.per_node_totals, ref.per_node_totals)


def arrival_rounds(res) -> np.ndarray:
    """The round each record reached each node, read off the round views
    (-1 where it never did)."""
    arrival = np.full((res.traffic.n_nodes,) * 2, -1)
    for r in range(res.rounds_run, -1, -1):
        arrival[knowledge(res, r)] = r
    return arrival


def assert_same_flooding(res, ref):
    assert_same_log(res.traffic, ref.traffic)
    assert np.array_equal(knowledge(res), ref.known)
    assert res.rounds_run == ref.rounds_run
    with pytest.raises(ValueError):
        res.weights(0, -1)
    every_round = range(res.rounds_run + 3)  # two rounds past the end give the final knowledge
    if isinstance(ref, oracle.PfResult):
        assert res.completion_round == ref.full_knowledge_round
        for r in every_round:
            assert np.array_equal(knowledge(res, r), ref.history[min(r, ref.rounds_run)])
        return
    n = res.traffic.n_nodes
    records_sent = np.zeros(n, dtype=int)
    for e in res.traffic.events:
        records_sent[e.node] += e.tag_bits // n
    assert np.array_equal(records_sent, ref.transmitted.sum(axis=1))
    arrival = arrival_rounds(res)
    assert np.array_equal(arrival, ref.arrival_round)
    # with equal arrival rounds this also equals run_mf's oracle
    assert res.completion_round == (int(arrival.max()) if knowledge(res).all() else None)
    for r in every_round:
        assert np.array_equal(knowledge(res, r), (0 <= ref.arrival_round) & (ref.arrival_round <= r))
    for r, known in ref.snapshots.items():
        assert np.array_equal(knowledge(res, r), known)


def same_wrapup(got, weights, agg, samples, signs):
    """Equal weights, and the aggregate built from them close to the oracle's."""
    return np.array_equal(got, weights) and tie_exact_aggregate(samples, signs, got).allclose(agg)


def run_recording(run, *args):
    """(result, the tag of every message it sent, in sending order) of a
    package TAS runner, read off its message steps."""
    sent = []

    def recording(step):
        def wrapped(table):
            msg = step(table)
            if msg is not None:
                sent.append(msg)
            return msg

        return wrapped

    with pytest.MonkeyPatch.context() as mp:
        for name in ("_local_row", "tas_aggregate", "_complete_message"):
            mp.setattr(diffusion, name, recording(getattr(diffusion, name)))
        res = run(*args)
    return res, sent


def assert_same_tas(res, sent, ref, samples, signs):
    assert_same_log(res.traffic, ref.traffic)
    assert res.rounds_run == ref.rounds_run
    assert sent == [tag for tag, _ in ref.messages]
    for table, ref_table in zip(res.tables, ref.tables, strict=True):
        assert [(r.tag, r.merged) for r in table.rows] == [(r.tag, r.merged) for r in ref_table.rows]
    for k in range(len(ref.tables)):
        final = res.weights(k)
        assert same_wrapup(final, ref.weights[k], ref.aggregates[k], samples, signs)
        assert (final == 1.0).all() == ref.complete[k]
    for r, (weights, aggs) in ref.snapshots.items():
        assert all(same_wrapup(res.weights(k, r), weights[k], aggs[k], samples, signs)
                   for k in range(len(ref.tables)))


def assert_prefix_wrapups(res):
    """Each node's wrap-up at each round equals that of a fresh table built
    from the prefix of its rows the round saw."""
    for r, counts in res.row_counts.items():
        for k, table in enumerate(res.tables):
            fresh = diffusion.TagTable(k, table.n_nodes)
            for row in table.rows[1:counts[k]]:
                fresh.append(row.tag)
            assert np.array_equal(res.weights(k, r), diffusion.tas_wrapup(fresh))


@settings(max_examples=EXAMPLES, deadline=None, derandomize=True)
@given(networks(), st.sampled_from([None, 1, 3]))
def test_flooding_matches_oracle(net, max_rounds):
    _, graph, samples, _ = net
    assert_same_flooding(diffusion.run_pf(graph, samples, max_rounds=max_rounds),
                         oracle.run_pf(graph, samples, max_rounds=max_rounds))
    res = diffusion.run_mf(graph, samples, max_rounds=max_rounds)
    every_round = range(res.rounds_run + 3)  # two rounds past the end give the final knowledge
    assert_same_flooding(res, oracle.run_mf(graph, samples, max_rounds=max_rounds, snapshot_rounds=every_round))


@settings(max_examples=EXAMPLES, deadline=None, derandomize=True)
@given(networks(), st.sampled_from([None, 0, 1, 4]))
def test_tas_matches_oracle(net, rounds):
    _, graph, samples, signs = net
    res, sent = run_recording(diffusion.run_tas, graph, samples, signs, rounds)
    assert sorted(res.row_counts) == list(range(res.rounds_run + 1))
    assert_same_tas(res, sent, oracle.run_tas(graph, samples, signs, rounds=rounds,
                                              snapshot_rounds=range(res.rounds_run + 1)), samples, signs)


@settings(max_examples=EXAMPLES, deadline=None, derandomize=True)
@given(networks(), st.none() | st.integers(0, 4))
def test_tree_schedules_match_oracle(net, binary_depth):
    seed, graph, samples, signs = net
    if binary_depth is None:
        tree = spanning_tree(graph)
    else:
        tree = complete_binary_tree(binary_depth)
        positions = substream(seed, "positions").uniform(0, 1, size=(tree.n_nodes, 2))
        samples, signs = data_for(positions, seed, samples.n_p, signs.m)
    assert_same_flooding(diffusion.run_mf_tree(tree, samples), oracle.run_mf_tree(tree, samples))
    res, sent = run_recording(diffusion.run_tas_tree, tree, samples, signs)
    assert_same_tas(res, sent, oracle.run_tas_tree(tree, samples, signs), samples, signs)
    assert_prefix_wrapups(res)


@settings(max_examples=EXAMPLES, deadline=None, derandomize=True)
@given(networks(), st.sampled_from(["one", "quarter", "all"]))
def test_clustered_schedules_match_oracle(net, size):
    seed, graph, samples, signs = net
    n = graph.n_nodes
    n_clusters = {"one": 1, "quarter": max(1, n // 4), "all": n}[size]
    topo = clustered(n, n_clusters, substream(seed, "clusters"))
    assert_same_flooding(diffusion.run_mf_clustered(topo, samples), oracle.run_mf_clustered(topo, samples))
    res, sent = run_recording(diffusion.run_tas_clustered, topo, samples, signs)
    assert sorted(res.row_counts) == [1, 2, 3]
    assert_same_tas(res, sent, oracle.run_tas_clustered(topo, samples, signs), samples, signs)
    assert_prefix_wrapups(res)


def counting_wrapups(mp) -> list:
    """Make diffusion's tas_wrapup append (table owner, n_rows) per call to the list returned."""
    calls = []
    wrapup = diffusion.tas_wrapup

    def counting(table, n_rows=None):
        calls.append((table.owner, n_rows))
        return wrapup(table, n_rows)

    mp.setattr(diffusion, "tas_wrapup", counting)
    return calls


@settings(max_examples=EXAMPLES, deadline=None, derandomize=True)
@given(networks(), st.sampled_from(["tas", "tree", "clustered"]), st.data())
def test_tas_runs_wrap_up_only_what_is_read(net, runner, data):
    seed, graph, samples, signs = net
    n = graph.n_nodes
    if runner == "tas":
        run, ref_run, args = diffusion.run_tas, oracle.run_tas, (graph, samples, signs, 2)
    else:
        topo = spanning_tree(graph) if runner == "tree" else clustered(n, max(1, n // 4), substream(seed, "c"))
        run = diffusion.run_tas_tree if runner == "tree" else diffusion.run_tas_clustered
        ref_run = oracle.run_tas_tree if runner == "tree" else oracle.run_tas_clustered
        args = (topo, samples, signs)
    with pytest.MonkeyPatch.context() as mp:
        calls = counting_wrapups(mp)
        res, sent = run_recording(run, *args)
        assert calls == []  # the run wraps up nothing
        rounds = st.none() | st.sampled_from(sorted(res.row_counts))
        reads = data.draw(st.lists(st.tuples(st.integers(0, n - 1), rounds), min_size=1, max_size=4))
        for k, rnd in reads:
            res.weights(k, rnd)
        # one wrap-up per prefix read, on its first read
        prefixes = [(k, len(res.tables[k].rows) if rnd is None else res.row_counts[rnd][k]) for k, rnd in reads]
        assert calls == list(dict.fromkeys(prefixes))
    assert_same_tas(res, sent, ref_run(*args), samples, signs)


def test_tree_and_cluster_stages():
    graph = random_geometric(40, substream(7, "topology"))
    tree = spanning_tree(graph)
    stages = tree.stages()
    assert len(stages) == 2 * tree.depth
    assert [s.tolist() for s in stages[: tree.depth + 1]] == [
        tree.nodes_at_level(level).tolist() for level in range(tree.depth, -1, -1)
    ]
    assert all((tree.parent == v).any() for s in stages[tree.depth + 1:] for v in s)  # senders with children
    topo = clustered(40, 6, substream(7, "clusters"))
    members, heads, again = topo.stages()
    assert heads.tolist() == again.tolist() == sorted(topo.heads.tolist())
    assert sorted(members.tolist() + heads.tolist()) == list(range(40))
    assert np.all(np.diff(members) > 0)
