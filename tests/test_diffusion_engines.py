"""Property test: the schedule-driven engines against the old per-runner loops.

Every traffic integer, weight and aggregate the benchmark checks comes out of
these seven runners, so each must log the same events in the same order and
end with the same state as its oracle in ``diffusion_oracle``: knowledge,
transmitted rows, arrival rounds, round counts and snapshots for flooding;
every tag table row (tag, merged flag, payload bits), weights, aggregates,
completion flags and snapshots for TAS. Cases cover random geometric graphs
of 2 to 60 nodes, their spanning trees, complete binary trees and clustered
deployments with one cluster, N/4 clusters and one node per cluster.

Two things differ from the oracles on purpose. Every MF result reports as
``completion_round`` the first round after which all nodes know every record,
also on the tree and clustered schedules (the oracles report the last
stage there). And a TAS result wraps up its tables on the first read of
``weights``, ``aggregates`` or ``complete``, not before it returns.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import diffusion_oracle as oracle  # noqa: E402
from spsnet import diffusion  # noqa: E402
from spsnet.model import FieldConfig, NoiseSpec, generate_measurements  # noqa: E402
from spsnet.rng import substream  # noqa: E402
from spsnet.sps import draw_sign_matrix  # noqa: E402
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


def same_agg(a, b):
    if a is None or b is None:
        return a is b
    return np.array_equal(a.vec, b.vec) and np.array_equal(a.mat, b.mat)


def assert_same_flooding(res, ref):
    assert_same_log(res.traffic, ref.traffic)
    assert np.array_equal(res.known, ref.known)
    assert res.rounds_run == ref.rounds_run
    if isinstance(ref, oracle.PfResult):
        assert res.completion_round == ref.full_knowledge_round
        return
    assert np.array_equal(res.transmitted, ref.transmitted)
    assert np.array_equal(res.arrival_round, ref.arrival_round)
    # with equal arrival rounds this also equals run_mf's oracle
    assert res.completion_round == (int(res.arrival_round.max()) if res.known.all() else None)
    assert res.snapshots.keys() == ref.snapshots.keys()
    assert all(np.array_equal(res.snapshots[r], ref.snapshots[r]) for r in ref.snapshots)


def assert_same_tas(res, ref):
    assert_same_log(res.traffic, ref.traffic)
    assert res.rounds_run == ref.rounds_run
    for table, ref_table in zip(res.tables, ref.tables, strict=True):
        assert [(r.tag, r.merged) for r in table.rows] == [(r.tag, r.merged) for r in ref_table.rows]
        assert all(same_agg(r.payload, q.payload) for r, q in zip(table.rows, ref_table.rows))
    assert np.array_equal(res.weights, ref.weights)
    assert np.array_equal(res.complete, ref.complete)
    assert all(same_agg(a, b) for a, b in zip(res.aggregates, ref.aggregates, strict=True))
    assert res.snapshots.keys() == ref.snapshots.keys()
    for r, (weights, aggs) in ref.snapshots.items():
        assert np.array_equal(res.snapshots[r][0], weights)
        assert all(same_agg(a, b) for a, b in zip(res.snapshots[r][1], aggs, strict=True))


@settings(max_examples=EXAMPLES, deadline=None, derandomize=True)
@given(networks(), st.sampled_from([None, 1, 3]), st.sets(st.integers(0, 8), max_size=4))
def test_flooding_matches_oracle(net, max_rounds, snapshot_rounds):
    _, graph, samples, _ = net
    assert_same_flooding(diffusion.run_pf(graph, samples, max_rounds=max_rounds),
                         oracle.run_pf(graph, samples, max_rounds=max_rounds))
    assert_same_flooding(
        diffusion.run_mf(graph, samples, max_rounds=max_rounds, snapshot_rounds=snapshot_rounds),
        oracle.run_mf(graph, samples, max_rounds=max_rounds, snapshot_rounds=snapshot_rounds),
    )


@settings(max_examples=EXAMPLES, deadline=None, derandomize=True)
@given(networks(), st.sampled_from([None, 0, 1, 4]), st.sets(st.integers(0, 5), max_size=3), st.data())
def test_tas_matches_oracle(net, rounds, snapshot_rounds, data):
    _, graph, samples, signs = net
    n = graph.n_nodes
    wrapup_nodes = data.draw(st.none() | st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
    kwargs = dict(rounds=rounds, snapshot_rounds=snapshot_rounds, wrapup_nodes=wrapup_nodes)
    assert_same_tas(diffusion.run_tas(graph, samples, signs, **kwargs),
                    oracle.run_tas(graph, samples, signs, **kwargs))


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
    assert_same_tas(diffusion.run_tas_tree(tree, samples, signs), oracle.run_tas_tree(tree, samples, signs))


@settings(max_examples=EXAMPLES, deadline=None, derandomize=True)
@given(networks(), st.sampled_from(["one", "quarter", "all"]))
def test_clustered_schedules_match_oracle(net, size):
    seed, graph, samples, signs = net
    n = graph.n_nodes
    n_clusters = {"one": 1, "quarter": max(1, n // 4), "all": n}[size]
    topo = clustered(n, n_clusters, substream(seed, "clusters"))
    assert_same_flooding(diffusion.run_mf_clustered(topo, samples), oracle.run_mf_clustered(topo, samples))
    assert_same_tas(diffusion.run_tas_clustered(topo, samples, signs),
                    oracle.run_tas_clustered(topo, samples, signs))


def counting_wrapups(mp) -> list:
    """Make diffusion's tas_wrapup append the table owner per call to the list returned."""
    calls = []
    wrapup = diffusion.tas_wrapup

    def counting(table):
        calls.append(table.owner)
        return wrapup(table)

    mp.setattr(diffusion, "tas_wrapup", counting)
    return calls


@settings(max_examples=EXAMPLES, deadline=None, derandomize=True)
@given(networks(), st.sampled_from(["tas", "tree", "clustered"]), st.sets(st.integers(0, 3), max_size=2),
       st.sampled_from(["weights", "aggregates", "complete"]), st.data())
def test_tas_wraps_up_once_on_first_read(net, runner, snapshot_rounds, first, data):
    seed, graph, samples, signs = net
    n = graph.n_nodes
    if runner == "tas":
        nodes = data.draw(st.none() | st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
        kwargs = dict(rounds=2, snapshot_rounds=snapshot_rounds, wrapup_nodes=nodes)
        run, ref_run, args = diffusion.run_tas, oracle.run_tas, (graph, samples, signs)
        snapshot_calls = len(snapshot_rounds & {0, 1, 2}) * len(nodes or range(n))
    else:
        nodes, kwargs, snapshot_calls = None, {}, 0
        topo = spanning_tree(graph) if runner == "tree" else clustered(n, max(1, n // 4), substream(seed, "c"))
        run = diffusion.run_tas_tree if runner == "tree" else diffusion.run_tas_clustered
        ref_run = oracle.run_tas_tree if runner == "tree" else oracle.run_tas_clustered
        args = (topo, samples, signs)
    with pytest.MonkeyPatch.context() as mp:
        calls = counting_wrapups(mp)
        res = run(*args, **kwargs)
        assert len(calls) == snapshot_calls  # snapshots only
        del calls[:]
        getattr(res, first)
        assert calls == list(nodes or range(n))
        res.weights, res.aggregates, res.complete
        assert len(calls) == len(nodes or range(n))
    assert_same_tas(res, ref_run(*args, **kwargs))


def test_tree_and_cluster_stages():
    graph = random_geometric(40, substream(7, "topology"))
    tree = spanning_tree(graph)
    stages = tree.stages()
    assert len(stages) == 2 * tree.depth
    assert [s.tolist() for s in stages[: tree.depth + 1]] == [
        tree.nodes_at_level(level).tolist() for level in range(tree.depth, -1, -1)
    ]
    assert all(tree.children(v).size > 0 for s in stages[tree.depth + 1:] for v in s)
    topo = clustered(40, 6, substream(7, "clusters"))
    members, heads, again = topo.stages()
    assert heads.tolist() == again.tolist() == sorted(topo.heads.tolist())
    assert sorted(members.tolist() + heads.tolist()) == list(range(40))
    assert np.all(np.diff(members) > 0)
