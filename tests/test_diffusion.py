"""Diffusion protocols: tag tables, flooding, TAS, consensus, traffic accounting."""

import csv
import functools

import numpy as np
import pytest

from spsnet import diffusion
from spsnet.analysis import (
    traffic_mf_clustered,
    traffic_mf_tree,
    traffic_tas_clustered,
    traffic_tas_tree,
)
from spsnet.diffusion import (
    TagTable,
    TasResult,
    TrafficEvent,
    TrafficLog,
    consensus_weights,
    payload_sizes,
    run_consensus,
    run_mf,
    run_mf_clustered,
    run_mf_tree,
    run_pf,
    run_tas,
    run_tas_clustered,
    run_tas_tree,
    tas_aggregate,
    tas_distill,
    tas_wrapup,
)
from spsnet.diffusion import _complete_message
import diffusion_oracle
import tradeoff_oracle
from tas_oracle import mask, nodes, plus
from weight_rows import knowledge, weight_matrix
from spsnet.model import FieldConfig, NoiseSpec, generate_measurements
from spsnet.rng import substream
from spsnet.sps import (
    AggregateSums,
    batch_aggregate,
    draw_sign_matrix,
    local_aggregate,
    tie_exact_aggregate,
    truncated_aggregate,
)
from spsnet.topology import (
    ClusteredTopology,
    DisconnectedGraphError,
    Graph,
    TreeTopology,
    clustered,
    diameter,
    random_geometric,
    spanning_tree,
)


def make_network(seed, n_nodes, n_p=2, m=4, graph=None):
    cfg = FieldConfig(
        n_p=n_p,
        p_true=np.array([(-0.5) ** k for k in range(n_p)]),
        noise=NoiseSpec(scale=0.1),
    )
    if graph is None:
        graph = random_geometric(n_nodes, substream(seed, "topology"))
    positions = graph.positions
    if positions is None:
        positions = substream(seed, "positions").uniform(0, 1, size=(n_nodes, 2))
    samples = generate_measurements(positions, cfg, substream(seed, "noise"))
    signs = draw_sign_matrix(m, n_nodes, sign_seed=seed)
    return graph, samples, signs


def path_graph(n):
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n - 1):
        adj[i, i + 1] = adj[i + 1, i] = True
    return Graph(adjacency=adj)


def complete_graph(n):
    return Graph(adjacency=~np.eye(n, dtype=bool))


def round_totals(log):
    """Scalars sent per round, from the log's events."""
    out = {}
    for e in log.events:
        out[e.round] = out.get(e.round, 0) + e.scalars
    return out


def final_wrapups(res, samples=None, signs=None):
    """(weights matrix, aggregates built from the weights, completion flags) of
    every node's final wrap-up; the aggregates are None without the data."""
    weights = weight_matrix(res)
    aggs = None if samples is None else [tie_exact_aggregate(samples, signs, c) for c in weights]
    return weights, aggs, (weights == 1.0).all(axis=1)


# ---------------------------------------------------------------------------
# payload sizes and traffic log


def test_payload_sizes_hand_values():
    assert payload_sizes(2, 10) == (3, 50)
    assert payload_sizes(1, 2) == (2, 4)
    assert payload_sizes(3, 20) == (4, 180)
    # per-sum aggregate cost does not depend on m
    per_sum = {payload_sizes(3, m)[1] // m for m in (2, 5, 10, 20)}
    assert per_sum == {9}
    with pytest.raises(ValueError):
        payload_sizes(0, 10)
    with pytest.raises(ValueError):
        payload_sizes(2, 1)


def test_traffic_log_accounting():
    log = TrafficLog("demo", 3)
    log.record(1, 0, 10, tag_bits=3)
    log.record(1, 2, 5)
    log.record(2, 0, 7)
    assert log.total_scalars == 22
    assert np.array_equal(log.per_node_totals, [17, 0, 5])
    assert log.total_through_round(1) == 15
    with pytest.raises(ValueError):
        log.record(1, 0, -1)


def test_traffic_log_csv_format(tmp_path):
    log = TrafficLog("demo", 2)
    log.record(2, 1, 4, tag_bits=2)
    log.record(1, 0, 3)
    log.record(2, 1, 4)
    path = tmp_path / "traffic.csv"
    log.to_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["protocol", "round", "node_id", "scalars_sent", "cumulative_scalars", "tag_bits"]
    assert rows[1] == ["demo", "1", "0", "3", "3", "0"]
    # rows sorted by (round, node); cumulative is the sender's running total
    assert rows[2] == ["demo", "2", "1", "4", "4", "2"]
    assert rows[3] == ["demo", "2", "1", "4", "8", "0"]


def test_traffic_events_are_tuples_with_named_fields():
    log = TrafficLog("demo", 3)
    log.record(1, 0, 10, tag_bits=3)
    log.record(np.int64(2), np.int64(2), np.int64(5))
    first, second = log.events
    assert TrafficEvent._fields == ("round", "node", "scalars", "tag_bits")
    assert (first.round, first.node, first.scalars, first.tag_bits) == (1, 0, 10, 3)
    assert first == TrafficEvent(1, 0, 10, 3) == (1, 0, 10, 3)
    assert second == TrafficEvent(round=2, node=2, scalars=5, tag_bits=0)
    assert all(type(v) is int for v in second)


def test_traffic_per_node_totals_is_a_copy():
    log = TrafficLog("demo", 2)
    log.record(1, 1, 4)
    totals = log.per_node_totals
    assert totals.dtype == np.int64
    totals[1] = 99
    totals[0] = 7
    assert np.array_equal(log.per_node_totals, [0, 4])
    assert log.total_scalars == 4
    with pytest.raises(ValueError):
        log.record(1, 0, 2, tag_bits=-1)
    with pytest.raises(ValueError):
        log.record(1, 0, -2)
    assert len(log.events) == 1 and log.total_scalars == 4


def test_traffic_log_csv_text(tmp_path):
    log = TrafficLog("tas", 3)
    log.record(1, 2, 18, tag_bits=3)
    log.record(0, 1, 18, tag_bits=3)
    log.record(1, 1, 18)
    log.record(0, 2, 9)
    path = tmp_path / "traffic.csv"
    log.to_csv(path)
    with open(path, newline="") as fh:
        text = fh.read()
    assert text == (
        "protocol,round,node_id,scalars_sent,cumulative_scalars,tag_bits\r\n"
        "tas,0,1,18,18,3\r\n"
        "tas,0,2,9,9,0\r\n"
        "tas,1,1,18,36,0\r\n"
        "tas,1,2,18,27,3\r\n"
    )


# ---------------------------------------------------------------------------
# tag tables


def test_tag_table_basics():
    table = TagTable(owner=2, n_nodes=5)
    assert table.rows[0].tag == mask(2)
    table.append(mask(0, 1))
    assert diffusion._cover(table.rows) == (mask(0, 1, 2), True)
    mat = diffusion._unpack([r.tag for r in table.rows], table.n_nodes)
    assert mat.shape == (2, 5)
    assert np.array_equal(mat[0], [0, 0, 1, 0, 0])
    assert np.array_equal(mat[1], [1, 1, 0, 0, 0])
    with pytest.raises(ValueError):
        table.append(0)
    with pytest.raises(ValueError):
        table.append(mask(0, 1))  # duplicate tag
    with pytest.raises(ValueError):
        table.append(mask(9))
    with pytest.raises(ValueError):
        TagTable(owner=7, n_nodes=5)


def test_distill_subtracts_known_rows():
    table = TagTable(owner=0, n_nodes=11)
    table.append(mask(1, 6))
    row = tas_distill(table, mask(0, 1, 6, 7, 10))
    assert row is not None
    assert row.tag == mask(7, 10)
    assert len(table.rows) == 3


def test_distill_discards_redundant_messages():
    table = TagTable(owner=0, n_nodes=6)
    table.append(mask(1))
    # residual empty: everything already stored
    assert tas_distill(table, mask(0, 1)) is None
    # residual duplicates an existing tag
    assert tas_distill(table, mask(0, 1)) is None
    assert len(table.rows) == 2


def test_distill_keeps_partial_overlaps_intact():
    table = TagTable(owner=0, n_nodes=6)
    table.append(mask(3, 5))
    row = tas_distill(table, mask(3, 4))
    # no stored tag is a subset, so the message is stored unmodified
    assert row.tag == mask(3, 4)


def test_aggregate_walkthrough_and_restart():
    # seven-row table: {0},{2},{5},{1,6},{3},{4,6},{1,4}
    table = TagTable(owner=0, n_nodes=7)
    for tag in [{2}, {5}, {1, 6}, {3}, {4, 6}, {1, 4}]:
        table.append(mask(*tag))

    # rows 0..4 merge; {4,6} and {1,4} overlap the running tag and are skipped
    assert tas_aggregate(table) == mask(0, 1, 2, 3, 5, 6)
    assert [r.merged for r in table.rows] == [True, True, True, True, True, False, False]

    # second message restarts from the first never-merged row ({4,6}) and
    # re-merges every disjoint row from the top
    assert tas_aggregate(table) == mask(0, 2, 3, 4, 5, 6)
    assert [r.merged for r in table.rows] == [True, True, True, True, True, True, False]

    assert tas_aggregate(table) == mask(0, 1, 2, 3, 4, 5)

    # everything merged: the node falls silent
    assert tas_aggregate(table) is None


def test_complete_message_requires_disjoint_tags():
    table = TagTable(owner=0, n_nodes=4)
    table.append(mask(1, 2))
    assert _complete_message(table) == mask(0, 1, 2)
    assert all(r.merged for r in table.rows)
    overlapping = TagTable(owner=0, n_nodes=4)
    overlapping.append(mask(0, 1))
    with pytest.raises(ValueError):
        _complete_message(overlapping)


def payload_reference(samples, signs, tags):
    """An eager oracle table holding the given tags (the first names its owner
    alone), each row carrying the sum of its nodes' local aggregates, as a TAS
    run would have formed it."""
    def local_sum(tag):
        return functools.reduce(plus, [local_aggregate(samples, i, signs.column(i)) for i in sorted(nodes(tag))])

    first, *rest = tags
    table = diffusion_oracle.PayloadTable(first.bit_length() - 1, len(samples), local_sum(first))
    for tag in rest:
        table.append(tag, local_sum(tag))
    return table


def test_wrapup_disjoint_covering_table():
    _, samples, signs = make_network(60, 4, graph=complete_graph(4))
    table = TagTable(owner=0, n_nodes=4)
    table.append(mask(1))
    table.append(mask(2, 3))
    weights = tas_wrapup(table)
    assert (weights == 1.0).all()
    assert tie_exact_aggregate(samples, signs, weights).allclose(batch_aggregate(samples, signs))


def test_wrapup_overlapping_rows_uses_lp():
    _, samples, signs = make_network(61, 4, graph=complete_graph(4))
    tags = [mask(0), mask(1, 2), mask(2, 3)]
    table = TagTable(owner=0, n_nodes=4)
    for tag in tags[1:]:
        table.append(tag)
    c = tas_wrapup(table)
    assert c[0] == 1.0
    assert c[2] == pytest.approx(1.0, abs=1e-9)
    assert c[1] + c[3] == pytest.approx(1.0, abs=1e-9)
    assert np.all((c >= 0.0) & (c <= 1.0))
    # the payload sum the eager wrap-up forms is the c-weighted data combination
    ref_weights, ref_agg = diffusion_oracle.tas_wrapup(payload_reference(samples, signs, tags))
    assert np.array_equal(ref_weights.c, c)
    assert ref_agg.allclose(tie_exact_aggregate(samples, signs, c))


def test_wrapup_local_only_table():
    _, samples, signs = make_network(62, 3, graph=complete_graph(3))
    weights = tas_wrapup(TagTable(owner=1, n_nodes=3))
    assert np.array_equal(weights, [0.0, 1.0, 0.0])
    # a one-hot weight vector gives node 1's local aggregate exactly
    assert same_aggregate(tie_exact_aggregate(samples, signs, weights), local_aggregate(samples, 1, signs.column(1)))


def count_lp_calls(monkeypatch) -> list:
    """Make diffusion's solve_lp append one entry per call to the list returned."""
    calls = []
    solve = diffusion.solve_lp

    def counting(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(diffusion, "solve_lp", counting)
    return calls


def same_aggregate(a, b) -> bool:
    return np.array_equal(a.vec, b.vec) and np.array_equal(a.mat, b.mat)


def overlapping_table(n_nodes):
    table = TagTable(owner=0, n_nodes=n_nodes)
    table.append(mask(1, 2))
    table.append(mask(2, 3))
    return table


def test_wrapup_weights_clamping(monkeypatch):
    """Weights within 1e-9 of [0, 1] are snapped into it; further out raises."""
    table = overlapping_table(4)  # rows {0}, {1, 2}, {2, 3}
    for b, expected in (([1.0 + 5e-10, 1.0, 0.0], [1.0, 1.0, 1.0, 0.0]),
                        ([1.0, 1.0, -5e-10], [1.0, 1.0, 1.0, 0.0]),
                        ([1.0, 0.5, 0.5], [1.0, 0.5, 1.0, 0.5])):
        monkeypatch.setattr(diffusion, "solve_lp", lambda problem, b=b: (np.array(b), None))
        assert np.array_equal(tas_wrapup(table), expected)
    for b in ([1.0, 1.1, 0.0], [1.0, -0.01, 0.0]):
        monkeypatch.setattr(diffusion, "solve_lp", lambda problem, b=b: (np.array(b), None))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            tas_wrapup(table)


def growing_result():
    """A one-table TAS result whose overlapping table has 1, 3 and 3 rows as
    rounds 0, 1 and 2 send, and a fourth row at the end."""
    table = overlapping_table(5)
    res = TasResult([table], TrafficLog("tas", 1), 2, {0: [1], 1: [3], 2: [3]})
    assert tas_distill(table, mask(0, 3, 4)) is not None
    return res


def test_wrapup_reuses_lp_solution_while_tags_are_unchanged(monkeypatch):
    calls = count_lp_calls(monkeypatch)
    res = growing_result()
    assert np.array_equal(res.weights(0, 0), [1.0, 0.0, 0.0, 0.0, 0.0])  # one row: no LP
    assert len(calls) == 0
    w1 = res.weights(0, 1)
    assert len(calls) == 1
    assert res.weights(0, 1) is w1  # a second read of (k, r) solves no LP
    assert res.weights(0, 2) is w1  # nor does a round in which the table did not grow
    assert len(calls) == 1
    w_end = res.weights(0)  # the row distilled later changes the tag matrix
    assert len(calls) == 2 and w_end[4] == 1.0
    # a message with nothing new leaves the table, and the memo, as they were
    assert tas_distill(res.tables[0], mask(1, 2)) is None
    assert res.weights(0) is w_end
    assert len(calls) == 2


def test_wrapup_from_reused_solution_equals_fresh_table():
    res = growing_result()
    table = res.tables[0]
    for rnd in (1, 2, None):
        c = res.weights(0, rnd)
        assert not c.flags.writeable
        with pytest.raises(ValueError):
            c[0] = 0.5
        fresh = TagTable(owner=0, n_nodes=5)
        n_rows = len(table.rows) if rnd is None else res.row_counts[rnd][0]
        for row in table.rows[1:n_rows]:
            fresh.append(row.tag)
        assert c.tobytes() == tas_wrapup(fresh).tobytes()


def test_tas_snapshots_with_reused_solutions_equal_uncached_run(monkeypatch):
    graph, samples, signs = make_network(113, 16, m=3)
    rounds = diameter(graph) + 3  # the last rounds leave most tables unchanged
    res = run_tas(graph, samples, signs, rounds=rounds)
    reads = [(k, rnd) for rnd in [*range(rounds + 1), None] for k in range(16)]

    calls = count_lp_calls(monkeypatch)
    memoised = [res.weights(k, rnd) for k, rnd in reads]
    memo_calls = len(calls)
    again = [res.weights(k, rnd) for k, rnd in reads]
    assert len(calls) == memo_calls
    fresh = [tas_wrapup(res.tables[k], None if rnd is None else res.row_counts[rnd][k]) for k, rnd in reads]
    assert 0 < memo_calls < len(calls) - memo_calls
    for c, c_again, c_fresh in zip(memoised, again, fresh, strict=True):
        assert c is c_again
        assert c.tobytes() == c_fresh.tobytes()


# ---------------------------------------------------------------------------
# plain and modified flooding


def test_pf_complete_graph_trace():
    graph, samples, signs = make_network(70, 5, graph=complete_graph(5))
    d_rec, _ = payload_sizes(2, 2)
    res = run_pf(graph, samples)
    assert res.completion_round == 1
    assert res.rounds_run == 2  # one extra round to observe no growth
    # round 1: 5 own records; round 2: everyone rebroadcasts all 5
    assert round_totals(res.traffic) == {1: 5 * d_rec, 2: 25 * d_rec}
    assert knowledge(res).all()


def test_pf_path_trace():
    graph, samples, signs = make_network(71, 3, graph=path_graph(3))
    d_rec, _ = payload_sizes(2, 2)
    res = run_pf(graph, samples)
    assert res.completion_round == 2
    assert res.traffic.total_scalars == 19 * d_rec
    assert round_totals(res.traffic) == {1: 3 * d_rec, 2: 7 * d_rec, 3: 9 * d_rec}


def test_mf_complete_graph_trace():
    graph, samples, signs = make_network(72, 5, graph=complete_graph(5))
    d_rec, _ = payload_sizes(2, 2)
    res = run_mf(graph, samples)
    assert res.completion_round == 1
    assert res.traffic.total_scalars == 25 * d_rec
    assert round_totals(res.traffic) == {1: 5 * d_rec, 2: 20 * d_rec}
    assert knowledge(res).all()
    # every node sent each of the 5 records once
    assert np.array_equal(res.traffic.per_node_totals, [5 * d_rec] * 5)


def test_mf_path_trace():
    graph, samples, signs = make_network(73, 3, graph=path_graph(3))
    d_rec, _ = payload_sizes(2, 2)
    res = run_mf(graph, samples)
    assert res.completion_round == 2
    assert res.traffic.total_scalars == 9 * d_rec


def test_mf_single_node():
    graph = Graph(adjacency=np.zeros((1, 1), dtype=bool))
    _, samples, signs = make_network(74, 1, graph=graph)
    d_rec, _ = payload_sizes(2, 2)
    res = run_mf(graph, samples)
    assert res.rounds_run == 1
    assert res.traffic.total_scalars == d_rec


def test_mf_never_retransmits():
    d_rec, _ = payload_sizes(2, 2)
    for i in range(5):
        graph, samples, signs = make_network(75 + i, 15)
        res = run_mf(graph, samples)
        assert knowledge(res).all()
        # each node pays for every distinct record it sent exactly once: a
        # run to quiescence sends every record it knows, so all 15
        sent = np.zeros(15, dtype=int)
        for e in res.traffic.events:
            sent[e.node] += e.tag_bits // 15
        assert np.array_equal(sent, [15] * 15)
        assert np.array_equal(res.traffic.per_node_totals, sent * d_rec)


def test_pf_dominates_mf_and_both_complete_at_diameter():
    for i in range(5):
        graph, samples, signs = make_network(80 + i, 14)
        pf = run_pf(graph, samples)
        mf = run_mf(graph, samples)
        d = diameter(graph)
        assert pf.completion_round == d
        assert mf.completion_round == d
        assert pf.traffic.total_scalars >= mf.traffic.total_scalars
        assert np.all(pf.traffic.per_node_totals >= mf.traffic.per_node_totals)


def test_mf_snapshots_and_arrival_rounds():
    graph, samples, signs = make_network(85, 12)
    res = run_mf(graph, samples)
    assert np.array_equal(weight_matrix(res, 0), np.eye(12))
    prev = knowledge(res, 0)
    for r in range(1, res.rounds_run + 1):
        cur = knowledge(res, r)
        assert np.all(prev <= cur)  # knowledge only grows
        assert cur.all() == (res.completion_round is not None and r >= res.completion_round)
        prev = cur
    assert np.array_equal(prev, knowledge(res))
    # rounds past quiescence give the final state
    assert np.array_equal(knowledge(res, 19), knowledge(res))
    assert (res.weights(3) == 1.0).all()
    with pytest.raises(ValueError):
        res.weights(3, -1)


def test_mf_tree_hand_traces():
    _, samples, signs = make_network(86, 3, graph=path_graph(3))
    d_rec, _ = payload_sizes(2, 2)
    chain = TreeTopology(parent=np.array([-1, 0, 1]))  # path rooted at one end
    res = run_mf_tree(chain, samples)
    assert res.traffic.total_scalars == 7 * d_rec
    assert knowledge(res).all()

    _, samples4, _ = make_network(87, 4, graph=complete_graph(4))
    tree = TreeTopology(parent=np.array([-1, 0, 0, 1]))
    res4 = run_mf_tree(tree, samples4)
    assert res4.traffic.total_scalars == 10 * d_rec
    assert knowledge(res4).all()
    assert res4.traffic.total_scalars == traffic_mf_tree(
        tree.level_counts, tree.childless_counts, 2, 2
    )


def test_mf_tree_matches_census_formula():
    for i in range(8):
        graph, samples, signs = make_network(90 + i, 30)
        tree = spanning_tree(graph)
        res = run_mf_tree(tree, samples)
        assert knowledge(res).all()
        expected = traffic_mf_tree(tree.level_counts, tree.childless_counts, 2, 2)
        assert res.traffic.total_scalars == expected


def test_mf_clustered_matches_formula():
    topo = clustered(20, 4, substream(95, "clusters"))
    _, samples, signs = make_network(95, 20, graph=topo.graph())
    res = run_mf_clustered(topo, samples)
    assert knowledge(res).all()
    assert res.completion_round == 3
    assert res.traffic.total_scalars == traffic_mf_clustered(20, 4, 2, 2)


def test_mf_clustered_reports_the_round_knowledge_completes():
    # with one cluster, or one node per cluster, every record has arrived after
    # stage 2; stage 3 still runs, but completion is not moved to it
    for n_clusters in (1, 20):
        topo = clustered(20, n_clusters, substream(95, "clusters"))
        _, samples, _ = make_network(95, 20, graph=topo.graph())
        res = run_mf_clustered(topo, samples)
        assert knowledge(res).all() and res.rounds_run == 3
        assert knowledge(res, 2).all() and not knowledge(res, 1).all()  # the last record arrives at 2
        assert res.completion_round == 2


# ---------------------------------------------------------------------------
# tagged aggregate sums


def test_tas_complete_graph_single_round():
    graph, samples, signs = make_network(100, 6, m=5, graph=complete_graph(6))
    res = run_tas(graph, samples, signs)  # diameter 1
    assert res.rounds_run == 1
    weights, aggs, complete = final_wrapups(res, samples, signs)
    assert complete.all()
    assert np.all(weights == 1.0)
    full = batch_aggregate(samples, signs)
    for k in range(6):
        assert aggs[k].allclose(full)
        # table holds the six one-hot rows
        assert len(res.tables[k].rows) == 6
    _, d_agg = payload_sizes(2, 5)
    # round 0 initialization plus one transmission per node
    assert res.traffic.total_scalars == 12 * d_agg


def test_tas_single_node_zero_rounds():
    graph = Graph(adjacency=np.zeros((1, 1), dtype=bool))
    _, samples, signs = make_network(101, 1, graph=graph)
    res = run_tas(graph, samples, signs)
    assert res.rounds_run == 0
    assert np.array_equal(final_wrapups(res)[0], [[1.0]])
    _, d_agg = payload_sizes(2, 4)
    assert res.traffic.total_scalars == d_agg


def test_tas_tag_sum_consistency():
    # in the eager run that carries payloads, every stored row's payload is the
    # sum of its tagged locals, so the tags the package keeps say it all
    graph, samples, signs = make_network(102, 12, m=3)
    locals_ = [local_aggregate(samples, i, signs.column(i)) for i in range(12)]
    rounds = diameter(graph) + 1
    res = run_tas(graph, samples, signs, rounds=rounds)
    eager = diffusion_oracle.run_tas(graph, samples, signs, rounds=rounds)
    for table, eager_table in zip(res.tables, eager.tables, strict=True):
        assert [row.tag for row in table.rows] == [row.tag for row in eager_table.rows]
        for row in eager_table.rows:
            expected = functools.reduce(plus, [locals_[i] for i in sorted(nodes(row.tag))])
            assert row.payload.allclose(expected, rtol=1e-9, atol=1e-12)


def test_tas_diameter_rounds_full_sum_or_valid_partial():
    full_checked = 0
    for i in range(4):
        graph, samples, signs = make_network(105 + i, 13, m=4)
        res = run_tas(graph, samples, signs)  # rounds = diameter
        full = batch_aggregate(samples, signs)
        weights, aggs, complete = final_wrapups(res, samples, signs)
        assert np.all((weights >= 0.0) & (weights <= 1.0))
        for k in range(13):
            if complete[k]:
                assert aggs[k].allclose(full)
                full_checked += 1
            else:
                assert weights[k].min() < 1.0
    assert full_checked > 0  # at least some nodes finish on these graphs


def test_tas_every_transmission_costs_one_aggregate():
    graph, samples, signs = make_network(109, 10, m=6)
    _, d_agg = payload_sizes(2, 6)
    res = run_tas(graph, samples, signs, rounds=3)
    for e in res.traffic.events:
        assert e.scalars == d_agg
        assert e.tag_bits == 10


def test_tas_snapshots_wrap_up_requested_nodes():
    graph, samples, signs = make_network(110, 9, m=3)
    rounds = diameter(graph)
    res = run_tas(graph, samples, signs, rounds=rounds)
    w0 = res.weights(2, 0)
    assert np.array_equal(w0, np.eye(9)[2])  # before any exchange
    assert same_aggregate(tie_exact_aggregate(samples, signs, w0), local_aggregate(samples, 2, signs.column(2)))
    # the last round is sent but never delivered: its view is the final table
    for k in (2, 5):
        assert np.array_equal(res.weights(k, rounds), res.weights(k))


def test_tas_wrapup_rejects_unknown_nodes_and_rounds():
    graph, samples, signs = make_network(110, 9, m=3)
    res = run_tas(graph, samples, signs, rounds=1)
    for k in (9, -1, 12):
        with pytest.raises(ValueError, match="not in the network"):
            res.weights(k)
    for rnd in (-1, 2):
        with pytest.raises(ValueError, match="was not run"):
            res.weights(2, rnd)
    tree = run_tas_tree(TreeTopology(parent=np.array([-1, 0, 0])), *make_network(110, 3)[1:])
    with pytest.raises(ValueError, match="was not run"):
        tree.weights(0, 0)  # scheduled rounds start at 1


def test_tas_tree_hand_trace_and_formula():
    _, samples, signs = make_network(111, 4, graph=complete_graph(4))
    tree = TreeTopology(parent=np.array([-1, 0, 0, 1]))
    _, d_agg = payload_sizes(2, 4)
    res = run_tas_tree(tree, samples, signs)
    assert res.traffic.total_scalars == 5 * d_agg
    _, aggs, complete = final_wrapups(res, samples, signs)
    assert complete.all()
    full = batch_aggregate(samples, signs)
    for k in range(4):
        assert aggs[k].allclose(full)

    single = TreeTopology(parent=np.array([-1]))
    _, s1, g1 = make_network(112, 1, graph=Graph(adjacency=np.zeros((1, 1), dtype=bool)))
    res1 = run_tas_tree(single, s1, g1)
    assert res1.traffic.total_scalars == payload_sizes(2, 4)[1]
    assert np.array_equal(final_wrapups(res1)[0], [[1.0]])


def test_tas_tree_matches_census_formula():
    for i in range(8):
        graph, samples, signs = make_network(115 + i, 30, m=5)
        tree = spanning_tree(graph)
        res = run_tas_tree(tree, samples, signs)
        _, aggs, complete = final_wrapups(res, samples, signs)
        assert complete.all()
        expected = traffic_tas_tree(tree.level_counts, tree.childless_counts, 2, 5)
        assert res.traffic.total_scalars == expected
        full = batch_aggregate(samples, signs)
        for k in range(30):
            assert aggs[k].allclose(full)


def test_tas_clustered_formula_and_exactness():
    topo = clustered(10, 2, substream(120, "clusters"))
    _, samples, signs = make_network(120, 10, m=3, graph=topo.graph())
    _, d_agg = payload_sizes(2, 3)
    res = run_tas_clustered(topo, samples, signs)
    assert res.traffic.total_scalars == 12 * d_agg
    assert res.traffic.total_scalars == traffic_tas_clustered(10, 2, 2, 3)
    _, aggs, complete = final_wrapups(res, samples, signs)
    assert complete.all()
    full = batch_aggregate(samples, signs)
    for k in range(10):
        assert aggs[k].allclose(full)


def test_tas_clustered_single_cluster():
    topo = clustered(7, 1, substream(121, "clusters"))
    _, samples, signs = make_network(121, 7, m=3, graph=topo.graph())
    res = run_tas_clustered(topo, samples, signs)
    # the final head broadcast repeats the mesh one but is still sent
    assert res.traffic.total_scalars == traffic_tas_clustered(7, 1, 2, 3)
    assert final_wrapups(res)[2].all()


def counting_payloads(mp) -> list:
    """Make every ``AggregateSums`` construction append a name to the list
    returned."""
    calls = []
    post_init = AggregateSums.__post_init__
    mp.setattr(AggregateSums, "__post_init__", lambda self: calls.append("AggregateSums") or post_init(self))
    return calls


def test_scheduled_tas_runs_form_no_payload_until_a_wrapup_is_read():
    graph, samples, signs = make_network(130, 200, m=5)
    tree = spanning_tree(graph)
    topo = clustered(140, 20, substream(131, "clusters"))
    _, c_samples, c_signs = make_network(131, 140, m=5, graph=topo.graph())
    with pytest.MonkeyPatch.context() as mp:
        calls = counting_payloads(mp)
        res = run_tas_tree(tree, samples, signs)
        c_res = run_tas_clustered(topo, c_samples, c_signs)
        assert res.traffic.total_scalars == traffic_tas_tree(tree.level_counts, tree.childless_counts, 2, 5)
        assert c_res.traffic.total_scalars == traffic_tas_clustered(140, 20, 2, 5)
        weights = res.weights(0)
        assert (weights == 1.0).all() and (c_res.weights(7) == 1.0).all()
        assert calls == []  # neither the runs nor their wrap-ups form a payload
    assert tie_exact_aggregate(samples, signs, weights).allclose(batch_aggregate(samples, signs))


# ---------------------------------------------------------------------------
# consensus


def test_metropolis_weights_equal_the_edge_loop():
    for n in (2, 5, 20, 60):
        for seed in range(5):
            graph = random_geometric(n, substream(seed, "metropolis", n))
            deg = graph.degrees.astype(float)
            ref = np.zeros((n, n))
            for i in range(n):
                for j in graph.neighbors(i):
                    ref[i, j] = 1.0 / (1.0 + max(deg[i], deg[j]))
            np.fill_diagonal(ref, 1.0 - ref.sum(axis=1))
            assert consensus_weights(graph, "metropolis").tobytes() == ref.tobytes()


def test_metropolis_weights_on_path():
    w = consensus_weights(path_graph(3), "metropolis")
    expected = np.array([
        [2 / 3, 1 / 3, 0.0],
        [1 / 3, 1 / 3, 1 / 3],
        [0.0, 1 / 3, 2 / 3],
    ])
    assert np.allclose(w, expected, atol=1e-12)


def test_perron_weights_on_complete_graph():
    for n in (4, 7):
        w = consensus_weights(complete_graph(n), "perron")
        assert np.allclose(w, np.full((n, n), 1.0 / n), atol=1e-12)


def test_consensus_weights_properties():
    graph, _, _ = make_network(130, 15)
    for scheme in ("metropolis", "perron"):
        w = consensus_weights(graph, scheme)
        assert np.allclose(w.sum(axis=0), 1.0, atol=1e-12)
        assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)
        assert np.allclose(w, w.T, atol=1e-12)
        deviation = w - np.full((15, 15), 1.0 / 15)
        slem = np.max(np.abs(np.linalg.eigvalsh(deviation)))
        assert slem < 1.0
    with pytest.raises(ValueError):
        consensus_weights(graph, "uniform")
    with pytest.raises(DisconnectedGraphError):
        consensus_weights(Graph(adjacency=np.zeros((3, 3), dtype=bool)), "metropolis")


def test_consensus_initial_state_and_traffic():
    graph, samples, signs = make_network(131, 8, m=3)
    res = run_consensus(graph, samples, signs, iterations=0)
    assert np.array_equal(weight_matrix(res), 8.0 * np.eye(8))
    for k in range(8):
        local = local_aggregate(samples, k, signs.column(k))
        state = tie_exact_aggregate(samples, signs, res.weights(k))
        assert np.array_equal(state.vec, 8.0 * local.vec) and np.array_equal(state.mat, 8.0 * local.mat)
    assert res.traffic.total_scalars == 0
    _, d_agg = payload_sizes(2, 3)
    res5 = run_consensus(graph, samples, signs, iterations=5)
    assert res5.traffic.total_scalars == 5 * 8 * d_agg
    with pytest.raises(ValueError):
        run_consensus(graph, samples, signs, iterations=-1)


def test_consensus_converges_to_full_sum():
    graph, samples, signs = make_network(132, 20, m=4)
    w = consensus_weights(graph, "metropolis")
    deviation = w - np.full((20, 20), 1.0 / 20)
    slem = np.max(np.abs(np.linalg.eigvalsh(deviation)))
    t = int(np.ceil(np.log(1e-8) / np.log(slem)))
    res = run_consensus(graph, samples, signs, iterations=t)
    full = batch_aggregate(samples, signs)
    scale = max(np.abs(full.vec).max(), np.abs(full.mat).max())
    for k in range(20):
        state = tie_exact_aggregate(samples, signs, res.weights(k))
        err = max(np.abs(state.vec - full.vec).max(), np.abs(state.mat - full.mat).max())
        assert err / scale < 1e-6


def test_consensus_state_equals_effective_weight_aggregate():
    """The states an eager run steps through the data are the aggregates the
    weights N * W^t imply, whichever builder forms them."""
    graph, samples, signs = make_network(133, 10, m=3)
    res = run_consensus(graph, samples, signs, iterations=6, scheme="perron")
    eager = tradeoff_oracle.eager_consensus(graph, samples, signs, 6, "perron", snapshot_iters=(2, 6))
    for t in (2, 6):
        for k in range(10):
            for build in (truncated_aggregate, tie_exact_aggregate):
                assert eager.state(k, t).allclose(build(samples, signs, res.weights(k, t)), rtol=1e-9, atol=1e-9)
