"""The trade-off study reads every protocol through the protocol table, node k
at round r, and consensus steps its weights N * W^t only when they are read.

``tradeoff_oracle`` keeps the study's old three read loops and the eager
consensus loop with its snapshots; the package's record and consensus weights
must equal them bit for bit. Its TAS reads come from the eager
payload-carrying runner, and its consensus states are stepped through the
data; both must be close to the aggregates built from the weights.
The study keeps one memo of volumes per seed, so it evaluates fewer regions
than the oracle, which evaluates every read; a read whose region drew tie
keys is evaluated again. Consensus steps only the rows it reads, and a row's
bits do not depend on the rows stepped with it.
The traffic log keeps per-round totals, which must equal a scan of its events.
"""

import csv
import io
import os
import tempfile
from collections import Counter

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import tradeoff_oracle  # noqa: E402
from result_checks import sums_close  # noqa: E402
from spsnet import experiments  # noqa: E402
from spsnet.diffusion import CONSENSUS_SCHEMES, TrafficLog, run_consensus  # noqa: E402
from spsnet.experiments import ExperimentConfig, run_tradeoff  # noqa: E402
from spsnet.model import FieldConfig, NoiseSpec, generate_measurements  # noqa: E402
from spsnet.rng import substream  # noqa: E402
from spsnet.sps import draw_sign_matrix, tie_exact_aggregate  # noqa: E402
from spsnet.topology import random_geometric  # noqa: E402


def tradeoff_config(seed, n_nodes, n_p, m, grid, n_seeds, node_sample, rounds, max_iterations):
    return ExperimentConfig({
        "seed": seed,
        "topology": {"kind": "rgg", "n_nodes": n_nodes},
        "model": {"n_p": n_p},
        "sps": {"m": m, "q": 1},
        "region": {"grid_per_dim": grid},
        "tradeoff": {"n_seeds": n_seeds, "node_sample": node_sample, "rounds": rounds,
                     "max_iterations": max_iterations},
    })


def record_regions(monkeypatch) -> list:
    """Patch the study's ``evaluate_region`` and builders to list (memo key,
    tied) for every region evaluated; the key is None for an aggregate the
    study's builders did not build (the oracle's and the full one)."""
    built = {}  # id of a built aggregate -> (memo key, the aggregate, kept alive so ids stay unique)
    regions = []
    evaluate = experiments.evaluate_region

    def recording(builder):
        def build(samples, signs, c):
            agg = builder(samples, signs, c)
            # the memo is per seed: the aggregate's bits tell the seeds' data apart
            built[id(agg)] = ((builder.__name__, c.tobytes(), agg.vec.tobytes()), agg)
            return agg
        return build

    def counted(agg, *args, **kwargs):
        res = evaluate(agg, *args, **kwargs)
        regions.append((built.get(id(agg), (None,))[0], res.tied))
        return res

    monkeypatch.setattr(experiments, "evaluate_region", counted)
    for name in ("truncated_aggregate", "tie_exact_aggregate"):
        monkeypatch.setattr(experiments, name, recording(getattr(experiments, name)))
    return regions


@pytest.mark.parametrize("seed,n_nodes,n_p,m,grid,n_seeds,node_sample,rounds,max_iterations,mf_lengths_differ", [
    (4, 10, 2, 4, 5, 2, None, None, 17, True),  # seed 0's MF and TAS curves are the shorter ones
    (5, 15, 1, 5, 6, 2, 4, 0, 1, True),
    (7, 10, 3, 4, 4, 2, 3, 2, 40, False),
])
def test_tradeoff_equals_the_three_loop_oracle(seed, n_nodes, n_p, m, grid, n_seeds, node_sample, rounds,
                                               max_iterations, mf_lengths_differ, monkeypatch):
    config = tradeoff_config(seed, n_nodes, n_p, m, grid, n_seeds, node_sample, rounds, max_iterations)
    regions = record_regions(monkeypatch)
    expected, curves, reads = tradeoff_oracle.run_tradeoff(config)
    oracle_regions = len(regions)
    regions.clear()
    # the step extension of shorter curves runs when MF curves differ in length
    assert (len({len(c) for c in curves["mf"]}) > 1) == mf_lengths_differ
    assert run_tradeoff(config).to_json_dict() == expected.to_json_dict()
    assert reads and all(sums_close(agg, eager) for agg, eager in reads)
    assert len(regions) < oracle_regions  # the memo answered some reads


def test_a_weight_vector_whose_region_drew_tie_keys_is_evaluated_again(monkeypatch):
    """On 5 nodes a complete node's all-ones weights can tie. The memo keeps
    no such volume, so a later read of the same c in the seed is evaluated
    with its own tie seed, as the oracle evaluates every read."""
    config = tradeoff_config(1, 5, 2, 6, 4, 2, None, None, 6)
    regions = record_regions(monkeypatch)
    expected, _, _ = tradeoff_oracle.run_tradeoff(config)
    regions.clear()
    assert run_tradeoff(config).to_json_dict() == expected.to_json_dict()
    tied = Counter(key for key, drew in regions if drew and key is not None)
    assert max(tied.values()) > 1


def consensus_case(seed, n_nodes, n_p=2, m=3):
    graph = random_geometric(n_nodes, substream(seed, "t"))
    fc = FieldConfig(n_p=n_p, p_true=np.ones(n_p), noise=NoiseSpec(scale=0.1))
    samples = generate_measurements(graph.positions, fc, substream(seed, "n"))
    return graph, samples, draw_sign_matrix(m, n_nodes, seed)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(2, 8), st.integers(0, 9), st.sampled_from(CONSENSUS_SCHEMES),
       st.data())
def test_consensus_weights_equal_the_eager_loop_in_any_read_order(seed, n_nodes, iterations, scheme, data):
    """Weights equal the eager W^t bit for bit; the aggregates they build are
    close to the states the eager loop steps through the data."""
    graph, samples, signs = consensus_case(seed, n_nodes)
    eager = tradeoff_oracle.eager_consensus(graph, samples, signs, iterations, scheme,
                                            snapshot_iters=range(iterations + 1))
    res = run_consensus(graph, samples, signs, iterations, scheme)
    reads = [(t, k) for t in range(iterations + 1) for k in range(n_nodes)]
    reads = data.draw(st.permutations(reads)) + [(iterations, 0), (0, n_nodes - 1), (None, 1)]
    for t, k in reads:
        got = res.weights(k, t)
        assert np.array_equal(got, eager.weights(t)[k])
        assert sums_close(tie_exact_aggregate(samples, signs, got), eager.state(k, t))


def test_reads_in_iteration_order_step_each_iteration_once(monkeypatch):
    graph, samples, signs = consensus_case(11, 9)
    res = run_consensus(graph, samples, signs, 12)
    steps = []
    einsum = np.einsum
    monkeypatch.setattr(np, "einsum", lambda *a, **kw: steps.append(a[0]) or einsum(*a, **kw))
    for t in (0, 3, 3, 7, 12):
        for k in range(9):
            res.weights(k, t)
    res.weights(4)
    assert steps == ["kj,ji->ki"] * 12
    res.weights(0, 2)  # an earlier iteration restarts from the identity
    assert len(steps) == 14
    with pytest.raises(ValueError, match="not run"):
        res.weights(0, 13)


def test_a_node_new_to_the_cursor_steps_alone_up_to_it(monkeypatch):
    graph, samples, signs = consensus_case(11, 9)
    res = run_consensus(graph, samples, signs, 12)
    rows = []
    einsum = np.einsum
    monkeypatch.setattr(np, "einsum", lambda *a, **kw: rows.append(len(a[1])) or einsum(*a, **kw))
    for k in range(9):  # every node at the last iteration, as coverage --all-nodes reads
        res.weights(k)
    assert rows == [1] * (9 * 12)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(2, 40), st.sampled_from(CONSENSUS_SCHEMES), st.data())
def test_a_rows_bits_do_not_depend_on_the_rows_stepped_with_it(seed, n_nodes, scheme, data):
    """Node k's weights read alone, among a subset of nodes, or among every
    node are the same bits at each of 200 iterations."""
    graph, samples, signs = consensus_case(seed, n_nodes)
    k = data.draw(st.integers(0, n_nodes - 1))
    subset = sorted(data.draw(st.sets(st.integers(0, n_nodes - 1), max_size=n_nodes)) | {k})
    alone, among, every = (run_consensus(graph, samples, signs, 200, scheme) for _ in range(3))
    for t in range(201):
        got = alone.weights(k, t)
        for j in subset:
            among.weights(j, t)
        for j in range(n_nodes):
            every.weights(j, t)
        assert np.array_equal(among.weights(k, t), got) and np.array_equal(every.weights(k, t), got)


def scanned_csv(protocol, n_nodes, events) -> bytes:
    """The traffic CSV written straight from the events."""
    running = [0] * n_nodes
    out = io.StringIO(newline="")
    w = csv.writer(out)
    w.writerow(["protocol", "round", "node_id", "scalars_sent", "cumulative_scalars", "tag_bits"])
    for rnd, node, scalars, bits in sorted(events, key=lambda e: (e[0], e[1])):
        running[node] += scalars
        w.writerow([protocol, rnd, node, scalars, running[node], bits])
    return out.getvalue().encode()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(-1, 6), st.integers(0, 3), st.sampled_from([0, 0, 1, 9, 36]),
                          st.integers(0, 4)), max_size=40))
def test_traffic_totals_through_round_equal_a_scan_of_events(events):
    log = TrafficLog("demo", 4)
    for rnd, node, scalars, bits in events:
        log.record(rnd, node, scalars, tag_bits=bits)
    for r in range(-2, 8):
        assert log.total_through_round(r) == sum(e[2] for e in events if e[0] <= r)
    per_node = [sum(e[2] for e in events if e[1] == k) for k in range(4)]
    assert np.array_equal(log.per_node_totals, per_node)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "traffic.csv")
        log.to_csv(path)
        with open(path, "rb") as fh:
            assert fh.read() == scanned_csv("demo", 4, events)
