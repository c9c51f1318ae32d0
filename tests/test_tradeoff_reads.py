"""The trade-off study reads every protocol through the protocol table, node k
at round r, and consensus steps its weights N * W^t only when they are read.

``tradeoff_oracle`` keeps the study's old three read loops and the eager
consensus loop with its snapshots; the package's record and consensus weights
must equal them bit for bit. Its TAS reads come from the eager
payload-carrying runner, and its consensus states are stepped through the
data; both must be close to the aggregates built from the weights.
The traffic log keeps per-round totals, which must equal a scan of its events.
"""

import csv
import io
import os
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import tradeoff_oracle  # noqa: E402
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


@pytest.mark.parametrize("seed,n_nodes,n_p,m,grid,n_seeds,node_sample,rounds,max_iterations,mf_lengths_differ", [
    (4, 10, 2, 4, 5, 2, None, None, 17, True),  # seed 0's MF and TAS curves are the shorter ones
    (5, 15, 1, 5, 6, 2, 4, 0, 1, True),
    (7, 10, 3, 4, 4, 2, 3, 2, 40, False),
])
def test_tradeoff_equals_the_three_loop_oracle(seed, n_nodes, n_p, m, grid, n_seeds, node_sample, rounds,
                                               max_iterations, mf_lengths_differ):
    config = tradeoff_config(seed, n_nodes, n_p, m, grid, n_seeds, node_sample, rounds, max_iterations)
    expected, curves, reads = tradeoff_oracle.run_tradeoff(config)
    # the step extension of shorter curves runs when MF curves differ in length
    assert (len({len(c) for c in curves["mf"]}) > 1) == mf_lengths_differ
    assert run_tradeoff(config).to_json_dict() == expected.to_json_dict()
    assert reads and all(agg.allclose(eager) for agg, eager in reads)


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
        assert tie_exact_aggregate(samples, signs, got).allclose(eager.state(k, t))


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
