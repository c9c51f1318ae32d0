"""The protocol table: one dispatch hands the SPS test weights, aggregates,
rounds and traffic for every protocol on every topology kind.

The contract the test relies on is that node k's aggregate is the sum of the
local terms weighted by ``weights(k)``, whatever the protocol. A TAS aggregate
is exactly ``tie_exact_aggregate`` of its weights. On general graphs the
table must reproduce the old coverage dispatch (``trial_oracle``) bit for bit,
except that a TAS aggregate need only be close to the oracle's payload sum;
on trees and clustered deployments it must run the scheduled simulators,
whose totals have closed forms.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import trial_oracle  # noqa: E402
from spsnet import diffusion, experiments  # noqa: E402
from spsnet.analysis import (  # noqa: E402
    traffic_mf_clustered,
    traffic_mf_tree,
    traffic_tas_clustered,
    traffic_tas_tree,
)
from spsnet.diffusion import CONSENSUS_SCHEMES, run_consensus  # noqa: E402
from spsnet.experiments import PROTOCOLS, build_topology, run_protocol  # noqa: E402
from spsnet.model import FieldConfig, NoiseSpec, generate_measurements  # noqa: E402
from spsnet.rng import substream  # noqa: E402
from spsnet.sps import draw_sign_matrix, tie_exact_aggregate, truncated_aggregate  # noqa: E402


def bundle_for(kind, n_nodes, seed, depth=2, n_clusters=3):
    tcfg = {"kind": kind, "n_nodes": n_nodes, "depth": depth, "n_clusters": n_clusters, "radius": None}
    return build_topology(seed, tcfg)


def data_for(bundle, seed, n_p=2, m=4):
    fc = FieldConfig(n_p=n_p, p_true=np.ones(n_p), noise=NoiseSpec(scale=0.1))
    samples = generate_measurements(bundle.positions, fc, substream(seed, "noise"))
    return samples, draw_sign_matrix(m, bundle.graph.n_nodes, seed)


def diffusion_cfg(protocol, rounds=None, iterations=4, scheme="metropolis"):
    return {"protocol": protocol, "rounds": rounds, "iterations": iterations, "scheme": scheme}


def same_agg(a, b):
    return np.array_equal(a.vec, b.vec) and np.array_equal(a.mat, b.mat)


def assert_weighted_sum(run, protocol, samples, signs, k, r=None):
    """Node k's aggregate at round r is the weighted sum of the local terms;
    for TAS, exactly the tie-exact builder's."""
    weights, agg = run.weights(k, r), run.aggregate(k, r)
    assert truncated_aggregate(samples, signs, weights).allclose(agg)
    if protocol == "tas":
        assert same_agg(agg, tie_exact_aggregate(samples, signs, weights))


@pytest.mark.parametrize("protocol", list(PROTOCOLS))
@pytest.mark.parametrize("kind,n_nodes,rounds", [
    ("rgg", 12, 1), ("rgg", 25, None), ("binary", 7, None), ("clustered", 10, 1),
])
def test_aggregate_is_the_weighted_sum_of_local_terms(protocol, kind, n_nodes, rounds):
    for seed in range(3):
        bundle = bundle_for(kind, n_nodes, seed)
        samples, signs = data_for(bundle, seed)
        n = bundle.graph.n_nodes
        run = run_protocol(bundle, samples, signs, diffusion_cfg(protocol, rounds))
        for k in range(n):
            assert run.weights(k).shape == (n,)
            assert_weighted_sum(run, protocol, samples, signs, k)


def test_consensus_weights_are_unclipped():
    bundle = bundle_for("rgg", 30, 4)
    samples, signs = data_for(bundle, 4)
    run = run_protocol(bundle, samples, signs, diffusion_cfg("consensus", iterations=4))
    weights = np.array([run.weights(k) for k in range(30)])
    assert weights.max() > 1.0  # N * W^t exceeds one on this graph
    assert np.array_equal(weights, run_consensus(bundle.graph, samples, signs, 4).effective_weights())


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(["rgg", "complete"]), st.integers(2, 30), st.integers(0, 2**32 - 1),
       st.sampled_from([None, 0, 1, 3]), st.sampled_from(CONSENSUS_SCHEMES), st.booleans(), st.data())
def test_table_matches_the_old_dispatch_on_general_graphs(kind, n_nodes, seed, rounds, scheme, all_nodes,
                                                          data):
    bundle = bundle_for(kind, n_nodes, seed)
    samples, signs = data_for(bundle, seed)
    n = bundle.graph.n_nodes
    nodes = list(range(n)) if all_nodes else [data.draw(st.integers(0, n - 1))]
    for protocol in PROTOCOLS:
        diff = diffusion_cfg(protocol, rounds, iterations=4 if rounds is None else rounds, scheme=scheme)
        run = run_protocol(bundle, samples, signs, diff)
        state, rounds_run, traffic = trial_oracle.trial_state(protocol, bundle.graph, samples, signs, diff,
                                                              nodes)
        assert run.rounds == rounds_run
        if traffic is None:
            assert run.traffic.events == []
            assert not run.traffic.per_node_totals.any()
        else:
            assert run.traffic.events == traffic.events
            assert np.array_equal(run.traffic.per_node_totals, traffic.per_node_totals)
        if protocol == "consensus":
            eff = run_consensus(bundle.graph, samples, signs, diff["iterations"], scheme).effective_weights()
        for k in nodes:
            c, agg = state[k]
            if protocol == "tas":  # the oracle sums payloads; the table builds from the weights
                assert run.aggregate(k).allclose(agg)
                assert same_agg(run.aggregate(k), tie_exact_aggregate(samples, signs, run.weights(k)))
            else:
                assert same_agg(run.aggregate(k), agg)
            if protocol == "consensus":
                assert np.array_equal(run.weights(k), eff[k])
                assert np.array_equal(np.clip(run.weights(k), 0.0, 1.0), c)
            else:
                assert np.array_equal(run.weights(k), c)


@pytest.mark.parametrize("seed", range(4))
def test_structured_kinds_run_their_schedule(seed):
    n_p, m = 2, 4
    cases = [bundle_for("tree", 30, seed), bundle_for("binary", 15, seed, depth=3),
             bundle_for("clustered", 24, seed, n_clusters=5)]
    for bundle in cases:
        samples, signs = data_for(bundle, seed, n_p, m)
        n = bundle.graph.n_nodes
        if bundle.tree is not None:
            census = (bundle.tree.level_counts, bundle.tree.childless_counts)
            expected = {"mf": traffic_mf_tree(*census, n_p, m), "tas": traffic_tas_tree(*census, n_p, m)}
            suffix = "tree"
        else:
            n_c = bundle.clusters.n_clusters
            expected = {"mf": traffic_mf_clustered(n, n_c, n_p, m),
                        "tas": traffic_tas_clustered(n, n_c, n_p, m)}
            suffix = "clustered"
        for protocol, total in expected.items():
            for rounds in (None, 1):  # diffusion.rounds is ignored on a schedule
                run = run_protocol(bundle, samples, signs, diffusion_cfg(protocol, rounds))
                assert run.traffic.protocol == f"{protocol}-{suffix}"
                assert run.traffic.total_scalars == total
                assert (run.weights(0) == 1.0).all()


def test_runners_are_looked_up_by_name_at_call_time(monkeypatch):
    bundle = bundle_for("rgg", 10, 2)
    samples, signs = data_for(bundle, 2)
    calls = []
    for name in ("run_pf", "run_mf", "run_tas", "run_consensus"):
        original = getattr(experiments, name)
        monkeypatch.setattr(experiments, name,
                            lambda *a, _f=original, _n=name, **kw: calls.append(_n) or _f(*a, **kw))
    for protocol in ("pf", "mf", "tas", "consensus"):
        run_protocol(bundle, samples, signs, diffusion_cfg(protocol, 1))
    assert calls == ["run_pf", "run_mf", "run_tas", "run_consensus"]


def test_aggregates_are_built_only_when_read(monkeypatch):
    bundle = bundle_for("rgg", 10, 3)
    samples, signs = data_for(bundle, 3)
    built = []
    for name in ("batch_aggregate", "truncated_aggregate", "local_aggregate", "tie_exact_aggregate"):
        original = getattr(experiments, name)
        monkeypatch.setattr(experiments, name,
                            lambda *a, _f=original, _n=name, **kw: built.append(_n) or _f(*a, **kw))
    for protocol in ("full", "local", "pf", "mf", "tas"):
        run_protocol(bundle, samples, signs, diffusion_cfg(protocol, 1))
    assert built == []
    run = run_protocol(bundle, samples, signs, diffusion_cfg("full"))
    assert all(run.aggregate(k) is run.aggregate(0) for k in range(10))
    assert built == ["batch_aggregate"]  # once per run, not once per node
    built.clear()
    run = run_protocol(bundle, samples, signs, diffusion_cfg("mf", 1))
    run.aggregate(3)
    assert built == ["truncated_aggregate"]
    built.clear()
    run = run_protocol(bundle, samples, signs, diffusion_cfg("tas", 1))
    run.aggregate(3)
    assert built == ["tie_exact_aggregate"]


def test_unknown_protocol_is_rejected():
    bundle = bundle_for("rgg", 5, 0)
    samples, signs = data_for(bundle, 0)
    with pytest.raises(ValueError, match="unknown protocol"):
        run_protocol(bundle, samples, signs, diffusion_cfg("gossip"))


def test_tas_wraps_up_only_the_requested_nodes(monkeypatch):
    calls = []
    original = diffusion.tas_wrapup
    monkeypatch.setattr(diffusion, "tas_wrapup",
                        lambda table, n_rows=None: calls.append((table.owner, n_rows)) or original(table, n_rows))
    for kind, n_nodes in (("rgg", 12), ("tree", 12), ("binary", 15), ("clustered", 12)):
        bundle = bundle_for(kind, n_nodes, 1, depth=3)
        samples, signs = data_for(bundle, 1)
        calls.clear()
        run = run_protocol(bundle, samples, signs, diffusion_cfg("tas"))
        assert calls == []  # nothing is wrapped up until it is read
        first = [(run.weights(k), run.aggregate(k)) for k in (5, 2)]
        again = [(run.weights(k), run.aggregate(k)) for k in (2, 5)]
        assert calls == [(5, None), (2, None)]  # each node's final table, once, on its first read
        assert same_agg(first[0][1], again[1][1]) and same_agg(first[1][1], again[0][1])
        with pytest.raises(ValueError, match="not in the network"):
            run.aggregate(bundle.graph.n_nodes)


@pytest.mark.parametrize("protocol", list(PROTOCOLS))
@pytest.mark.parametrize("kind,n_nodes", [("rgg", 12), ("binary", 7), ("clustered", 10)])
def test_every_round_reads_the_weighted_sum_of_local_terms(protocol, kind, n_nodes):
    bundle = bundle_for(kind, n_nodes, 5)
    samples, signs = data_for(bundle, 5)
    n = bundle.graph.n_nodes
    run = run_protocol(bundle, samples, signs, diffusion_cfg(protocol, rounds=2, iterations=5))
    scheduled_tas = protocol == "tas" and kind != "rgg"  # a schedule's first round is 1
    for r in range(int(scheduled_tas), run.rounds + 1):
        for k in range(n):
            assert run.weights(k, r).shape == (n,)
            assert_weighted_sum(run, protocol, samples, signs, k, r)
    later = run.rounds + 3
    if protocol in ("tas", "consensus"):
        for rnd in (-1, run.rounds + 1) + ((0,) if scheduled_tas else ()):
            with pytest.raises(ValueError, match="not run"):
                run.weights(0, rnd)
            with pytest.raises(ValueError, match="not run"):
                run.aggregate(0, rnd)
    else:  # full and local ignore the round; flooding past its last round is final knowledge
        for k in range(n):
            assert np.array_equal(run.weights(k, later), run.weights(k))
            assert same_agg(run.aggregate(k, later), run.aggregate(k))
    if protocol != "tas":  # TAS on a schedule delivers its last round after it sends
        for k in range(n):
            assert np.array_equal(run.weights(k, run.rounds), run.weights(k))
            assert same_agg(run.aggregate(k, run.rounds), run.aggregate(k))
