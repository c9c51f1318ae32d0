"""The protocol table: one dispatch hands the SPS test weights, aggregates,
rounds and traffic for every protocol on every topology kind.

The contract the test relies on is that node k's aggregate is the sum of the
local terms weighted by ``weights(k)``, whatever the protocol: it is exactly
the run's builder applied to the weights, ``tie_exact_aggregate`` for TAS
and consensus (and, bit for bit, for ``local``, which builds its node's
``local_aggregate``) and ``truncated_aggregate`` for the rest. On
general graphs the table must reproduce the old coverage dispatch
(``trial_oracle``) bit for bit, except that a TAS or consensus aggregate need
only be close to the oracle's payload sum or stepped state; on trees and
clustered deployments it must run the scheduled simulators, whose totals have
closed forms. ``run_coverage`` runs the protocol once per trial and builds
each distinct weight vector once per trial.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import trial_oracle  # noqa: E402
from weight_rows import weight_matrix  # noqa: E402
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


TIE_EXACT = ("local", "tas", "consensus")  # the protocols with ``tie_exact_aggregate``'s bits
BUILDERS = {"local": "local_aggregate", "tas": "tie_exact_aggregate", "consensus": "tie_exact_aggregate"}


def assert_weighted_sum(run, protocol, samples, signs, k, r=None):
    """Node k's aggregate at round r is the weighted sum of the local terms,
    and exactly its builder's."""
    weights, agg = run.weights(k, r), run.aggregate(samples, signs, k, r)
    assert truncated_aggregate(samples, signs, weights).allclose(agg)
    build = tie_exact_aggregate if protocol in TIE_EXACT else truncated_aggregate
    assert same_agg(agg, build(samples, signs, weights))


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
    assert np.array_equal(weights, weight_matrix(run_consensus(bundle.graph, samples, signs, 4)))


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
            eff = weight_matrix(run_consensus(bundle.graph, samples, signs, diff["iterations"], scheme))
        for k in nodes:
            c, agg = state[k]
            got = run.aggregate(samples, signs, k)
            if protocol in ("tas", "consensus"):  # the oracle sums payloads or steps states
                assert got.allclose(agg)
                assert same_agg(got, tie_exact_aggregate(samples, signs, run.weights(k)))
            else:
                assert same_agg(got, agg)
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
    for name in ("batch_aggregate", "truncated_aggregate", "tie_exact_aggregate", "local_aggregate"):
        original = getattr(experiments, name)
        monkeypatch.setattr(experiments, name,
                            lambda *a, _f=original, _n=name, **kw: built.append(_n) or _f(*a, **kw))
    for protocol in PROTOCOLS:
        run_protocol(bundle, samples, signs, diffusion_cfg(protocol, 1))
    assert built == []
    for protocol in PROTOCOLS:
        run = run_protocol(bundle, samples, signs, diffusion_cfg(protocol, 1))
        for k in (3, 3, 0):
            run.aggregate(samples, signs, k)
        assert built == [BUILDERS.get(protocol, "truncated_aggregate")] * 3, protocol  # once per read
        built.clear()


def test_coverage_runs_each_protocol_once_per_trial(monkeypatch):
    """Each coverage trial is one deployment: it runs the protocol once and
    builds each distinct weight vector once, so ``full`` builds one aggregate
    for all nodes."""
    calls = []
    for name in ("run_pf", "run_mf", "run_tas", "run_consensus", "run_tas_tree", "run_mf_tree",
                 "run_tas_clustered", "run_mf_clustered", "truncated_aggregate"):
        original = getattr(experiments, name)
        monkeypatch.setattr(experiments, name,
                            lambda *a, _f=original, _n=name, **kw: calls.append(_n) or _f(*a, **kw))
    cases = [("rgg", "pf", "run_pf"), ("rgg", "mf", "run_mf"), ("rgg", "tas", "run_tas"),
             ("rgg", "consensus", "run_consensus"), ("tree", "tas", "run_tas_tree"),
             ("binary", "mf", "run_mf_tree"), ("clustered", "tas", "run_tas_clustered"),
             ("clustered", "mf", "run_mf_clustered"), ("rgg", "full", None)]
    for kind, protocol, runner in cases:
        config = experiments.ExperimentConfig({
            "seed": 6, "trials": 5, "all_nodes": True,
            "topology": {"kind": kind, "n_nodes": 12, "depth": 2, "n_clusters": 3},
            "diffusion": {"protocol": protocol, "rounds": 2},
        })
        record = experiments.run_coverage(config)
        assert sorted({row[0] for row in record.rows}) == list(range(5))
        if runner is None:
            assert calls == ["truncated_aggregate"] * 5, (kind, protocol)
        else:
            assert [c for c in calls if c != "truncated_aggregate"] == [runner] * 5, (kind, protocol)
        calls.clear()


def test_unknown_protocol_is_rejected():
    bundle = bundle_for("rgg", 5, 0)
    samples, signs = data_for(bundle, 0)
    with pytest.raises(ValueError, match="unknown protocol"):
        run_protocol(bundle, samples, signs, diffusion_cfg("gossip"))


def test_tas_wraps_up_only_the_requested_nodes(monkeypatch):
    calls = []
    original = diffusion.tas_wrapup
    monkeypatch.setattr(diffusion, "tas_wrapup",
                        lambda table, n_rows=None: calls.append((table.owner, n_rows == len(table.rows)))
                        or original(table, n_rows))
    for kind, n_nodes in (("rgg", 12), ("tree", 12), ("binary", 15), ("clustered", 12)):
        bundle = bundle_for(kind, n_nodes, 1, depth=3)
        samples, signs = data_for(bundle, 1)
        calls.clear()
        run = run_protocol(bundle, samples, signs, diffusion_cfg("tas"))
        assert calls == []  # nothing is wrapped up until it is read
        first = [(run.weights(k), run.aggregate(samples, signs, k)) for k in (5, 2)]
        again = [(run.weights(k), run.aggregate(samples, signs, k)) for k in (2, 5)]
        assert calls == [(5, True), (2, True)]  # each node's final table, once, on its first read
        assert same_agg(first[0][1], again[1][1]) and same_agg(first[1][1], again[0][1])
        with pytest.raises(ValueError, match="not in the network"):
            run.aggregate(samples, signs, bundle.graph.n_nodes)


@pytest.mark.parametrize("protocol", list(PROTOCOLS))
def test_every_protocol_rejects_unknown_nodes(protocol):
    bundle = bundle_for("rgg", 8, 2)
    samples, signs = data_for(bundle, 2)
    run = run_protocol(bundle, samples, signs, diffusion_cfg(protocol, rounds=1))
    for k in (-1, 8, 12):
        with pytest.raises(ValueError, match="not in the network"):
            run.weights(k)


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
                run.aggregate(samples, signs, 0, rnd)
    else:  # full and local ignore the round; flooding past its last round is final knowledge
        for k in range(n):
            assert np.array_equal(run.weights(k, later), run.weights(k))
            assert same_agg(run.aggregate(samples, signs, k, later), run.aggregate(samples, signs, k))
    if protocol != "tas":  # TAS on a schedule delivers its last round after it sends
        for k in range(n):
            assert np.array_equal(run.weights(k, run.rounds), run.weights(k))
            assert same_agg(run.aggregate(samples, signs, k, run.rounds), run.aggregate(samples, signs, k))
