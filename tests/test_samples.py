"""Samples as arrays: the vectorised model and the batched local aggregates.

``generate_measurements`` builds every regressor row with column products
and every measurement with one ``np.vecdot``; the test oracles build all
local aggregates with one broadcast product, and a TAS node's aggregate
before it hears anything, or a consensus node's before the first iteration,
is ``tie_exact_aggregate`` of a (scaled) one-hot weight vector. Region membership breaks exact ties
at random, so any last-bit change would move region cells: these tests hold
both paths to the per-node oracle bit for bit. The ``vecdot`` equality rests
on numpy rounding each row of ``vecdot`` as the 1-D ``phi @ p`` it replaced;
if a numpy or BLAS upgrade breaks that, the property test below fails.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import model_oracle  # noqa: E402
from diffusion_oracle import local_aggregate_arrays  # noqa: E402
from weight_rows import aggregate  # noqa: E402
from spsnet.diffusion import run_consensus, run_tas  # noqa: E402
from spsnet.experiments import TopologyBundle, run_protocol  # noqa: E402
from spsnet.model import (  # noqa: E402
    NOISE_KINDS,
    REGRESSOR_FAMILIES,
    FieldConfig,
    NoiseSpec,
    generate_measurements,
)
from spsnet.rng import substream  # noqa: E402
from spsnet.sps import draw_sign_matrix, local_aggregate, tie_exact_aggregate  # noqa: E402
from spsnet.topology import clustered, random_geometric, spanning_tree  # noqa: E402


@st.composite
def model_cases(draw):
    n_p = draw(st.integers(1, 10))
    n_x = draw(st.integers(1, 3))
    n_nodes = draw(st.integers(1, 60))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = substream(seed, "model-oracle")
    magnitude = 10.0 ** draw(st.integers(-3, 3))
    cfg = FieldConfig(
        n_p=n_p,
        p_true=rng.normal(size=n_p) * 10.0 ** draw(st.integers(-3, 3)),
        n_x=n_x,
        regressor_family=draw(st.sampled_from(REGRESSOR_FAMILIES)),
        noise=NoiseSpec(draw(st.sampled_from(NOISE_KINDS)), draw(st.sampled_from([0.0, 0.1, 2.0]))),
        regressor_seed=draw(st.integers(-(2**40), 2**40)),
    )
    positions = rng.uniform(-1.0, 1.0, size=(n_nodes, n_x)) * magnitude
    return cfg, positions, seed


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(model_cases())
def test_measurements_match_per_node_oracle(case):
    cfg, positions, seed = case
    samples = generate_measurements(positions, cfg, substream(seed, "noise"))
    phi, y = model_oracle.measurements(positions, cfg, substream(seed, "noise"))
    assert np.array_equal(samples.phi, phi)
    assert np.array_equal(samples.y, y)


def _network(seed, n_nodes, n_p=3, m=5):
    cfg = FieldConfig(n_p=n_p, p_true=np.array([(-0.5) ** k for k in range(n_p)]),
                      noise=NoiseSpec(scale=0.3))
    graph = random_geometric(n_nodes, substream(seed, "topology"))
    samples = generate_measurements(graph.positions, cfg, substream(seed, "noise"))
    return graph, samples, draw_sign_matrix(m, n_nodes, sign_seed=seed)


@pytest.mark.parametrize("seed,n_nodes,n_p,m",
                         [(1, 2, 1, 2), (2, 7, 2, 4), (3, 25, 3, 10), (4, 40, 6, 3)])
def test_batched_locals_equal_local_aggregate(seed, n_nodes, n_p, m):
    graph, samples, signs = _network(seed, n_nodes, n_p, m)
    vec, mat = local_aggregate_arrays(samples, signs)
    assert vec.shape == (n_nodes, m, n_p) and mat.shape == (n_nodes, m, n_p, n_p)
    tas = run_tas(graph, samples, signs, rounds=0)
    for k in range(n_nodes):
        one = local_aggregate(samples, k, signs.column(k))
        assert np.array_equal(vec[k], one.vec) and np.array_equal(mat[k], one.mat)
        row0 = tie_exact_aggregate(samples, signs, tas.weights(k, 0))
        assert np.array_equal(row0.vec, one.vec) and np.array_equal(row0.mat, one.mat)
    # consensus starts from N times the locals, the same multiplies as before
    res = run_consensus(graph, samples, signs, iterations=0)
    for k in range(n_nodes):
        one = local_aggregate(samples, k, signs.column(k))
        state = tie_exact_aggregate(samples, signs, res.weights(k, 0))
        assert np.array_equal(state.vec, n_nodes * one.vec) and np.array_equal(state.mat, n_nodes * one.mat)


def test_batched_locals_reject_mismatched_signs():
    _, samples, _ = _network(5, 6)
    with pytest.raises(ValueError):
        local_aggregate_arrays(samples, draw_sign_matrix(4, 5, sign_seed=1))


def test_local_payloads_share_no_memory():
    # a TAS node's aggregate as the first round sends is its local one, built
    # on every read: no two nodes' aggregates share memory
    graph, samples, signs = _network(6, 12)
    tree = spanning_tree(graph)
    topo = clustered(12, 3, substream(6, "clusters"))
    runs = {
        "tas": (TopologyBundle("rgg", graph, None, None, graph.positions), 0),
        "tas-tree": (TopologyBundle("tree", tree.graph(), tree, None, graph.positions), 1),
        "tas-clustered": (TopologyBundle("clustered", topo.graph(), None, topo, graph.positions), 1),
    }
    for name, (bundle, first) in runs.items():
        run, builder = run_protocol(bundle, samples, signs, {"protocol": "tas", "rounds": 0})
        payloads = [aggregate(run, builder, samples, signs, k, first) for k in range(12)]
        for k, target in enumerate(payloads):
            one = local_aggregate(samples, k, signs.column(k))
            assert np.array_equal(target.vec, one.vec) and np.array_equal(target.mat, one.mat), name
            for other in payloads[k + 1:]:
                assert not np.shares_memory(target.vec, other.vec), name
                assert not np.shares_memory(target.mat, other.mat), name
        before = [(p.vec.copy(), p.mat.copy()) for p in payloads]
        # adding into one node's payload leaves every other node's, and a new read, unchanged
        payloads[4].vec += payloads[4].vec
        assert np.array_equal(aggregate(run, builder, samples, signs, 4, first).vec, before[4][0]), name
        for k, p in enumerate(payloads):
            if k == 4:
                assert np.array_equal(p.vec, 2 * before[k][0]), name
            else:
                assert np.array_equal(p.vec, before[k][0]) and np.array_equal(p.mat, before[k][1]), name
