"""Relabelling the nodes changes nothing that does not name a node.

A relabelling π gives old node i the id π(i): the adjacency is permuted on
both axes and the positions row-wise. Then

- PF, MF and consensus keep ``total_scalars``, every ``total_through_round(r)``
  and ``rounds_run``, MF and PF at their default cap and under a
  ``max_rounds`` cap, consensus under both schemes;
- flooding's weights follow the nodes exactly: ``weights(π(k), r)[π(i)] ==
  weights(k, r)[i]`` at every round r, including one past the last;
- consensus weights follow them to within ``CONSENSUS_ATOL``: N * W^t is the
  same matrix permuted, but its products add in another order;
- the tree and cluster schedules keep their MF and TAS traffic, round by
  round. What is relabelled there is the tree's ``parent`` array and the
  clustering's ``assignment`` and ``heads``, not the graph they came from,
  because ``spanning_tree`` picks its root by node id.

TAS on a general graph is left out on purpose: nodes send in id order and a
tag table keeps its rows in arrival order, so its traffic, completeness and
weights depend on the ids, as the README says where it describes TAS.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from spsnet.diffusion import (  # noqa: E402
    CONSENSUS_SCHEMES,
    run_consensus,
    run_mf,
    run_mf_clustered,
    run_mf_tree,
    run_pf,
    run_tas_clustered,
    run_tas_tree,
)
from spsnet.model import Samples  # noqa: E402
from spsnet.rng import substream  # noqa: E402
from spsnet.sps import draw_sign_matrix  # noqa: E402
from spsnet.topology import (  # noqa: E402
    ClusteredTopology,
    Graph,
    TreeTopology,
    clustered,
    complete_binary_tree,
    random_geometric,
    spanning_tree,
)

# N * W^t has entries in [0, N]: over 60 relabelled RGG draws of up to 40
# nodes and 8 iterations, both schemes, the largest difference was 1.1e-14
CONSENSUS_ATOL = 1e-12
SETTINGS = settings(max_examples=50, deadline=None, derandomize=True, database=None)


def _path(n):
    adj = np.zeros((n, n), dtype=bool)
    adj[np.arange(n - 1), np.arange(1, n)] = adj[np.arange(1, n), np.arange(n - 1)] = True
    return adj


def _star(n):
    adj = np.zeros((n, n), dtype=bool)
    adj[0, 1:] = adj[1:, 0] = True
    return adj


def _complete(n):
    return ~np.eye(n, dtype=bool)


@st.composite
def graphs(draw):
    """A connected graph with positions: an RGG draw, a path, a star or a
    complete graph."""
    family = draw(st.sampled_from(["rgg", "path", "star", "complete"]))
    seed = draw(st.integers(0, 2**16))
    if family == "rgg":
        return random_geometric(draw(st.integers(5, 40)), substream(seed, "topology"))
    n = draw(st.integers(2, 40 if family != "complete" else 20))
    adj = {"path": _path, "star": _star, "complete": _complete}[family](n)
    return Graph(adjacency=adj, positions=substream(seed, "positions").uniform(size=(n, 2)))


def permuted(adjacency, perm):
    """``adjacency`` with old node i renamed perm[i]: new node a is old node inv[a]."""
    inv = np.argsort(perm)
    return adjacency[np.ix_(inv, inv)]


def relabel(graph, perm):
    """``graph`` under ``perm``, positions included."""
    return Graph(adjacency=permuted(graph.adjacency, perm), positions=graph.positions[np.argsort(perm)])


def scatter(values, perm):
    """The per-node array whose entry perm[i] is values[i]."""
    out = np.empty_like(values)
    out[perm] = values
    return out


def payload(n, n_p=2, m=5):
    """Data that sizes the payloads; no run reads the values."""
    return Samples(np.ones((n, n_p)), np.zeros(n)), draw_sign_matrix(m, n, 0)


def assert_same_traffic(a, b):
    assert a.rounds_run == b.rounds_run
    assert a.traffic.total_scalars == b.traffic.total_scalars
    for r in range(a.rounds_run + 2):
        assert a.traffic.total_through_round(r) == b.traffic.total_through_round(r), r


@SETTINGS
@given(st.data(), graphs(), st.sampled_from([None, 0, 1, 2, 5]))
def test_flooding_follows_the_nodes(data, graph, max_rounds):
    n = graph.n_nodes
    perm = np.array(data.draw(st.permutations(range(n))))
    moved = relabel(graph, perm)
    assert np.array_equal(moved.positions[perm], graph.positions)
    samples, _ = payload(n)
    for runner in (run_pf, run_mf):
        before, after = runner(graph, samples, max_rounds), runner(moved, samples, max_rounds)
        assert_same_traffic(before, after)
        for r in range(before.rounds_run + 2):
            for k in range(n):
                assert np.array_equal(after.weights(int(perm[k]), r)[perm], before.weights(k, r)), (r, k)


@SETTINGS
@given(st.data(), graphs(), st.integers(0, 8), st.sampled_from(CONSENSUS_SCHEMES))
def test_consensus_follows_the_nodes(data, graph, iterations, scheme):
    n = graph.n_nodes
    perm = np.array(data.draw(st.permutations(range(n))))
    samples, signs = payload(n)
    before = run_consensus(graph, samples, signs, iterations, scheme)
    after = run_consensus(relabel(graph, perm), samples, signs, iterations, scheme)
    assert_same_traffic(before, after)
    for t in range(iterations + 1):
        for k in range(n):
            got = after.weights(int(perm[k]), t)[perm]
            assert np.allclose(got, before.weights(k, t), rtol=0.0, atol=CONSENSUS_ATOL), (t, k)


@SETTINGS
@given(st.data(), st.integers(0, 2**16), st.integers(5, 40), st.integers(0, 4))
def test_tree_schedules_keep_their_traffic(data, seed, n, depth):
    trees = [spanning_tree(random_geometric(n, substream(seed, "topology"))), complete_binary_tree(depth)]
    for tree in trees:
        perm = np.array(data.draw(st.permutations(range(tree.n_nodes))))
        moved = TreeTopology(scatter(np.where(tree.parent < 0, -1, perm[tree.parent]), perm))
        assert np.array_equal(moved.graph().adjacency, permuted(tree.graph().adjacency, perm))
        samples, signs = payload(tree.n_nodes)
        assert_same_traffic(run_mf_tree(tree, samples), run_mf_tree(moved, samples))
        assert_same_traffic(run_tas_tree(tree, samples, signs), run_tas_tree(moved, samples, signs))


@SETTINGS
@given(st.data(), st.integers(0, 2**16), st.integers(2, 40), st.integers(1, 8))
def test_cluster_schedules_keep_their_traffic(data, seed, n, n_clusters):
    topo = clustered(n, min(n_clusters, n), substream(seed, "clusters"))
    perm = np.array(data.draw(st.permutations(range(n))))
    moved = ClusteredTopology(assignment=scatter(topo.assignment, perm), heads=perm[topo.heads])
    assert np.array_equal(moved.graph().adjacency, permuted(topo.graph().adjacency, perm))
    samples, signs = payload(n)
    assert_same_traffic(run_mf_clustered(topo, samples), run_mf_clustered(moved, samples))
    assert_same_traffic(run_tas_clustered(topo, samples, signs), run_tas_clustered(moved, samples, signs))
