"""Property tests: vectorised topology construction against per-node oracles.

Every tree the schedules run on, and so every census-formula traffic total,
comes from ``random_geometric`` and ``spanning_tree``. The adjacency must
equal the (N, N, 2) difference-vector formula, spanning-tree parents the
smallest-id-neighbour-one-level-up rule, BFS levels and diameters networkx's
shortest path lengths, a tree's levels the level-by-level parent chase (and
a broken parent array its error), and a tree's children, childless census
and schedule the per-node loops in ``topology_oracle``, all with equal
arrays, for networks of up to 500 nodes.
"""

import re

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

import topology_oracle as oracle  # noqa: E402
from spsnet.rng import substream  # noqa: E402
from spsnet.topology import (  # noqa: E402
    RGG_BLOCK_ROWS as B,
    Graph,
    TreeTopology,
    bfs_levels,
    clustered,
    comm_radius,
    diameter,
    random_geometric,
    spanning_tree,
)

# the adjacency is drawn in blocks of B rows: sizes at the block edges end
# on a full block or on a last block of a single row
SIZES = st.integers(2, 60) | st.sampled_from([B - 1, B, B + 1, 2 * B - 1, 2 * B, 2 * B + 1, 130, 257, 500])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(SIZES, st.floats(1.0, 4.0), st.integers(0, 2**32 - 1))
@example(B + 1, 1.0, 0)
@example(2 * B + 1, 1.0, 0)
def test_rgg_adjacency_equals_the_difference_vector_formula(n_nodes, scale, seed):
    radius = min(scale * comm_radius(n_nodes), 1.5)
    g = random_geometric(n_nodes, substream(seed, "rgg"), radius=radius)
    assert g.radius == radius
    assert np.array_equal(g.adjacency, oracle.rgg_adjacency(g.positions, radius))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(SIZES, st.integers(0, 2**32 - 1))
def test_spanning_tree_parents_follow_the_per_node_rule(n_nodes, seed):
    g = random_geometric(n_nodes, substream(seed, "topology"))
    tree = spanning_tree(g)
    level = bfs_levels(g.adjacency, tree.root)
    assert np.array_equal(tree.level, level)
    assert np.array_equal(tree.parent, oracle.bfs_parents(g, level, tree.root))


def test_spanning_tree_parents_at_500_nodes():
    for r in range(3):
        g = random_geometric(500, substream(3, "topology", 500, r))
        tree = spanning_tree(g)
        assert np.array_equal(tree.parent, oracle.bfs_parents(g, tree.level, tree.root))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 60) | st.sampled_from([130, 500]), st.floats(0.0, 0.3), st.integers(0, 2**32 - 1))
def test_bfs_levels_equal_networkx_path_lengths(n_nodes, density, seed):
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n_nodes, n_nodes)) < density, 1)  # often disconnected
    g = Graph(adjacency=upper | upper.T)
    nxg = to_networkx(nx, g)

    def hops_from(root):
        want = np.full(n_nodes, -1)
        for v, hops in nx.single_source_shortest_path_length(nxg, root).items():
            want[v] = hops
        return want

    root = int(rng.integers(n_nodes))
    assert np.array_equal(bfs_levels(g.adjacency, root), hops_from(root))
    if g.is_connected():
        tree = spanning_tree(g)
        assert np.array_equal(tree.level, hops_from(tree.root))


def to_networkx(nx, graph):
    nxg = nx.Graph()
    nxg.add_nodes_from(range(graph.n_nodes))
    nxg.add_edges_from(graph.edges)
    return nxg


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(2, 60) | st.just(130), st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_diameter_equals_networkx(n_nodes, n_clusters, seed):
    nx = pytest.importorskip("networkx")
    g = random_geometric(n_nodes, substream(seed, "topology"))
    topo = clustered(n_nodes, min(n_clusters, n_nodes), substream(seed, "clusters"))
    for graph in (g, spanning_tree(g).graph(), topo.graph()):
        assert diameter(graph) == nx.diameter(to_networkx(nx, graph))


def random_parents(rng, n):
    """A random rooted tree on n nodes: in a random order, each node after the
    first hangs below a uniformly chosen earlier one."""
    order = rng.permutation(n)
    parent = np.full(n, -1, dtype=int)
    for i in range(1, n):
        parent[order[i]] = order[rng.integers(0, i)]
    return parent


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 60) | st.sampled_from([130, 500]), st.integers(0, 2**32 - 1))
def test_children_and_census_equal_per_node_loops(n_nodes, seed):
    parent = random_parents(np.random.default_rng(seed), n_nodes)
    tree = TreeTopology(parent=parent)
    graph = tree.graph()
    for i, kids in enumerate(oracle.children(parent)):
        # a node hears its children and its parent
        want = np.sort(np.append(kids, parent[i])) if parent[i] >= 0 else kids
        assert np.array_equal(graph.neighbors(i), want)
    assert np.array_equal(tree.childless_counts, oracle.childless_counts(parent, tree.level))
    got, want = tree.stages(), oracle.stages(parent, tree.level)
    assert len(got) == len(want) and all(np.array_equal(a, b) for a, b in zip(got, want))


CORRUPTIONS = ("self-loop", "2-cycle", "cycle", "no root", "two roots")


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(1, 60) | st.sampled_from([130, 500]), st.integers(0, 2**32 - 1),
       st.sampled_from((None,) + CORRUPTIONS))
def test_tree_validation_equals_the_parent_chase(n_nodes, seed, corruption):
    rng = np.random.default_rng(seed)
    parent = random_parents(rng, n_nodes)
    root = int(np.flatnonzero(parent < 0)[0])
    others = np.flatnonzero(parent >= 0)
    if corruption == "self-loop":
        assume(others.size >= 1)
        v = rng.choice(others)
        parent[v] = v
    elif corruption == "2-cycle":
        assume(others.size >= 2)
        u, v = rng.choice(others, size=2, replace=False)
        parent[u], parent[v] = v, u
    elif corruption == "cycle":  # beside the branch that still hangs from the root
        assume(others.size >= 4)
        ring = rng.choice(others, size=int(rng.integers(3, min(others.size, 8) + 1)), replace=False)
        parent[ring] = np.roll(ring, 1)
    elif corruption == "no root":
        assume(n_nodes >= 2)
        parent[root] = rng.choice(others)
    elif corruption == "two roots":
        assume(others.size >= 1)
        parent[rng.choice(others)] = -1
    try:
        want = oracle.tree_levels(parent)
    except ValueError as err:
        assert corruption is not None
        with pytest.raises(ValueError, match=f"^{re.escape(str(err))}$"):
            TreeTopology(parent=parent)
        return
    assert corruption is None
    tree = TreeTopology(parent=parent)
    assert np.array_equal(tree.level, want)
    assert np.array_equal(tree.level_counts, np.bincount(want))
    assert np.array_equal(tree.childless_counts, oracle.childless_counts(parent, want))


def test_tree_graph_is_built_once():
    tree = spanning_tree(random_geometric(40, substream(5, "topology")))
    assert tree.graph() is tree.graph()
