"""Property tests: vectorised topology construction against per-node oracles.

Every tree the schedules run on, and so every census-formula traffic total,
comes from ``random_geometric`` and ``spanning_tree``. The adjacency must
equal the (N, N, 2) difference-vector formula, spanning-tree parents the
smallest-id-neighbour-one-level-up rule, BFS levels networkx's shortest path
lengths, and a tree's children, childless census and schedule the per-node
loops in ``topology_oracle``, all with equal arrays, for networks of up to
500 nodes.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import topology_oracle as oracle  # noqa: E402
from spsnet.rng import substream  # noqa: E402
from spsnet.topology import (  # noqa: E402
    RGG_BLOCK_ROWS as B,
    Graph,
    TreeTopology,
    bfs_levels,
    comm_radius,
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
@given(SIZES, st.integers(0, 2**32 - 1), st.booleans(), st.data())
def test_spanning_tree_parents_follow_the_per_node_rule(n_nodes, seed, centred, data):
    g = random_geometric(n_nodes, substream(seed, "topology"))
    root = None if centred else data.draw(st.integers(0, n_nodes - 1))
    tree = spanning_tree(g, root=root)
    level = bfs_levels(g.adjacency, tree.root)
    assert np.array_equal(tree.level, level)
    assert np.array_equal(tree.parent, oracle.bfs_parents(g, level, tree.root))
    assert root is None or tree.root == root


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
    nxg = nx.Graph()
    nxg.add_nodes_from(range(n_nodes))
    nxg.add_edges_from(g.edges)
    root = int(rng.integers(n_nodes))
    want = np.full(n_nodes, -1)
    for v, hops in nx.single_source_shortest_path_length(nxg, root).items():
        want[v] = hops
    assert np.array_equal(bfs_levels(g.adjacency, root), want)
    if g.is_connected():
        assert np.array_equal(spanning_tree(g, root=root).level, want)


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


def test_tree_graph_is_built_once():
    tree = spanning_tree(random_geometric(40, substream(5, "topology")))
    assert tree.graph() is tree.graph()
