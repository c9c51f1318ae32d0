"""Graphs, trees and clusters: construction, censuses, determinism."""

import json
import tracemalloc

import numpy as np
import pytest

from spsnet.rng import substream
from spsnet.topology import (
    ClusteredTopology,
    ConnectivityError,
    DisconnectedGraphError,
    Graph,
    TreeTopology,
    bfs_levels,
    clustered,
    comm_radius,
    complete_binary_tree,
    diameter,
    random_geometric,
    save_topology,
    spanning_tree,
)


def path_graph(n):
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n - 1):
        adj[i, i + 1] = adj[i + 1, i] = True
    return Graph(adjacency=adj)


def test_comm_radius_value():
    assert comm_radius(100) == pytest.approx(0.1822615728804995, abs=1e-12)
    assert comm_radius(2) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        comm_radius(1)


def test_graph_validation():
    with pytest.raises(ValueError, match="adjacency must be symmetric"):
        Graph(adjacency=np.array([[0, 1], [0, 0]], dtype=bool))
    one_way = path_graph(6).adjacency.copy()
    one_way[1, 4] = True  # a single one-way edge among symmetric ones
    with pytest.raises(ValueError, match="adjacency must be symmetric"):
        Graph(adjacency=one_way)
    one_way[4, 4] = True  # symmetry is checked before self-loops
    with pytest.raises(ValueError, match="adjacency must be symmetric"):
        Graph(adjacency=one_way)
    with pytest.raises(ValueError, match="self-loops are not allowed"):
        Graph(adjacency=np.eye(2, dtype=bool))
    with pytest.raises(ValueError, match="adjacency must be square"):
        Graph(adjacency=np.zeros((2, 3), dtype=bool))
    with pytest.raises(ValueError, match="adjacency must be square"):
        Graph(adjacency=np.zeros(4, dtype=bool))
    g = path_graph(4)
    assert g.n_nodes == 4
    assert g.edges == [(0, 1), (1, 2), (2, 3)]
    assert np.array_equal(g.degrees, [1, 2, 2, 1])
    assert np.array_equal(g.neighbors(1), [0, 2])
    assert g.is_connected()
    two_parts = Graph(adjacency=np.kron(np.eye(2, dtype=bool), path_graph(2).adjacency))
    assert not two_parts.is_connected()


def test_neighbor_arrays_equal_per_row_flatnonzero():
    rng = np.random.default_rng(2)
    graphs = []
    for n in (2, 3, 17, 64, 130):
        upper = np.triu(rng.random((n, n)) < rng.uniform(0.05, 0.6), 1)
        graphs.append(Graph(adjacency=upper | upper.T))
    isolated = path_graph(5).adjacency.copy()
    isolated[2, :] = isolated[:, 2] = False  # node 2 has no neighbour
    graphs += [Graph(adjacency=isolated), Graph(adjacency=np.zeros((1, 1), dtype=bool)),
               random_geometric(60, substream(4, "topology"))]
    for n in (2, 10, 60, 200, 500):
        graphs.append(spanning_tree(random_geometric(n, substream(5, "topology", n))).graph())
    graphs += [complete_binary_tree(depth).graph() for depth in range(6)]
    graphs += [clustered(40, c, substream(6, "topology", c)).graph() for c in (1, 10, 40)]
    for g in graphs:
        for i in range(g.n_nodes):
            want = np.flatnonzero(g.adjacency[i])
            got = g.neighbors(i)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        want = g.adjacency.sum(axis=1)
        assert g.degrees.dtype == want.dtype and np.array_equal(g.degrees, want)
    assert graphs[5].neighbors(2).size == 0 and graphs[6].neighbors(0).size == 0
    for g in graphs:  # the runners' neighbour lists hold the same ids, as Python ints
        lists = g.neighbor_lists
        assert list(lists) == list(range(g.n_nodes)) and g.neighbor_lists is lists
        assert all(lists[i] == g.neighbors(i).tolist() for i in range(g.n_nodes))


def test_neighbors_refuse_ids_outside_the_graph():
    g = path_graph(6)
    for bad in (-1, -6, 6, 7):
        with pytest.raises(ValueError, match=f"^node {bad} is not in the network$"):
            g.neighbors(bad)
        with pytest.raises(KeyError):
            g.neighbor_lists[bad]
    assert g.neighbors(0).tolist() == g.neighbor_lists[0] == [1]
    assert g.neighbors(5).tolist() == g.neighbor_lists[5] == [4]


def test_spanning_tree_builds_no_neighbour_lists():
    g = random_geometric(60, substream(7, "topology"))
    tree = spanning_tree(g)
    assert g._neighbor_lists is None and tree.graph()._neighbor_lists is None


def test_bfs_levels_on_path():
    g = path_graph(5)
    assert np.array_equal(bfs_levels(g.adjacency, 0), [0, 1, 2, 3, 4])
    assert np.array_equal(bfs_levels(g.adjacency, 2), [2, 1, 0, 1, 2])


def test_random_geometric_connected_and_deterministic():
    g1 = random_geometric(40, substream(7, "topology"))
    g2 = random_geometric(40, substream(7, "topology"))
    assert np.array_equal(g1.adjacency, g2.adjacency)
    assert np.array_equal(g1.positions, g2.positions)
    assert g1.is_connected()
    assert g1.radius == pytest.approx(comm_radius(40))
    assert np.all((g1.positions >= 0) & (g1.positions <= 1))
    # adjacency really is the distance rule
    diff = g1.positions[:, None, :] - g1.positions[None, :, :]
    dist2 = (diff ** 2).sum(axis=2)
    expect = dist2 <= g1.radius ** 2
    np.fill_diagonal(expect, False)
    assert np.array_equal(g1.adjacency, expect)


def test_random_geometric_radius_override():
    g = random_geometric(10, substream(8, "topology"), radius=1.5)
    assert g.radius == 1.5
    assert g.degrees.min() == 9  # radius covers the whole square
    for bad in (0.0, -0.5, float("nan")):  # NaN is not <= 0, yet no radius either
        with pytest.raises(ValueError, match="radius must be positive"):
            random_geometric(10, substream(8, "topology"), radius=bad)
    with pytest.raises(ConnectivityError):
        random_geometric(50, substream(8, "topology"), radius=1e-4)


def test_random_geometric_draws_without_dense_float_temporaries():
    # row blocks keep the float temporaries at O(N * RGG_BLOCK_ROWS): about
    # 2.7 MB at N=1000 with the 1 MB bool adjacency; (N, N) coordinate
    # differences would take 18 MB
    rng = substream(3, "topology", 1000)
    tracemalloc.start()
    try:
        g = random_geometric(1000, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.n_nodes == 1000
    assert peak < 6 * 2**20


def test_graph_checks_symmetry_without_a_transposed_copy():
    # the symmetry check reads each edge's reverse from the nonzero pairs the
    # neighbour lists need anyway: 0.86 MB at N=2000 against 4.0 MB with an
    # (N, N) transpose copy compared in full
    adj = random_geometric(2000, substream(3, "topology", 2000)).adjacency
    tracemalloc.start()
    try:
        g = Graph(adjacency=adj)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.adjacency is adj
    assert peak < 1.5 * 2**20


def test_tree_topology_validation():
    with pytest.raises(ValueError):
        TreeTopology(parent=np.array([0, 1]))  # no root
    with pytest.raises(ValueError):
        TreeTopology(parent=np.array([-1, -1]))  # two roots
    for cyclic in ([-1, 2, 1], [-1, 1], [-1, 0, 3, 2]):  # 1 <-> 2, 1 -> 1, 2 <-> 3
        with pytest.raises(ValueError, match="^parent array contains a cycle or unreachable node$"):
            TreeTopology(parent=np.array(cyclic))
    for bad in ([-1, 5], [-1, 0, 3], [-1, -2], [-1, 0, 1.5], [-1.0, 0.0], [[-1, 0]],
                np.array([True, False])):
        with pytest.raises(ValueError):
            TreeTopology(parent=bad)  # ids outside -1..N-1, non-integer entries, wrong shape
    tree = TreeTopology(parent=np.array([-1, 0, 0, 1]))
    assert tree.root == 0 and tree.depth == 2
    assert np.array_equal(tree.level, [0, 1, 1, 2])
    assert np.array_equal(tree.graph().neighbors(0), [1, 2])
    assert np.array_equal(tree.level_counts, [1, 2, 1])
    assert np.array_equal(tree.childless_counts, [0, 1, 1])


def test_spanning_tree_parent_rule():
    g = random_geometric(30, substream(9, "topology"))
    tree = spanning_tree(g)
    level = bfs_levels(g.adjacency, tree.root)
    assert np.array_equal(tree.level, level)
    for v in range(30):
        if v == tree.root:
            continue
        ups = [u for u in g.neighbors(v) if level[u] == level[v] - 1]
        assert tree.parent[v] == min(ups)
    # deterministic
    again = spanning_tree(random_geometric(30, substream(9, "topology")))
    assert np.array_equal(tree.parent, again.parent)


def test_spanning_tree_centers_the_root():
    g = path_graph(5)
    tree = spanning_tree(g)
    assert tree.root == 2
    assert tree.depth == 2
    even = spanning_tree(path_graph(6))
    assert even.root == 3 and even.depth == 3
    with pytest.raises(DisconnectedGraphError):
        spanning_tree(Graph(adjacency=np.zeros((3, 3), dtype=bool)))


def test_census_identities_on_random_trees():
    for i in range(10):
        g = random_geometric(25, substream(10, "topology", i))
        tree = spanning_tree(g)
        lam = tree.level_counts
        bar = tree.childless_counts
        assert lam.sum() == 25
        assert lam[0] == 1
        assert np.all(lam >= 1)
        assert np.all((bar >= 0) & (bar <= lam))
        assert bar[-1] == lam[-1]
        leaves = sum(1 for v in range(25) if not (tree.parent == v).any())
        assert bar.sum() == leaves


def test_complete_binary_tree_structure():
    tree = complete_binary_tree(3)
    assert tree.n_nodes == 15
    assert np.array_equal(tree.level_counts, [1, 2, 4, 8])
    assert np.array_equal(tree.childless_counts, [0, 0, 0, 8])
    for i in range(1, 15):
        assert tree.parent[i] == (i - 1) // 2
    single = complete_binary_tree(0)
    assert single.n_nodes == 1 and single.depth == 0
    with pytest.raises(ValueError):
        complete_binary_tree(-1)


def test_clustered_structure():
    topo = clustered(30, 5, substream(11, "topology"))
    assert topo.n_nodes == 30 and topo.n_clusters == 5
    sizes = np.bincount(topo.assignment, minlength=5)
    assert sizes.shape == (5,) and np.all(sizes >= 1) and sizes.sum() == 30
    for c, h in enumerate(topo.heads):
        assert topo.assignment[h] == c
    g = topo.graph()
    # heads form a mesh, members connect only to their head
    for a in topo.heads:
        for b in topo.heads:
            if a != b:
                assert g.adjacency[a, b]
    for v in range(30):
        if v not in topo.heads:
            h = topo.heads[topo.assignment[v]]
            assert np.array_equal(g.neighbors(v), [h])
    assert g.is_connected()


def test_clustered_tight_case_and_validation():
    # n_clusters == N forces the permutation fallback almost surely
    topo = clustered(12, 12, substream(12, "topology"))
    assert np.array_equal(np.sort(topo.assignment), np.arange(12))
    with pytest.raises(ValueError):
        clustered(5, 6, substream(12, "topology"))
    with pytest.raises(ValueError):
        clustered(5, 0, substream(12, "topology"))
    one = clustered(6, 1, substream(13, "topology"))
    assert one.heads.shape == (1,) and np.all(one.assignment == 0) and one.assignment.shape == (6,)
    for heads in ([0, -1], [0, 4], [0, 40]):  # a negative id would wrap to node 3
        with pytest.raises(ValueError, match="head ids"):
            ClusteredTopology(assignment=[0, 0, 1, 1], heads=heads)


def test_diameter():
    assert diameter(path_graph(6)) == 5
    complete = Graph(adjacency=~np.eye(5, dtype=bool))
    assert diameter(complete) == 1
    with pytest.raises(DisconnectedGraphError):
        diameter(Graph(adjacency=np.zeros((3, 3), dtype=bool)))


def test_save_topology_files(tmp_path):
    g = random_geometric(10, substream(14, "topology"))
    jpath = tmp_path / "topology.json"
    dpath = tmp_path / "topology.dot"
    save_topology(g, jpath, dot_path=dpath)
    loaded = json.loads(jpath.read_text())
    assert loaded["kind"] == "graph" and loaded["n"] == 10
    assert len(loaded["positions"]) == 10
    assert dpath.read_text().startswith("graph G {")

    tree = spanning_tree(g)
    save_topology(tree, jpath, dot_path=dpath)
    loaded = json.loads(jpath.read_text())
    assert loaded["kind"] == "tree"
    assert loaded["parent"][loaded["root"]] == -1
    assert sum(loaded["level_counts"]) == 10

    topo = clustered(9, 3, substream(14, "clusters"))
    save_topology(topo, jpath, dot_path=dpath)
    assert json.loads(jpath.read_text())["kind"] == "clustered"
    assert "subgraph cluster_0" in dpath.read_text()
