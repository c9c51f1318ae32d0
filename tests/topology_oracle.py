"""Random geometric graphs and tree censuses the direct, per-node way.

The package builds a random geometric graph's adjacency from two planar
(N, N) coordinate differences, picks every spanning-tree parent off the
neighbour lists in one pass, reads a tree's children and childless census
off a ``bincount``, and validates a parent array and finds its levels with
one BFS over the child-parent edges. These oracles keep the forms those
replaced: the (N, N, 2) difference-vector formula, loops over the nodes,
and level-by-level parent chasing. Tests require equal arrays, so the
vectorised forms are checked to the bit.
"""

import numpy as np


def rgg_adjacency(positions: np.ndarray, radius: float) -> np.ndarray:
    """Nodes within ``radius`` of each other, from squared difference vectors."""
    diff = positions[:, None, :] - positions[None, :, :]
    adj = (diff ** 2).sum(axis=2) <= radius ** 2
    np.fill_diagonal(adj, False)
    return adj


def tree_levels(parent: np.ndarray) -> np.ndarray:
    """Hop depth per node, resolved level by level from the root by chasing
    parents; raises ValueError unless exactly one entry is -1 and every
    parent chain reaches it."""
    n = parent.shape[0]
    roots = np.flatnonzero(parent < 0)
    if roots.shape[0] != 1:
        raise ValueError("tree must have exactly one root (parent -1)")
    level = np.full(n, -1, dtype=int)
    level[roots[0]] = 0
    for _ in range(n):
        progress = (level < 0) & (parent >= 0)
        progress &= np.where(parent >= 0, level[parent] >= 0, False)
        if not progress.any():
            break
        level[progress] = level[parent[progress]] + 1
    if (level < 0).any():
        raise ValueError("parent array contains a cycle or unreachable node")
    return level


def bfs_parents(graph, level: np.ndarray, root: int) -> np.ndarray:
    """Each node's smallest-id neighbour one level closer to the root."""
    parent = np.full(graph.n_nodes, -1, dtype=int)
    for v in range(graph.n_nodes):
        if v == root:
            continue
        ups = [u for u in graph.neighbors(v) if level[u] == level[v] - 1]
        parent[v] = min(ups)
    return parent


def children(parent: np.ndarray) -> list[np.ndarray]:
    """Each node's children, ids ascending."""
    return [np.flatnonzero(parent == i) for i in range(parent.shape[0])]


def childless_counts(parent: np.ndarray, level: np.ndarray) -> np.ndarray:
    """Per level, the number of nodes with no children."""
    counts = np.zeros(level.max() + 1, dtype=int)
    for i, kids in enumerate(children(parent)):
        if kids.size == 0:
            counts[level[i]] += 1
    return counts


def stages(parent: np.ndarray, level: np.ndarray) -> list[np.ndarray]:
    """The two-sweep schedule: every level deepest first, then levels 1..L-1
    again, nodes with children only."""
    inner = np.array([kids.size > 0 for kids in children(parent)], dtype=bool)
    depth = int(level.max())
    forward = [np.flatnonzero(level == l) for l in range(depth, -1, -1)]
    backward = [np.flatnonzero((level == l) & inner) for l in range(1, depth)]
    return forward + backward

