"""Network topologies: random geometric graphs, spanning trees, clusters.

Nodes live on the unit square and hear every neighbor within the
communication radius sqrt(log2(N) / (2 N)), a scaling that keeps random
deployments connected with high probability while the neighborhood stays
sparse. Tree schedules consume a per-level census: level_counts[l] is the
number of nodes at hop-depth l from the root and childless_counts[l] counts
the ones with no children, the two quantities the closed-form traffic
predictions are written in.
"""

from __future__ import annotations

import json
import logging
import math
import operator
from dataclasses import dataclass, field

import numpy as np

logger = logging.getLogger(__name__)


class DisconnectedGraphError(ValueError):
    """Operation requires a connected graph."""


class ConnectivityError(RuntimeError):
    """Could not draw a connected random deployment within the retry budget."""


def comm_radius(n_nodes: int) -> float:
    """Broadcast radius sqrt(log2(N) / (2N)) used for random deployments."""
    if n_nodes < 2:
        raise ValueError("communication radius needs at least two nodes")
    return math.sqrt(math.log2(n_nodes) / (2.0 * n_nodes))


@dataclass(eq=False)
class Graph:
    """Undirected graph as a boolean adjacency matrix, optionally embedded."""

    adjacency: np.ndarray
    positions: np.ndarray | None = None
    radius: float | None = None

    def __post_init__(self):
        adj = np.asarray(self.adjacency, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError("adjacency must be square")
        if not np.array_equal(adj, adj.T):
            raise ValueError("adjacency must be symmetric")
        if np.any(np.diag(adj)):
            raise ValueError("self-loops are not allowed")
        self.adjacency = adj
        if self.positions is not None:
            self.positions = np.asarray(self.positions, dtype=float)
            if self.positions.shape[0] != adj.shape[0]:
                raise ValueError("positions must match the node count")
        _, cols = np.nonzero(adj)  # row-major: each row's ids ascending, rows in order
        ends = np.cumsum(adj.sum(axis=1)).tolist()
        self._neighbors = [cols[a:b] for a, b in zip([0] + ends[:-1], ends)]

    @property
    def n_nodes(self) -> int:
        return self.adjacency.shape[0]

    def neighbors(self, i: int) -> np.ndarray:
        return self._neighbors[i]

    @property
    def degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=1)

    @property
    def edges(self) -> list[tuple[int, int]]:
        ii, jj = np.nonzero(np.triu(self.adjacency, 1))
        return list(zip(ii.tolist(), jj.tolist()))

    def is_connected(self) -> bool:
        return bool((bfs_levels(self.adjacency, 0) >= 0).all())

    def to_json_dict(self) -> dict:
        d = {"kind": "graph", "n": self.n_nodes, "edges": [list(e) for e in self.edges]}
        if self.positions is not None:
            d["positions"] = self.positions.tolist()
        if self.radius is not None:
            d["comm_radius"] = self.radius
        return d

    def to_dot(self) -> str:
        lines = ["graph G {"]
        for i in range(self.n_nodes):
            if self.positions is not None:
                x, y = self.positions[i]
                lines.append(f'  {i} [pos="{x:.4f},{y:.4f}!"];')
            else:
                lines.append(f"  {i};")
        for a, b in self.edges:
            lines.append(f"  {a} -- {b};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def bfs_levels(adjacency: np.ndarray, root: int) -> np.ndarray:
    """Hop distance from root per node, -1 where unreachable."""
    n = adjacency.shape[0]
    level = np.full(n, -1, dtype=int)
    level[root] = 0
    frontier = np.zeros(n, dtype=bool)
    frontier[root] = True
    depth = 0
    while frontier.any():
        depth += 1
        reached = adjacency[frontier].any(axis=0) & (level < 0)
        level[reached] = depth
        frontier = reached
    return level


MAX_RETRIES = 100  # deployments ``random_geometric`` draws before giving up


def random_geometric(n_nodes: int, rng: np.random.Generator, radius: float | None = None) -> Graph:
    """Connected random geometric graph on the unit square.

    Positions are uniform; nodes within ``radius`` (default: comm_radius(N))
    of each other are adjacent: ``dx*dx + dy*dy <= radius**2`` on the two
    planar (N, N) coordinate differences, which are the products and the add
    a sum of squared difference vectors makes, so no (N, N, 2) array is
    built. Redraws positions until the graph is connected, up to
    ``MAX_RETRIES`` attempts (the retry count is logged, not returned), then
    raises ConnectivityError.
    """
    if n_nodes < 2:
        raise ValueError("need at least two nodes")
    if radius is None:
        radius = comm_radius(n_nodes)
    elif radius <= 0:
        raise ValueError("radius must be positive")
    for attempt in range(1, MAX_RETRIES + 1):
        pos = rng.uniform(0.0, 1.0, size=(n_nodes, 2))
        dx = np.subtract.outer(pos[:, 0], pos[:, 0])
        dy = np.subtract.outer(pos[:, 1], pos[:, 1])
        dx *= dx
        dy *= dy
        dx += dy
        adj = dx <= radius ** 2
        np.fill_diagonal(adj, False)
        if (bfs_levels(adj, 0) >= 0).all():
            if attempt > 1:
                logger.debug("random_geometric: connected after %d attempts", attempt)
            return Graph(adjacency=adj, positions=pos, radius=radius)
    raise ConnectivityError(
        f"no connected deployment of {n_nodes} nodes in {MAX_RETRIES} attempts"
    )


@dataclass(eq=False)
class TreeTopology:
    """Rooted tree given by a parent array (parent[root] = -1).

    Every entry must be an integer id in -1..N-1; anything else raises
    ValueError.
    """

    parent: np.ndarray
    level: np.ndarray = field(init=False)

    def __post_init__(self):
        parent = np.asarray(self.parent)
        if parent.ndim != 1 or parent.dtype.kind not in "iu":
            raise ValueError("parent must be a 1-D array of integer node ids")
        n = parent.shape[0]
        if ((parent < -1) | (parent >= n)).any():
            raise ValueError(f"parent ids must lie in -1..{n - 1}")
        self.parent = np.asarray(parent, dtype=int)
        roots = np.flatnonzero(self.parent < 0)
        if roots.shape[0] != 1:
            raise ValueError("tree must have exactly one root (parent -1)")
        level = np.full(n, -1, dtype=int)
        level[roots[0]] = 0
        # parents must resolve without cycles
        for _ in range(n):
            progress = (level < 0) & (self.parent >= 0)
            progress &= np.where(self.parent >= 0, level[self.parent] >= 0, False)
            if not progress.any():
                break
            level[progress] = level[self.parent[progress]] + 1
        if (level < 0).any():
            raise ValueError("parent array contains a cycle or unreachable node")
        self.level = level
        self._n_children = np.bincount(self.parent + 1, minlength=n + 1)[1:]
        self._graph: Graph | None = None

    @property
    def n_nodes(self) -> int:
        return self.parent.shape[0]

    @property
    def root(self) -> int:
        return int(np.flatnonzero(self.parent < 0)[0])

    @property
    def depth(self) -> int:
        """Deepest level L; levels run 0..L."""
        return int(self.level.max())

    def nodes_at_level(self, l: int) -> np.ndarray:
        return np.flatnonzero(self.level == l)

    @property
    def level_counts(self) -> np.ndarray:
        """Census: number of nodes per level, index 0 is the root level."""
        return np.bincount(self.level, minlength=self.depth + 1)

    @property
    def childless_counts(self) -> np.ndarray:
        """Census of nodes with no children, per level."""
        return np.bincount(self.level[self._n_children == 0], minlength=self.depth + 1)

    def stages(self) -> list[np.ndarray]:
        """Sender sets of the two-sweep schedule, ids ascending within a stage.

        Forward sweep: levels L, L-1, ..., 0, every node of the level, so a
        node's whole subtree has reached it by the time it sends and the root
        ends with every record. Backward sweep: levels 1, ..., L-1, nodes with
        children only, passing down what came from above. 2L stages in all
        (one for a single node). Each sender is heard by its tree neighbours.
        """
        inner = self._n_children > 0
        forward = [self.nodes_at_level(l) for l in range(self.depth, -1, -1)]
        backward = [np.flatnonzero((self.level == l) & inner) for l in range(1, self.depth)]
        return forward + backward

    def graph(self) -> Graph:
        """Every node linked to its parent; built on the first call, the same
        object after that."""
        if self._graph is None:
            n = self.n_nodes
            adj = np.zeros((n, n), dtype=bool)
            child = np.flatnonzero(self.parent >= 0)
            adj[child, self.parent[child]] = True
            self._graph = Graph(adjacency=adj | adj.T)
        return self._graph

    def to_json_dict(self) -> dict:
        return {
            "kind": "tree",
            "n": self.n_nodes,
            "root": self.root,
            "parent": self.parent.tolist(),
            "level_counts": self.level_counts.tolist(),
            "childless_counts": self.childless_counts.tolist(),
        }

    def to_dot(self) -> str:
        lines = ["digraph T {"]
        for i in range(self.n_nodes):
            p = self.parent[i]
            if p >= 0:
                lines.append(f"  {p} -> {i};")
            else:
                lines.append(f"  {i};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def spanning_tree(graph: Graph, root: int | None = None) -> TreeTopology:
    """Breadth-first spanning tree of a connected graph.

    Each node's parent is its smallest-id neighbor one level closer to the
    root, so the tree is deterministic: one ``argmax`` per row of the
    adjacency masked to the level above picks the first such column. When
    ``root`` is omitted it is chosen by a double-BFS midpoint heuristic (BFS
    from node 0 to a farthest node a, BFS from a to a farthest node b, root =
    midpoint of the a-b path), which keeps the tree depth near half the graph
    diameter. A given ``root`` outside 0..N-1 raises ValueError.
    """
    if root is not None and not 0 <= operator.index(root) < graph.n_nodes:
        raise ValueError(f"root {root} is not a node id in 0..{graph.n_nodes - 1}")
    if not graph.is_connected():
        raise DisconnectedGraphError("spanning tree requires a connected graph")
    if root is None:
        root = _center_node(graph)
    level = bfs_levels(graph.adjacency, root)
    parent = (graph.adjacency & (level[None, :] == level[:, None] - 1)).argmax(axis=1)
    parent[root] = -1
    return TreeTopology(parent=parent)


def _center_node(graph: Graph) -> int:
    lev0 = bfs_levels(graph.adjacency, 0)
    a = int(np.argmax(lev0))
    leva = bfs_levels(graph.adjacency, a)
    b = int(np.argmax(leva))
    # walk the a-b shortest path by descending levels from b
    path = [b]
    while path[-1] != a:
        v = path[-1]
        nxt = min(u for u in graph.neighbors(v) if leva[u] == leva[v] - 1)
        path.append(int(nxt))
    return path[len(path) // 2]


def complete_binary_tree(depth: int) -> TreeTopology:
    """Complete binary tree with levels 0..depth, N = 2^(depth+1) - 1 nodes.

    Node i's parent is (i - 1) // 2; level l holds 2^l nodes.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    n = 2 ** (depth + 1) - 1
    parent = np.array([-1] + [(i - 1) // 2 for i in range(1, n)], dtype=int)
    return TreeTopology(parent=parent)


@dataclass(eq=False)
class ClusteredTopology:
    """Cluster partition with one head per cluster.

    Members connect only to their head (star); heads are pairwise connected
    (full mesh). ``assignment[i]`` is node i's cluster, ``heads[c]`` its head.
    """

    assignment: np.ndarray
    heads: np.ndarray

    def __post_init__(self):
        self.assignment = np.asarray(self.assignment, dtype=int)
        self.heads = np.asarray(self.heads, dtype=int)
        n_c = self.heads.shape[0]
        sizes = np.bincount(self.assignment, minlength=n_c)
        if sizes.shape[0] != n_c or (sizes == 0).any():
            raise ValueError("every cluster must be non-empty")
        for c, h in enumerate(self.heads):
            if self.assignment[h] != c:
                raise ValueError("each head must belong to its own cluster")

    @property
    def n_nodes(self) -> int:
        return self.assignment.shape[0]

    @property
    def n_clusters(self) -> int:
        return self.heads.shape[0]

    def members(self, c: int) -> np.ndarray:
        return np.flatnonzero(self.assignment == c)

    def stages(self) -> list[np.ndarray]:
        """Sender sets of the three-stage schedule, ids ascending within a stage.

        Stage 1: every member sends to its head. Stage 2: every head sends
        to the other heads and its own members. Stage 3: every head sends
        again, now carrying the other clusters' data to its members. Each
        sender is heard by its neighbours in ``graph()``.
        """
        is_head = np.zeros(self.n_nodes, dtype=bool)
        is_head[self.heads] = True
        heads = np.flatnonzero(is_head)
        return [np.flatnonzero(~is_head), heads, heads]

    def graph(self) -> Graph:
        """Members linked to their head, heads linked pairwise."""
        n = self.n_nodes
        adj = np.zeros((n, n), dtype=bool)
        adj[np.arange(n), self.heads[self.assignment]] = True
        adj[np.ix_(self.heads, self.heads)] = True
        adj |= adj.T
        np.fill_diagonal(adj, False)
        return Graph(adjacency=adj)

    def to_json_dict(self) -> dict:
        return {
            "kind": "clustered",
            "n": self.n_nodes,
            "n_clusters": self.n_clusters,
            "assignment": self.assignment.tolist(),
            "heads": self.heads.tolist(),
        }

    def to_dot(self) -> str:
        lines = ["graph C {"]
        for c in range(self.n_clusters):
            h = self.heads[c]
            lines.append(f"  subgraph cluster_{c} {{")
            for v in self.members(c):
                shape = "box" if v == h else "ellipse"
                lines.append(f"    {v} [shape={shape}];")
            lines.append("  }")
        for c in range(self.n_clusters):
            h = self.heads[c]
            for v in self.members(c):
                if v != h:
                    lines.append(f"  {v} -- {h};")
        hs = sorted(int(h) for h in self.heads)
        for i, a in enumerate(hs):
            for b in hs[i + 1 :]:
                lines.append(f"  {a} -- {b};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def clustered(n_nodes: int, n_clusters: int, rng: np.random.Generator) -> ClusteredTopology:
    """Uniform cluster assignment conditioned on every cluster being non-empty.

    Sampled by rejection from the unconditioned uniform assignment; when the
    acceptance probability is too small (n_clusters close to N) it falls back
    to a shuffled one-node-per-cluster assignment, which is exact for
    n_clusters == N. Heads are drawn uniformly among each cluster's members.
    """
    if not 1 <= n_clusters <= n_nodes:
        raise ValueError("need 1 <= n_clusters <= n_nodes")
    assignment = None
    for _ in range(1000):
        cand = rng.integers(0, n_clusters, size=n_nodes)
        if np.bincount(cand, minlength=n_clusters).min() > 0:
            assignment = cand
            break
    if assignment is None:
        order = rng.permutation(n_nodes)
        assignment = np.empty(n_nodes, dtype=int)
        assignment[order[:n_clusters]] = np.arange(n_clusters)
        assignment[order[n_clusters:]] = rng.integers(0, n_clusters, size=n_nodes - n_clusters)
    heads = np.empty(n_clusters, dtype=int)
    for c in range(n_clusters):
        members = np.flatnonzero(assignment == c)
        heads[c] = members[rng.integers(0, members.shape[0])]
    return ClusteredTopology(assignment=assignment, heads=heads)


def diameter(graph: Graph) -> int:
    """Largest hop distance between any two nodes."""
    worst = 0
    for i in range(graph.n_nodes):
        lev = bfs_levels(graph.adjacency, i)
        if (lev < 0).any():
            raise DisconnectedGraphError("diameter requires a connected graph")
        worst = max(worst, int(lev.max()))
    return worst


def save_topology(topo, path, dot_path=None) -> None:
    """Write a topology JSON file (and optionally its DOT rendering)."""
    with open(path, "w") as fh:
        json.dump(topo.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    if dot_path is not None:
        with open(dot_path, "w") as fh:
            fh.write(topo.to_dot())
