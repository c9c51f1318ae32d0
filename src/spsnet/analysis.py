"""Closed-form communication totals for the scheduled diffusion protocols.

All formulas count scalars and are exact: the simulators in
:mod:`spsnet.diffusion` reproduce them payload for payload. Tree formulas are
written in terms of the per-level census of a rooted tree,

    level_counts[l]      number of nodes at depth l          (l = 0..L)
    childless_counts[l]  number of those without children,

which is all the protocols' schedules depend on. Clustered formulas depend
only on (N, n_c). The binary-tree specializations admit a closed crossover
size beyond which the tagged-aggregate protocol is always cheaper than
modified flooding.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .diffusion import payload_sizes


def _validate_census(level_counts, childless_counts) -> tuple[np.ndarray, np.ndarray]:
    lam = np.asarray(level_counts)
    bar = np.asarray(childless_counts)
    if lam.ndim != 1 or bar.ndim != 1 or lam.shape != bar.shape or lam.size == 0:
        raise ValueError("census arrays must be equally sized, one entry per level")
    if not (np.issubdtype(lam.dtype, np.integer) or np.all(lam == np.floor(lam))):
        raise ValueError("level counts must be integers")
    lam = lam.astype(np.int64)
    bar = bar.astype(np.int64)
    if lam[0] != 1:
        raise ValueError("a rooted tree has exactly one node at level 0")
    if np.any(lam < 1):
        raise ValueError("every level of the census must be non-empty")
    if np.any(bar < 0) or np.any(bar > lam):
        raise ValueError("childless counts must lie between 0 and the level counts")
    if bar[-1] != lam[-1]:
        raise ValueError("all deepest-level nodes are childless")
    return lam, bar


def traffic_tas_tree(level_counts, childless_counts, n_p: int, m: int) -> int:
    """Exact scalar total for tagged aggregate sums on a rooted tree.

    Forward sweep: every node sends one aggregate payload (N messages).
    Backward sweep: levels 1..L-1 minus their childless nodes send one each.
    """
    lam, bar = _validate_census(level_counts, childless_counts)
    _, d_agg = payload_sizes(n_p, m)
    payloads = int(lam.sum() + lam[1:-1].sum() - bar[1:-1].sum())
    return payloads * d_agg


def traffic_mf_tree(level_counts, childless_counts, n_p: int, m: int) -> int:
    """Exact scalar total for modified flooding on a rooted tree.

    Each node forwards its subtree on the forward sweep and, if it is a
    non-root node with children, the rest of the network on the backward
    sweep. So the root sends N records, every other node with children N, and
    every other childless node its own one:

        N * (1 + sum_{l=1}^{L} (level_counts[l] - childless_counts[l]))
          + sum_{l=1}^{L} childless_counts[l]

    records of n_p + 1 scalars. A one-node tree (L = 0) is its root alone,
    which sends its one record once.
    """
    lam, bar = _validate_census(level_counts, childless_counts)
    n = int(lam.sum())
    d_rec, _ = payload_sizes(n_p, m)
    records = n * (1 + int((lam[1:] - bar[1:]).sum())) + int(bar[1:].sum())
    return records * d_rec


def _binary_size(depth: int) -> int:
    if depth < 1:
        raise ValueError("binary-tree formulas need depth >= 1")
    return 2 ** (depth + 1) - 1


def traffic_tas_binary(depth: int, n_p: int, m: int) -> int:
    """(3N - 3) / 2 aggregate payloads on the complete binary tree."""
    n = _binary_size(depth)
    _, d_agg = payload_sizes(n_p, m)
    return (3 * n - 3) // 2 * d_agg


def traffic_mf_binary(depth: int, n_p: int, m: int) -> int:
    """(N^2 + 1) / 2 records on the complete binary tree."""
    n = _binary_size(depth)
    d_rec, _ = payload_sizes(n_p, m)
    return (n * n + 1) // 2 * d_rec


def _validate_clustered(n_nodes: int, n_clusters: int) -> None:
    if n_clusters < 1 or n_nodes < n_clusters:
        raise ValueError("need 1 <= n_clusters <= n_nodes")


def traffic_tas_clustered(n_nodes: int, n_clusters: int, n_p: int, m: int) -> int:
    """(N + n_c) aggregate payloads: member uploads plus two head broadcasts."""
    _validate_clustered(n_nodes, n_clusters)
    _, d_agg = payload_sizes(n_p, m)
    return (n_nodes + n_clusters) * d_agg


def traffic_mf_clustered(n_nodes: int, n_clusters: int, n_p: int, m: int) -> int:
    """(N - n_c) member uploads, then each head relays all N records."""
    _validate_clustered(n_nodes, n_clusters)
    d_rec, _ = payload_sizes(n_p, m)
    return (n_nodes - n_clusters + n_clusters * n_nodes) * d_rec


def critical_size(n_p: int, m: int) -> float:
    """Binary-tree network size above which tagged aggregates beat flooding.

    Equating (N^2 + 1)/2 * d_record with (3N - 3)/2 * d_aggregate and taking
    the larger root in N gives, with k = d_record / d_aggregate,

        N* = (3 + sqrt(9 - 4 k (3 + k))) / (2 k).

    Modified flooding is cheaper between the two roots, tagged aggregates
    beyond N*. Since k <= 1/2 for every valid (n_p, m), the discriminant is
    always positive.
    """
    d_rec, d_agg = payload_sizes(n_p, m)
    k = d_rec / d_agg
    disc = 9.0 - 4.0 * k * (3.0 + k)
    if disc < 0:
        raise ValueError("payload ratio too large for a crossover")
    return (3.0 + math.sqrt(disc)) / (2.0 * k)


@dataclass(frozen=True)
class Comparison:
    """The exact MF and TAS scalar totals on one topology; binary comparisons
    also carry the crossover size."""

    topology: str
    n_nodes: int
    mf: int
    tas: int
    critical_size: float | None = None

    @property
    def winner(self) -> str:
        """"mf" or "tas", whichever moves fewer scalars, or "tie"."""
        if self.mf == self.tas:
            return "tie"
        return "mf" if self.mf < self.tas else "tas"


def compare(
    kind: str,
    n_p: int,
    m: int,
    depth: int | None = None,
    level_counts=None,
    childless_counts=None,
    n_nodes: int | None = None,
    n_clusters: int | None = None,
) -> Comparison:
    """Predicted MF/TAS totals for one topology, plus the winner.

    kind is one of "binary" (give depth), "tree" (give the census arrays) or
    "clustered" (give n_nodes and n_clusters). Binary comparisons also carry
    the crossover size. n_p and m are checked before the topology arguments.
    """
    payload_sizes(n_p, m)
    if kind == "binary":
        if depth is None:
            raise ValueError("binary comparison needs depth")
        n = _binary_size(depth)
        return Comparison("binary", n, traffic_mf_binary(depth, n_p, m), traffic_tas_binary(depth, n_p, m),
                          critical_size(n_p, m))
    if kind == "tree":
        if level_counts is None or childless_counts is None:
            raise ValueError("tree comparison needs the census arrays")
        n = int(np.asarray(level_counts).sum())
        return Comparison("tree", n, traffic_mf_tree(level_counts, childless_counts, n_p, m),
                          traffic_tas_tree(level_counts, childless_counts, n_p, m))
    if kind == "clustered":
        if n_nodes is None or n_clusters is None:
            raise ValueError("clustered comparison needs n_nodes and n_clusters")
        return Comparison("clustered", n_nodes, traffic_mf_clustered(n_nodes, n_clusters, n_p, m),
                          traffic_tas_clustered(n_nodes, n_clusters, n_p, m))
    raise ValueError(f"unknown topology kind {kind!r}")
