"""Bit-identity pin of the scheduled runners at benchmark scale.

The engine oracles stop at 60 nodes; the ``schedules-n500`` workload runs TAS
and MF on 500-node BFS trees and 140-node clustered deployments. Each digest
below is the sha256 of one run's whole state: every tag table's
``(tag, merged)`` rows and the per-round row counts (TAS), or the knowledge
masks of every round (MF), then every traffic event in log order. The digests
were taken from the list-of-row-objects tables and per-send neighbour slices
that came before the list tables and cached neighbour lists.
"""

import hashlib

import numpy as np
import pytest

from spsnet.diffusion import run_mf_clustered, run_mf_tree, run_tas_clustered, run_tas_tree
from spsnet.model import Samples
from spsnet.rng import substream
from spsnet.sps import draw_sign_matrix
from spsnet.topology import clustered, random_geometric, spanning_tree

DIGESTS = {
    "tas-tree": "2b044e9153a5936f3224ccacf5fad07ca5ddaf6debb9b0350fa9e42ad8101a06",
    "mf-tree": "d1d0a909a846fa16c69abc17cffbf9680aabd68b9bc5976f50c787558405d133",
    "tas-clustered": "2d06757725922bd1cc5bf424886e43b9bb78496018f1413f570afc03e37434cc",
    "mf-clustered": "a8202332e778b310e22fa3edc29b1f6f6b6707c4e2f0f0f2dc623fd916e557e7",
}


def run_digest(res) -> str:
    h = hashlib.sha256()
    if hasattr(res, "tables"):
        for table in res.tables:
            h.update(repr(list(zip(table.tags, table.merged))).encode())
        h.update(repr(sorted(res.row_counts.items())).encode())
    else:
        h.update(repr(res.masks).encode())
    h.update(repr((res.rounds_run, res.traffic.events)).encode())
    return h.hexdigest()


@pytest.fixture(scope="module")
def runs():
    tree = spanning_tree(random_geometric(500, substream(3, "t")))
    topo = clustered(140, 20, substream(3, "c"))
    out = {}
    for name, n, tas, mf, net in [("tree", 500, run_tas_tree, run_mf_tree, tree),
                                  ("clustered", 140, run_tas_clustered, run_mf_clustered, topo)]:
        samples = Samples(np.zeros((n, 2)), np.zeros(n))
        out[f"tas-{name}"] = tas(net, samples, draw_sign_matrix(10, n, 3))
        out[f"mf-{name}"] = mf(net, samples)
    return out


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_scheduled_runs_match_their_pinned_digests(runs, name):
    assert run_digest(runs[name]) == DIGESTS[name]
