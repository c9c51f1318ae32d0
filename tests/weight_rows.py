"""Whole weight matrices for tests: a run result answers one node at a time,
through ``weights(k, r)``, and these stack every node's answer."""

import numpy as np


def weight_matrix(res, r=None) -> np.ndarray:
    """Row k is ``res.weights(k, r)``, for every node of the run."""
    return np.array([res.weights(k, r) for k in range(res.traffic.n_nodes)])


def knowledge(res, r=None) -> np.ndarray:
    """A flooding run's knowledge after round r as (N, N) bools: row k is the
    records node k holds."""
    return weight_matrix(res, r).astype(bool)
