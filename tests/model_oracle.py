"""Per-node measurement model: one regressor, one dot product per node.

This is the node-by-node path ``model.generate_measurements`` replaced with
column products and one ``np.vecdot``. It is kept as a test oracle: the
array path must give the same ``phi`` and ``y`` bit for bit.
"""

from __future__ import annotations

import hashlib

import numpy as np

from spsnet.model import FieldConfig, _monomial_exponents


def regressor(position, config: FieldConfig) -> np.ndarray:
    """Regressor vector phi(x) of length n_p for one position."""
    x = np.asarray(position, dtype=float)
    if x.shape != (config.n_x,):
        raise ValueError(f"position must have shape ({config.n_x},), got {x.shape}")
    if config.regressor_family == "polynomial-basis":
        phi = np.empty(config.n_p)
        for k, idx in enumerate(_monomial_exponents(config.n_x, config.n_p)):
            phi[k] = np.prod(x[list(idx)]) if idx else 1.0
        return phi
    h = hashlib.blake2s(digest_size=16)
    h.update(int(config.regressor_seed).to_bytes(16, "little", signed=True))
    h.update(x.tobytes())
    rng = np.random.default_rng(int.from_bytes(h.digest(), "little"))
    return rng.uniform(-1.0, 1.0, config.n_p)


def eval_field(phi, p) -> float:
    """Noiseless field value phi . p."""
    phi = np.asarray(phi, dtype=float)
    p = np.asarray(p, dtype=float)
    if phi.shape != p.shape:
        raise ValueError("phi and p must have the same shape")
    return float(phi @ p)


def measurements(positions, config: FieldConfig, rng: np.random.Generator):
    """(phi (N, n_p), y (N,)) built node by node, drawing the noise as the model does."""
    pos = np.asarray(positions, dtype=float)
    noise = config.noise.sample(rng, pos.shape[0])
    rows = [regressor(pos[i], config) for i in range(pos.shape[0])]
    y = [eval_field(phi, config.p_true) + noise[i] for i, phi in enumerate(rows)]
    return np.stack(rows), np.array(y)
