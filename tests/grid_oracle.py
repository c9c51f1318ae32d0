"""Per-point einsum evaluation of a region grid, as the package first did it.

The package builds Z from per-axis terms of the grid's Cartesian product. This
oracle lists every cell centre as a point and evaluates Z with two einsums, and
it draws the (n_cells, m) tie-uniform block on every call, whether or not any
cell has a tie. Tests require the package to reproduce it bit for bit.
"""

import numpy as np


def cell_points(box, shape) -> np.ndarray:
    """Cell centres of the grid, one row per cell in C order; shape (n_cells, n_p)."""
    axes = [lo + (np.arange(g) + 0.5) * (hi - lo) / g for (lo, hi), g in zip(box, shape)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel(order="C") for m in mesh], axis=1)


def z_values_points(agg, points) -> np.ndarray:
    """Z values for many points at once; shape (m, n_points)."""
    s = agg.vec[:, None, :] - np.einsum("jkl,cl->jck", agg.mat, points)
    return np.einsum("jck,jck->jc", s, s)


def region(agg, box, shape, q, tie_seed):
    """(member_mask, volume, bounding_box) with an eager tie draw."""
    box = [(float(lo), float(hi)) for lo, hi in box]
    shape = tuple(shape)
    n_p = len(shape)
    z = z_values_points(agg, cell_points(box, shape))
    # row i of this matrix is cell i's tie stream
    u = np.random.default_rng(np.random.SeedSequence(int(tie_seed))).uniform(
        size=(z.shape[1], agg.m)
    )
    above = (z[1:] > z[0]) | ((z[1:] == z[0]) & (u[:, 1:].T > u[:, 0]))
    member = (above.sum(axis=0) >= q).reshape(shape)
    widths = [(hi - lo) / g for (lo, hi), g in zip(box, shape)]
    volume = float(member.sum()) * float(np.prod(widths))
    if not member.any():
        return member, volume, None
    bounding = []
    for dim in range(n_p):
        idx = np.nonzero(member.any(axis=tuple(d for d in range(n_p) if d != dim)))[0]
        lo, _ = box[dim]
        bounding.append((lo + idx[0] * widths[dim], lo + (idx[-1] + 1) * widths[dim]))
    return member, volume, bounding
