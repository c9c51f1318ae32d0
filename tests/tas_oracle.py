"""Eager TAS distillation and tag-matrix wrap-up over plain sets, with payloads.

The package stores each tag as an ``int`` bitmask, keeps no payload, reads
the covered mask and disjointness of a table's rows off the OR and bit counts
of their tags, and reads a disjoint table's weights off that mask; the
aggregate is built from the weights (``sps.tie_exact_aggregate``). These
oracles keep tags as ``frozenset``s in a minimal table of their own, carry a
payload with every row, and do the same steps the direct way: distillation
subtracts the stored payloads before it knows whether the residual is kept,
coverage and the tag matrix walk every tag node by node, and every wrap-up
builds the tag matrix and sums the b-weighted payloads. So the package's bit
logic is checked against plain set algebra. Tests require the package to
make the same decisions (on decoded masks) and to reach the same weights bit
for bit, with the same number of LP solves, and the oracle's aggregate to be
close to the one built from those weights.

``plus``, ``minus`` and ``scaled`` are the payload arithmetic the package
once did in place; each returns a new aggregate with the same bits.
"""

from dataclasses import dataclass

import numpy as np

from spsnet import diffusion
from spsnet.lp import LpProblem
from spsnet.sps import AggregateSums


@dataclass(eq=False)
class WrapUpWeights:
    """Per-node contribution weights c in [0, 1]^N, the wrap-up's result type
    before the package returned a plain array.

    Values within 1e-9 outside the box are clamped; anything further out is
    rejected. c_i = 1 means node i's data contributes exactly once, fractional
    values mean partial use, 0 means unused.
    """

    c: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        if c.ndim != 1:
            raise ValueError("weights must be one-dimensional")
        tol = 1e-9
        if np.any(c < -tol) or np.any(c > 1 + tol):
            raise ValueError("weights must lie in [0, 1] (within 1e-9)")
        self.c = np.clip(c, 0.0, 1.0)


def plus(a: AggregateSums, b: AggregateSums) -> AggregateSums:
    return AggregateSums(a.vec + b.vec, a.mat + b.mat)


def minus(a: AggregateSums, b: AggregateSums) -> AggregateSums:
    return AggregateSums(a.vec - b.vec, a.mat - b.mat)


def scaled(a: AggregateSums, factor: float) -> AggregateSums:
    return AggregateSums(a.vec * factor, a.mat * factor)


def mask(*nodes: int) -> int:
    """The bitmask tag of the given node ids."""
    out = 0
    for i in nodes:
        out |= 1 << i
    return out


def nodes(tag: int) -> frozenset:
    """The node ids a bitmask tag names."""
    return frozenset(i for i in range(tag.bit_length()) if tag >> i & 1)


@dataclass(eq=False)
class SetRow:
    tag: frozenset
    payload: AggregateSums


class SetTable:
    """A tag table whose tags are frozensets; row 0 is the owner's local row."""

    def __init__(self, owner: int, n_nodes: int, local_payload):
        self.owner = owner
        self.n_nodes = n_nodes
        self.rows = [SetRow(frozenset({owner}), local_payload)]
        self._wrapup = (b"", None)

    def append(self, tag: frozenset, payload) -> SetRow:
        assert tag and min(tag) >= 0 and max(tag) < self.n_nodes
        assert tag not in {r.tag for r in self.rows}
        row = SetRow(frozenset(tag), payload)
        self.rows.append(row)
        return row


def coverage(table) -> frozenset:
    out: set = set()
    for row in table.rows:
        out |= row.tag
    return frozenset(out)


def tag_matrix(table) -> np.ndarray:
    t = np.zeros((len(table.rows), table.n_nodes), dtype=np.uint8)
    for r, row in enumerate(table.rows):
        t[r, list(row.tag)] = 1
    return t


def tas_distill(table, tag: frozenset, payload: AggregateSums):
    remaining = set(tag)
    residual = payload
    for row in table.rows:
        if row.tag <= remaining:
            remaining -= row.tag
            residual = minus(residual, row.payload)
    if not remaining:
        return None
    ftag = frozenset(remaining)
    if ftag in {r.tag for r in table.rows}:
        return None
    return table.append(ftag, residual)


def tas_wrapup(table) -> tuple[WrapUpWeights, AggregateSums]:
    """Wrap-up through the tag matrix; b is reused while the tag matrix is
    unchanged, and ``diffusion.solve_lp`` is looked up at call time so a test
    can count its calls."""
    tags = tag_matrix(table)
    key = tags.tobytes()
    tagmat = tags.astype(float)
    if table._wrapup[0] != key:
        if tagmat.sum(axis=0).max() <= 1:
            b = np.ones(len(table.rows))
        else:
            b, _ = diffusion.solve_lp(LpProblem(tagmat))
        b.flags.writeable = False
        table._wrapup = (key, b)
    b = table._wrapup[1]
    c = b @ tagmat
    c[np.abs(c) <= 1e-9] = 0.0
    c[np.abs(c - 1.0) <= 1e-9] = 1.0
    weights = WrapUpWeights(c)
    agg = None
    for coeff, row in zip(b, table.rows):
        if coeff == 0:
            continue
        term = scaled(row.payload, coeff) if coeff != 1 else row.payload
        agg = term if agg is None else plus(agg, term)
    if agg is None:
        first = table.rows[0].payload
        agg = AggregateSums.zeros(first.m, first.n_p)
    return weights, agg
