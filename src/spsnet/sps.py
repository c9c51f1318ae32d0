"""Sign-perturbed sums: exact, non-asymptotic confidence regions.

Given samples (phi_i, y_i) and an m x N matrix A of random signs whose first
row is all +1, define for a candidate parameter p

    S_j(p) = sum_i c_i * A[j, i] * phi_i * (y_i - phi_i . p),    Z_j(p) = ||S_j(p)||^2

with per-node weights c_i (all ones for complete data). The region keeps the
points p where Z_0 is not among the q largest of the m values, with ties
broken uniformly at random. For the true parameter the residuals reduce to
symmetric noise, making each ordering of the Z values equally likely, so

    Prob(p_true in region) = 1 - q/m        exactly,

for any fixed weights that do not depend on the data, any sample size and any
noise symmetric about zero. The aggregate sums S_j are linear in per-node
terms, which is what lets diffusion protocols assemble them from partial
information. Flooding knowledge gives 0/1 weights and the TAS wrap-up keeps
them in [0, 1]; consensus weights N * W^t can exceed 1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import Samples


class SingularMatrixError(np.linalg.LinAlgError):
    """Normal-equations matrix too ill-conditioned to solve."""


@dataclass(eq=False)
class SignMatrix:
    """m x N matrix of +-1 perturbation signs; row 0 is the all-ones row."""

    entries: np.ndarray

    def __post_init__(self):
        try:
            self.entries = np.asarray(self.entries)
        except ValueError:  # ragged rows, which numpy cannot stack
            raise ValueError("sign matrix must be two-dimensional") from None
        if self.entries.ndim != 2:
            raise ValueError("sign matrix must be two-dimensional")
        if not np.all(np.abs(self.entries) == 1):
            raise ValueError("sign matrix entries must be +1 or -1")
        if not np.all(self.entries[0] == 1):
            raise ValueError("sign matrix row 0 must be all +1")

    @property
    def m(self) -> int:
        return self.entries.shape[0]

    @property
    def n_nodes(self) -> int:
        return self.entries.shape[1]

    def column(self, i: int) -> np.ndarray:
        return self.entries[:, i]


def draw_sign_matrix(m: int, n_nodes: int, sign_seed) -> SignMatrix:
    """Draw the shared sign matrix: row 0 all +1, rest i.i.d. uniform signs.

    ``sign_seed`` may be an int or a sequence of ints; the same seed yields the
    same matrix, which is how every node ends up with identical signs.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    if n_nodes < 1:
        raise ValueError("need at least one node")
    rng = np.random.default_rng(np.random.SeedSequence(sign_seed))
    entries = np.ones((m, n_nodes), dtype=np.int8)
    entries[1:] = 2 * rng.integers(0, 2, size=(m - 1, n_nodes), dtype=np.int8) - 1
    return SignMatrix(entries)


@dataclass(eq=False)
class AggregateSums:
    """The m sign-perturbed sum pairs.

    vec[j] = sum_i c_i A[j,i] phi_i y_i            shape (m, n_p)
    mat[j] = sum_i c_i A[j,i] phi_i phi_i^T        shape (m, n_p, n_p), symmetric

    This is the payload a node needs to evaluate every Z_j(p); its scalar size
    on the wire is m * (n_p + n_p (n_p + 1) / 2) counting each symmetric
    matrix once per distinct entry.
    """

    vec: np.ndarray
    mat: np.ndarray

    def __post_init__(self):
        self.vec = np.asarray(self.vec, dtype=float)
        self.mat = np.asarray(self.mat, dtype=float)
        if self.vec.ndim != 2:
            raise ValueError("vec must have shape (m, n_p)")
        m, n_p = self.vec.shape
        if self.mat.shape != (m, n_p, n_p):
            raise ValueError("mat must have shape (m, n_p, n_p)")

    @property
    def m(self) -> int:
        return self.vec.shape[0]

    @property
    def n_p(self) -> int:
        return self.vec.shape[1]

    @classmethod
    def zeros(cls, m: int, n_p: int) -> "AggregateSums":
        return cls(np.zeros((m, n_p)), np.zeros((m, n_p, n_p)))


def local_aggregate(samples: Samples, node: int, sign_column) -> AggregateSums:
    """Node ``node``'s contribution: vec[j] = A[j,i] phi_i y_i, mat[j] = A[j,i] phi_i phi_i^T."""
    signs = np.asarray(sign_column, dtype=float)
    if signs.ndim != 1:
        raise ValueError("sign column must be one-dimensional")
    phi, y = samples.phi[node], samples.y[node]
    outer = np.outer(phi, phi)
    return AggregateSums(
        vec=signs[:, None] * (phi * y)[None, :],
        mat=signs[:, None, None] * outer[None, :, :],
    )


def _checked_weights(samples: Samples, signs: SignMatrix, weights) -> np.ndarray:
    """The weight vector c as a float array, checked against the number of
    samples and the sign matrix width."""
    c = np.asarray(weights, dtype=float)
    n = len(samples)
    if c.shape != (n,):
        raise ValueError(f"weights must have shape ({n},)")
    if signs.n_nodes != n:
        raise ValueError("sign matrix width must match the number of samples")
    return c


def truncated_aggregate(samples: Samples, signs: SignMatrix, weights) -> AggregateSums:
    """Weighted aggregate with per-node weights c_i.

    ``weights`` is a length-N array; all-ones reproduces the complete-data
    aggregate, a one-hot vector reproduces one node's local aggregate, zeros
    give the degenerate zero payload.
    """
    c = _checked_weights(samples, signs, weights)
    phi, y = samples.phi, samples.y
    coeff = signs.entries.astype(float) * c[None, :]
    vec = coeff @ (phi * y[:, None])
    mat = np.einsum("ji,ik,il->jkl", coeff, phi, phi)
    return AggregateSums(vec, mat)


def tie_exact_aggregate(samples: Samples, signs: SignMatrix, weights) -> AggregateSums:
    """Weighted aggregate whose sign-flipped rows are exact flips of row 0.

    Each row is formed from elementwise products, ``(A * c)[:, :, None] *
    (phi * y)[None]`` and the ``phi phi^T`` analogue, and reduced over nodes
    in one fixed order, the same for every row. Flipping a sign is exact, so
    a row whose signs equal +-row 0 on every node with c_i != 0 comes out
    exactly +-row 0, and the tie between its Z value and Z_0 is decided by
    the tie-break, not by rounding. ``truncated_aggregate``'s matrix product
    rounds rows differently and can break such ties.
    """
    c = _checked_weights(samples, signs, weights)
    phi, y = samples.phi, samples.y
    coeff = signs.entries * c  # (m, N)
    vec = (coeff[:, :, None] * (phi * y[:, None])[None]).sum(axis=1)
    mat = (coeff[:, :, None, None] * (phi[:, :, None] * phi[:, None, :])[None]).sum(axis=1)
    return AggregateSums(vec, mat)


def batch_aggregate(samples: Samples, signs: SignMatrix) -> AggregateSums:
    """Complete-data aggregate (all weights one)."""
    return truncated_aggregate(samples, signs, np.ones(len(samples)))


def z_values(agg: AggregateSums, p) -> np.ndarray:
    """Z_j(p) = ||vec_j - mat_j p||^2 for j = 0..m-1."""
    p = np.asarray(p, dtype=float)
    if p.shape != (agg.n_p,):
        raise ValueError(f"p must have shape ({agg.n_p},)")
    s = agg.vec - agg.mat @ p
    return np.einsum("jk,jk->j", s, s)


def _lane_sum(terms: list, out: np.ndarray, in_place: bool = False) -> None:
    """Even-indexed terms added in order, odd-indexed ones likewise, then the
    two sums, written to ``out``. With ``in_place`` each lane accumulates into
    its first term, which must have the shape of ``out``."""
    def add(a, b):
        return np.add(a, b, out=a if in_place else None)

    lanes = [functools.reduce(add, terms[r::2]) for r in range(min(2, len(terms)))]
    if len(lanes) == 1:
        np.copyto(out, lanes[0])
    else:
        np.add(*lanes, out=out)


@functools.lru_cache(maxsize=1)
def _workspace(n_p: int, m: int, stored_grid: tuple) -> tuple:
    """The (n_p, m, *grid) s buffer and the (m, *grid) Z buffer of the most
    recent grid shape, in stored axis order; one grid is kept, so a large one
    is not held beside the next."""
    return np.empty((n_p, m) + stored_grid), np.empty((m,) + stored_grid)


def _z_values_grid(agg: AggregateSums, axes) -> np.ndarray:
    """Z values at every point of the grid spanned by ``axes``; shape (m, *grid).

    The grid is a Cartesian product, so mat_j p is built from per-axis terms
    mat[:, :, l] x axes[l] broadcast over the grid. Both reductions add in
    ``_lane_sum`` order, numpy's two-lane einsum order below 8 terms, so Z has
    the exact bits of a per-point einsum: sign-flipped rows tie with row 0
    exactly, the ties are broken at random for exact coverage, and another
    rounding order would turn some of them into strict orderings and flip cells.

    Every full-grid step writes in place into one cached workspace, because a
    fresh full-grid array costs page faults on each call. The workspace stores
    the grid axes odd ones first, then even ones ((1, 0, 2) for n_p = 3), so
    the one full-grid add, odd lane plus even lane, runs over contiguous
    blocks of the even axes instead of over rows of the last axis. The
    returned Z is indexed (j, *grid) as ``axes`` give it, a transposed view of
    that workspace: it is valid only until the next call.
    """
    m, n_p = agg.vec.shape
    order = tuple(range(1, n_p, 2)) + tuple(range(0, n_p, 2))
    stored = tuple(len(axes[d]) for d in order)
    s, z = _workspace(n_p, m, stored)
    lead = (n_p, m) + (1,) * n_p
    mat = agg.mat.transpose(1, 0, 2)  # (k, j, l), so each s[k] below is contiguous
    terms = [mat[:, :, l].reshape(lead) * axis.reshape([-1 if d == l else 1 for d in order])
             for l, axis in enumerate(axes)]
    with np.errstate():  # restores the buffer size on exit
        # numpy copies broadcast operands through a buffer that holds two or
        # more contiguous blocks; a buffer of at most one block of the even axes
        # lets each step run on the workspace itself, block by block
        np.setbufsize(16 * max(1, math.prod(stored[n_p // 2:]) // 16))
        _lane_sum(terms, out=s)
        np.subtract(agg.vec.T.reshape(lead), s, out=s)
        np.multiply(s, s, out=s)
        _lane_sum(list(s), out=z, in_place=True)
    return z.transpose((0,) + tuple(1 + order.index(d) for d in range(n_p)))


@functools.lru_cache(maxsize=32)
def _cell_centres(box: tuple, shape: tuple) -> tuple:
    """Cell-centre coordinates per grid axis; read-only, as the cache shares them."""
    axes = tuple(lo + (np.arange(g) + 0.5) * (hi - lo) / g for (lo, hi), g in zip(box, shape))
    for axis in axes:
        axis.flags.writeable = False
    return axes


def rank_above(z: np.ndarray, keys) -> np.ndarray:
    """How many of rows 1.. rank strictly above row 0, per column of ``z``.

    Rows are ranked by (value, uniform key): a row with a larger value ranks
    above, and a tied row ranks above when its key is larger. Independent
    uniform keys make every ordering of a tied group equally likely, which
    keeps the region's coverage exact even where exact ties occur. ``z`` has
    shape (m, ...); ``keys`` is a function returning an array of the same
    shape, called only when some row ties with row 0. The counts have the
    narrowest unsigned type that holds m - 1 (uint8 up to m = 256), which
    numpy sums faster than int64.
    """
    above = z[1:] > z[0]
    tied = z[1:] == z[0]
    if tied.any():
        u = keys()
        above |= tied & (u[1:] > u[0])
    return above.sum(axis=0, dtype=np.min_scalar_type(z.shape[0] - 1))


def membership(z, q: int, keys) -> bool:
    """Is a point with these Z values inside the confidence region?

    True iff, after ranking with uniform tie-breaking, at least q of the
    perturbed values lie strictly above Z_0, i.e. Z_0 is not among the q
    largest. ``keys`` returns the point's m uniform tie keys and is called
    only when some Z_j ties Z_0, as in ``rank_above``.
    """
    z = np.asarray(z, dtype=float)
    if not 1 <= q <= z.shape[0] - 1:
        raise ValueError("q must satisfy 1 <= q <= m-1")
    return bool(rank_above(z, keys) >= q)


@dataclass(eq=False)
class RegionResult:
    """Grid evaluation of a confidence region over an axis-aligned box.

    ``member_mask`` marks cells whose center passed the membership test;
    ``volume`` is member count times cell volume; ``bounding_box`` is the hull
    of member cells per dimension (None when the region is empty), computed
    on first read; ``tied`` says whether some cell had Z_j == Z_0, so that
    the mask read the tie keys of ``tie_seed``.
    """

    box: list[tuple[float, float]]
    grid_shape: tuple[int, ...]
    member_mask: np.ndarray
    volume: float
    q: int
    m: int
    tie_seed: int
    tied: bool

    @functools.cached_property
    def bounding_box(self) -> list[tuple[float, float]] | None:
        if not self.member_mask.any():
            return None
        n_p = len(self.box)
        bounding = []
        for dim, ((lo, hi), g) in enumerate(zip(self.box, self.grid_shape)):
            idx = np.nonzero(self.member_mask.any(axis=tuple(d for d in range(n_p) if d != dim)))[0]
            width = (hi - lo) / g
            bounding.append((lo + idx[0] * width, lo + (idx[-1] + 1) * width))
        return bounding

    @property
    def member_count(self) -> int:
        return int(self.member_mask.sum())

    def to_json_dict(self) -> dict:
        flat = self.member_mask.ravel(order="C")
        return {
            "box": [[lo, hi] for lo, hi in self.box],
            "grid_shape": list(self.grid_shape),
            "q": self.q,
            "m": self.m,
            "tie_seed": self.tie_seed,
            "volume": self.volume,
            "bounding_box": None
            if self.bounding_box is None
            else [[lo, hi] for lo, hi in self.bounding_box],
            "member_count": self.member_count,
            # run lengths of the C-order flattened mask, first run is False
            "mask_rle": _encode_rle(flat),
        }

    def csv_summary_rows(self) -> list[tuple]:
        """One row per dimension: (volume, dim, lo, hi) with empty-region sentinel."""
        rows = []
        for dim in range(len(self.box)):
            if self.bounding_box is None:
                rows.append((self.volume, dim, "", ""))
            else:
                lo, hi = self.bounding_box[dim]
                rows.append((self.volume, dim, lo, hi))
        return rows


def _encode_rle(flat: np.ndarray) -> list[int]:
    runs = []
    current = False
    count = 0
    for bit in flat:
        if bool(bit) == current:
            count += 1
        else:
            runs.append(count)
            current = not current
            count = 1
    runs.append(count)
    return runs


MAX_GRID_DIM = 3  # the most parameter dimensions ``evaluate_region`` grids


def _is_cell_count(g) -> bool:
    """A positive Python or numpy integer, or a 0-d integer array; not a bool."""
    if isinstance(g, np.ndarray) and g.shape == ():
        g = g[()]
    return isinstance(g, (int, np.integer)) and not isinstance(g, bool) and g >= 1


def evaluate_region(
    agg: AggregateSums,
    box,
    grid_per_dim,
    q: int,
    tie_seed: int,
) -> RegionResult:
    """Evaluate region membership on a dense grid of cell centers.

    The box is a list of finite (lo, hi) with lo < hi per parameter
    dimension, whose extents hi - lo and grid volume (cell volume times cell
    count) are finite floats too; anything else raises ValueError.
    ``grid_per_dim`` is a positive integer (Python, numpy or a 0-d integer
    array) or a per-dimension sequence of them; anything else, bools
    included, raises ValueError. Ties are broken with one (n_cells, m) block of uniforms from
    ``SeedSequence(tie_seed)``: row i is the tie stream of cell i in C order.
    The block is drawn only when some cell has Z_j == Z_0; cells without a tie
    never read it, so the result is bit-reproducible either way, and a result
    whose ``tied`` is False does not depend on ``tie_seed``. Dimensions
    above ``MAX_GRID_DIM`` are rejected, because the grid size explodes.

    Z is computed in ``_z_values_grid``'s cached workspace, which stores the
    grid axes odd ones first so that its full-grid add runs over contiguous
    blocks, and the ranking runs in that storage order. ``member_mask`` is a
    fresh C-order array that later calls leave alone. The shared workspace
    makes this function non-reentrant: do not call it from two threads at once.
    """
    n_p = agg.n_p
    box = [(float(lo), float(hi)) for lo, hi in box]
    if len(box) != n_p:
        raise ValueError(f"box must have {n_p} dimensions")
    box_error = "box must have finite bounds and positive extent in every dimension"
    if not all(math.isfinite(lo) and math.isfinite(hi) and lo < hi and math.isfinite(hi - lo)
               for lo, hi in box):
        raise ValueError(box_error)
    if n_p > MAX_GRID_DIM:
        raise ValueError(
            f"grid evaluation over {n_p} dimensions is not supported: n_p must be at most "
            f"{MAX_GRID_DIM} (the cell count grows exponentially)"
        )
    per_dim = isinstance(grid_per_dim, (list, tuple)) or getattr(grid_per_dim, "ndim", 0) > 0
    counts = tuple(grid_per_dim) if per_dim else (grid_per_dim,) * n_p
    if len(counts) != n_p or not all(map(_is_cell_count, counts)):
        raise ValueError("grid_per_dim must give a positive integer cell count per dimension")
    shape = tuple(int(g) for g in counts)
    cell_volume = math.prod([(hi - lo) / g for (lo, hi), g in zip(box, shape)])
    if not math.isfinite(cell_volume * math.prod(shape)):  # bounds every member volume
        raise ValueError(box_error)
    if not 1 <= q <= agg.m - 1:
        raise ValueError("q must satisfy 1 <= q <= m-1")

    z = _z_values_grid(agg, _cell_centres(tuple(box), shape))
    tied = False

    def tie_keys():
        nonlocal tied
        tied = True
        rng = np.random.default_rng(np.random.SeedSequence(int(tie_seed)))
        return rng.uniform(size=(z[0].size, agg.m)).T.reshape(z.shape)

    # the ranking's arrays follow z's stored axis order; the mask is copied out in C order
    member = np.ascontiguousarray(rank_above(z, tie_keys) >= q)

    volume = float(np.count_nonzero(member)) * cell_volume
    return RegionResult(
        box=box,
        grid_shape=shape,
        member_mask=member,
        volume=volume,
        q=q,
        m=agg.m,
        tie_seed=int(tie_seed),
        tied=tied,
    )


MAX_CONDITION = 1e12  # the largest condition number ``ls_estimate`` solves at


def ls_estimate(agg: AggregateSums) -> np.ndarray:
    """Least-squares parameter from the unperturbed sums: solve mat_0 p = vec_0.

    Raises SingularMatrixError (with the condition number) when mat_0 is
    singular or its condition number exceeds ``MAX_CONDITION``.
    """
    mat0 = agg.mat[0]
    vec0 = agg.vec[0]
    cond = np.linalg.cond(mat0)
    if not np.isfinite(cond) or cond > MAX_CONDITION:
        raise SingularMatrixError(
            f"normal-equations matrix is ill-conditioned (cond={cond:.3e})"
        )
    return np.linalg.solve(mat0, vec0)
