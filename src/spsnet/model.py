"""Linear field model sampled by a sensor network.

Each node i sits at a planar position x_i, owns a regressor vector
phi_i = phi(x_i) and takes one scalar measurement

    y_i = phi_i . p_true + w_i

with noise w_i drawn independently from a distribution symmetric about zero.
Symmetry of the noise is the only distributional assumption the confidence
region construction needs, so several noise families are provided, including
a discrete one that produces exact ties.

``generate_measurements`` returns one read-only ``Samples`` value holding
every node's data as arrays: ``phi`` (N, n_p) and ``y`` (N,), row i for
node i. It builds them without per-node Python for the polynomial basis,
with the bits of a node-by-node ``phi_i @ p_true``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from itertools import combinations_with_replacement

import numpy as np

NOISE_KINDS = ("gaussian", "uniform", "laplace", "two-point")
REGRESSOR_FAMILIES = ("polynomial-basis", "seeded-random")


@dataclass(frozen=True)
class NoiseSpec:
    """Symmetric measurement-noise law.

    ``scale`` is the standard deviation for ``gaussian``, the half-width for
    ``uniform``, the diversity parameter for ``laplace`` and the magnitude of
    the two support points for ``two-point`` (+scale/-scale with probability
    1/2 each). ``scale == 0`` degenerates to the noiseless model.
    """

    kind: str = "gaussian"
    scale: float = 0.1

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}, expected one of {NOISE_KINDS}")
        if not np.isfinite(self.scale) or self.scale < 0:
            raise ValueError("noise scale must be a finite non-negative real")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.scale == 0:
            return np.zeros(size)
        if self.kind == "gaussian":
            return rng.normal(0.0, self.scale, size)
        if self.kind == "uniform":
            return rng.uniform(-self.scale, self.scale, size)
        if self.kind == "laplace":
            return rng.laplace(0.0, self.scale, size)
        # two-point: +-scale with equal probability
        return self.scale * (2.0 * rng.integers(0, 2, size) - 1.0)


@dataclass(frozen=True, eq=False)
class FieldConfig:
    """Model configuration: parameter dimension, true parameter, regressor family."""

    n_p: int
    p_true: np.ndarray
    n_x: int = 2
    regressor_family: str = "polynomial-basis"
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    regressor_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "p_true", np.asarray(self.p_true, dtype=float))
        if self.n_p < 1:
            raise ValueError("n_p must be at least 1")
        if self.n_x < 1:
            raise ValueError("n_x must be at least 1")
        if self.p_true.shape != (self.n_p,):
            raise ValueError(f"p_true must have shape ({self.n_p},), got {self.p_true.shape}")
        if self.regressor_family not in REGRESSOR_FAMILIES:
            raise ValueError(
                f"unknown regressor family {self.regressor_family!r}, "
                f"expected one of {REGRESSOR_FAMILIES}"
            )


@dataclass(frozen=True, eq=False)
class Samples:
    """Every node's regressor and measurement, row i for node i.

    ``phi`` has shape (N, n_p) and ``y`` (N,). The arrays are private float
    copies marked read-only, so a ``Samples`` value can be shared by any
    number of runs and aggregates.
    """

    phi: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        for name in ("phi", "y"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        n = self.y.shape[0] if self.y.ndim == 1 else -1
        if n < 1 or self.phi.ndim != 2 or self.phi.shape[0] != n:
            raise ValueError("phi must be (N, n_p) with one measurement y per row, N >= 1")
        if not np.isfinite(self.y).all():
            raise ValueError("measurements must be finite")
        if not np.isfinite(self.phi).all():
            raise ValueError("regressor entries must be finite")

    def __len__(self) -> int:
        return self.y.shape[0]

    @property
    def n_p(self) -> int:
        return self.phi.shape[1]


def _monomial_exponents(n_x: int, n_p: int) -> list[tuple[int, ...]]:
    """First n_p monomial index tuples in graded order, constant term first.

    Within a degree the tuples are lexicographic, e.g. n_x=2 gives
    (), (0,), (1,), (0,0), (0,1), (1,1), ... meaning 1, x1, x2, x1^2, x1*x2, x2^2.
    """
    out: list[tuple[int, ...]] = []
    degree = 0
    while len(out) < n_p:
        out.extend(combinations_with_replacement(range(n_x), degree))
        degree += 1
    return out[:n_p]


def regressors(positions, config: FieldConfig) -> np.ndarray:
    """Regressor rows phi(x_i), shape (N, n_p), one per position row.

    ``polynomial-basis`` builds each monomial column as the column of its
    exponent tuple minus the last index (the constant column for a linear
    term) times that position column: the tuple's factors multiplied left to
    right, so every entry has the bits of ``np.prod`` over the tuple's
    coordinates. ``seeded-random`` rows are
    i.i.d. uniform on [-1, 1] from a hash of (seed, the position's bytes),
    a pure function of each position.
    """
    x = np.asarray(positions, dtype=float)
    if x.ndim != 2 or x.shape[1] != config.n_x:
        raise ValueError(f"positions must have shape (N, {config.n_x})")
    phi = np.empty((x.shape[0], config.n_p))
    if config.regressor_family == "polynomial-basis":
        exponents = _monomial_exponents(config.n_x, config.n_p)
        column = {idx: k for k, idx in enumerate(exponents)}
        for k, idx in enumerate(exponents):
            if idx:
                np.multiply(phi[:, column[idx[:-1]]], x[:, idx[-1]], out=phi[:, k])
            else:
                phi[:, k] = 1.0
        return phi
    seed = int(config.regressor_seed).to_bytes(16, "little", signed=True)
    for i, row in enumerate(x):
        h = hashlib.blake2s(seed, digest_size=16)
        h.update(row.tobytes())
        rng = np.random.default_rng(int.from_bytes(h.digest(), "little"))
        phi[i] = rng.uniform(-1.0, 1.0, config.n_p)
    return phi


def generate_measurements(positions, config: FieldConfig, rng: np.random.Generator) -> Samples:
    """Draw one noisy measurement per position.

    Regressors are a deterministic function of positions and config; only the
    noise consumes ``rng``. ``y`` is ``np.vecdot(phi, p_true) + noise``: the
    row-wise dot product, which rounds each row as ``phi_i @ p_true`` does.
    Row i of the returned ``Samples`` is node i.
    """
    phi = regressors(positions, config)
    if phi.shape[0] == 0:
        raise ValueError("at least one position is required")
    noise = config.noise.sample(rng, phi.shape[0])
    return Samples(phi=phi, y=np.vecdot(phi, config.p_true) + noise)
