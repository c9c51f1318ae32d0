"""Exact coverage of every protocol's weights, by enumerating the noise signs.

SPS coverage is exact for any weights that do not depend on the data (Csáji,
Campi & Weyer 2015, IEEE TSP 63(1)). With N nodes it can be checked exactly,
without sampling. Let the m sign rows form a subgroup of {±1}^N with row 0 the
identity, and let the noise be ε = s ∘ |ε| with a uniform sign pattern s. For
each of the 2^N patterns the protocol runs on the data that pattern gives, and
node k's weights c at round r are read through ``weights(k, r)`` of the run
that ``run_protocol`` returns.
At the true parameter node k's j-th sum is Σ_i c_i A_ji φ_i ε_i, so

    Z_j(s) = f(A_j ∘ s),   f(t) = ||Σ_i c_i t_i |ε_i| φ_i||^2,

and each Z_j is read from one table of f over all patterns, so ties are exact
by construction. A tie of row 0 with t other rows puts it in one of t + 1
equally likely places. Over every pattern the true parameter then lies in the
region with probability exactly (m - q)/m for every q, as a ``Fraction``.
Weights that read the measurements break the coset symmetry this rests on,
and miss that value.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from spsnet.diffusion import CONSENSUS_SCHEMES
from spsnet.experiments import build_topology, run_protocol
from spsnet.model import Samples
from spsnet.sps import SignMatrix

N = 10
P_TRUE = np.array([1.0, -0.5])
# row b is sign pattern b: bit i set means node i's noise is negative
PATTERNS = 1 - 2 * ((np.arange(2 ** N)[:, None] >> np.arange(N)) & 1)


def sign_subgroup(m: int, rng) -> SignMatrix:
    """m distinct sign rows closed under the elementwise product, row 0 all +1:
    row j is the product of the generators named by j's bits."""
    while True:
        gens = rng.choice([-1, 1], size=(m.bit_length() - 1, N))
        rows = np.array([np.prod(gens[[b for b in range(len(gens)) if j >> b & 1]], axis=0) for j in range(m)])
        if len({row.tobytes() for row in rows}) == m:
            return SignMatrix(rows.astype(np.int8))


def exact_coverage(weights_of, phi, size, signs) -> list[list[Fraction]]:
    """Per read of ``weights_of(samples)`` (a list of weight vectors), the
    exact probability that the true parameter is in the region, for q = 1..m-1."""
    m = signs.m
    flips = (signs.entries < 0) @ (1 << np.arange(N))  # pattern of A_j ∘ s is s ^ flips[j]
    unit = math.lcm(*range(1, m + 1))  # hits count in units of 1/unit, exact for any tie size
    tables = {}
    hits = None
    for s in range(2 ** N):
        y = phi @ P_TRUE + PATTERNS[s] * size
        reads = weights_of(Samples(phi, y))
        hits = hits or [[0] * m for _ in reads]
        for read, c in zip(hits, reads):
            key = c.tobytes()
            if key not in tables:
                tables[key] = ((PATTERNS @ ((c * size)[:, None] * phi)) ** 2).sum(axis=1)
            z = tables[key][s ^ flips]
            above, tied = int((z[1:] > z[0]).sum()), int((z[1:] == z[0]).sum())
            for q in range(1, m):
                # row 0 ranks below q rows in this many of its tied + 1 places
                places = sum(above + u >= q for u in range(tied + 1))
                read[q] += places * (unit // (tied + 1))
    return [[Fraction(read[q], unit * 2 ** N) for q in range(1, m)] for read in hits]


# (diffusion config, rounds read); None reads the end of the run
CASES = {
    "full": ({"protocol": "full"}, [None]),
    "local": ({"protocol": "local"}, [None]),
    "pf": ({"protocol": "pf", "rounds": None}, [0, 1, 2, None]),
    "mf": ({"protocol": "mf", "rounds": None}, [0, 1, 2, None]),
    "tas": ({"protocol": "tas", "rounds": None}, [0, 1, 2, None]),
    **{f"consensus-{scheme}": ({"protocol": "consensus", "iterations": 5, "scheme": scheme}, [0, 1, 3, None])
       for scheme in CONSENSUS_SCHEMES},
}
NODES = (0, 7)


def setup(m, seed=11):
    rng = np.random.default_rng(seed)
    bundle = build_topology(seed, {"kind": "rgg", "n_nodes": N})
    phi = rng.normal(size=(N, 2))
    size = np.abs(rng.normal(size=N)) + 0.1
    return bundle, phi, size, sign_subgroup(m, rng)


def protocol_weights(bundle, signs, diff, rounds):
    def weights_of(samples):
        run, _ = run_protocol(bundle, samples, signs, diff)
        return [run.weights(k, r) for k in NODES for r in rounds]

    return weights_of


@pytest.mark.parametrize("m", [4, 8])
@pytest.mark.parametrize("case", list(CASES))
def test_every_protocol_covers_exactly(m, case):
    bundle, phi, size, signs = setup(m)
    diff, rounds = CASES[case]
    for coverage in exact_coverage(protocol_weights(bundle, signs, diff, rounds), phi, size, signs):
        assert coverage == [Fraction(m - q, m) for q in range(1, m)]


@pytest.mark.parametrize("m", [4, 8])
def test_weights_that_read_the_data_miss_the_coverage(m):
    bundle, phi, size, signs = setup(m)
    run_weights = protocol_weights(bundle, signs, *CASES["mf"])

    def reading_y(samples):
        # a node down-weights the records whose measurement lies below the fit
        low = samples.y < samples.phi @ P_TRUE
        return [c * np.where(low, 0.25, 1.0) for c in run_weights(samples)]

    coverage = exact_coverage(reading_y, phi, size, signs)
    assert any(cov != [Fraction(m - q, m) for q in range(1, m)] for cov in coverage)
