"""Property test: the rank-1 simplex pivot against the row-loop oracle.

The wrap-up coefficients b set the region weights, so a last-bit change in b
can move region cells. The package's pivot must therefore reproduce the
row-loop oracle's b bit for bit, and fail at the same iteration cap. The
package also stops where a ratio test finds a negative step, which the oracle
does not check; on random tables and on the tables of a 100-node TAS run,
where every solve succeeds, that guard must change no bit.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import simplex_oracle  # noqa: E402
from spsnet import lp  # noqa: E402
from spsnet.diffusion import _unpack, run_tas  # noqa: E402
from spsnet.lp import LpProblem, SimplexError, solve_lp  # noqa: E402
from spsnet.model import FieldConfig, generate_measurements  # noqa: E402
from spsnet.rng import substream  # noqa: E402
from spsnet.sps import draw_sign_matrix  # noqa: E402
from spsnet.topology import random_geometric  # noqa: E402

KINDS = ("random", "nested", "duplicate-columns", "duplicate-rows", "neighbourhoods")


@st.composite
def tag_matrices(draw):
    """0/1 tag matrices of 1-40 rows over 1-60 nodes, every row non-empty.

    Besides plain random rows: rows nested inside earlier ones, nodes whose
    tag columns repeat, repeated rows, and TAS-like unions of overlapping
    neighbourhoods. The start b = 0 is degenerate for all of them: the
    lower-bound rows have right-hand side 0, so the first ratio tests tie.
    """
    n_rows = draw(st.integers(1, 40))
    n_nodes = draw(st.integers(1, 60))
    kind = draw(st.sampled_from(KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = rng.uniform(0.05, 0.6)
    if kind == "nested":
        tags = np.zeros((n_rows, n_nodes))
        tags[0] = rng.uniform(size=n_nodes) < density
        for r in range(1, n_rows):
            parent = tags[rng.integers(r)]
            if rng.uniform() < 0.5:
                tags[r] = parent * (rng.uniform(size=n_nodes) < 0.6)
            else:
                tags[r] = np.maximum(parent, rng.uniform(size=n_nodes) < density / 2)
    elif kind == "duplicate-columns":
        distinct = (rng.uniform(size=(n_rows, int(rng.integers(1, 6)))) < density).astype(float)
        tags = distinct[:, rng.integers(distinct.shape[1], size=n_nodes)]
    elif kind == "duplicate-rows":
        distinct = (rng.uniform(size=(int(rng.integers(1, 6)), n_nodes)) < density).astype(float)
        tags = distinct[rng.integers(distinct.shape[0], size=n_rows)]
    elif kind == "neighbourhoods":
        pos = rng.uniform(size=(n_nodes, 2))
        near = np.linalg.norm(pos[:, None] - pos[None, :], axis=2) < rng.uniform(0.1, 0.5)
        tags = np.zeros((n_rows, n_nodes))
        tags[0, 0] = 1.0  # the owner's one-hot row
        for r in range(1, n_rows):
            centres = rng.choice(n_nodes, size=int(rng.integers(1, 4)))
            tags[r] = near[centres].any(axis=0)
    else:
        tags = (rng.uniform(size=(n_rows, n_nodes)) < density).astype(float)
    for r in np.flatnonzero(tags.sum(axis=1) == 0):
        tags[r, rng.integers(n_nodes)] = 1.0
    return tags


def solve_both(tags, max_iterations=None):
    """solve_lp's outcome, (b, objective) or SimplexError, with each pivot."""
    outcomes = []
    for simplex in (lp._simplex_max, simplex_oracle.simplex_max):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(lp, "_simplex_max", simplex)
            try:
                outcomes.append(solve_lp(LpProblem(tags), max_iterations=max_iterations))
            except SimplexError as err:
                outcomes.append(err)
    return outcomes


@settings(max_examples=300, deadline=None, derandomize=True)
@given(tag_matrices())
def test_pivot_matches_row_loop_bit_for_bit(tags):
    (b, obj), (b_oracle, obj_oracle) = solve_both(tags)
    assert np.array_equal(b, b_oracle)
    assert obj == obj_oracle


def test_pivot_matches_row_loop_on_every_table_of_a_tas_run():
    # 100 nodes, n_p = 3 and m = 10, the size of criterion 12's trade-off study
    graph = random_geometric(100, substream(1116, "topology"))
    cfg = FieldConfig(n_p=3, p_true=np.array([1.0, -0.5, 0.25]))
    samples = generate_measurements(graph.positions, cfg, substream(1116, "noise"))
    overlapping = [t for t in run_tas(graph, samples, draw_sign_matrix(10, 100, 1116)).tables if not t.disjoint]
    assert len(overlapping) == 100  # no table of this run is disjoint
    for table in overlapping:
        tags = _unpack(table.tags, table.n_nodes).astype(float)
        (b, obj), (b_oracle, obj_oracle) = solve_both(tags)
        assert np.array_equal(b, b_oracle) and obj == obj_oracle, f"node {table.owner}"


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tag_matrices(), st.integers(0, 12))
def test_pivot_gives_up_at_the_same_cap(tags, cap):
    got, expected = solve_both(tags, max_iterations=cap)
    if isinstance(expected, SimplexError):
        assert isinstance(got, SimplexError)
        assert str(got) == str(expected)
    else:
        assert np.array_equal(got[0], expected[0]) and got[1] == expected[1]


@pytest.mark.parametrize("seed", range(4))
def test_pivot_needs_exactly_the_oracle_pivot_count(seed):
    rng = np.random.default_rng(seed)
    tags = (rng.uniform(size=(12, 15)) < 0.3).astype(float)
    tags[tags.sum(axis=1) == 0, 0] = 1.0
    cap = 0
    while isinstance(solve_both(tags, max_iterations=cap)[1], SimplexError):
        cap += 1
    assert cap > 1
    got, expected = solve_both(tags, max_iterations=cap - 1)
    assert isinstance(got, SimplexError) and isinstance(expected, SimplexError)
    got, expected = solve_both(tags, max_iterations=cap)
    assert np.array_equal(got[0], expected[0])


def test_ratio_ties_scale_with_the_ratio():
    # ratios 5 + 3e-9 and 5 tie only under the scaled tolerance 1e-9 * 5; the
    # tie goes to row 0, whose slack has the lower index, so x leaves 5 behind
    a, rhs, cost = np.ones((2, 1)), np.array([5 + 3e-9, 5.0]), np.ones(1)
    x = lp._simplex_max(a, rhs, cost, tol=1e-9, max_iterations=None)
    assert np.array_equal(x, simplex_oracle.simplex_max(a, rhs, cost, tol=1e-9, max_iterations=None))
    assert x[0] == 5 + 3e-9
