"""Wrap-up LP and simplex solver, checked against the vertex-enumeration oracle and HiGHS."""

import numpy as np
import pytest

from lp_oracle import wrapup_lp_optimum
from spsnet.diffusion import run_tas
from spsnet.lp import LpProblem, solve_lp
from spsnet.model import FieldConfig, generate_measurements
from spsnet.rng import substream
from spsnet.sps import draw_sign_matrix
from spsnet.topology import random_geometric


def random_tag_matrix(rng, max_rows=7, max_nodes=6):
    n_rows = int(rng.integers(1, max_rows + 1))
    n_nodes = int(rng.integers(1, max_nodes + 1))
    density = rng.uniform(0.2, 0.8)
    tags = (rng.uniform(size=(n_rows, n_nodes)) < density).astype(float)
    for r in range(n_rows):
        if tags[r].sum() == 0:
            tags[r, rng.integers(0, n_nodes)] = 1.0
    return tags


def test_problem_validation():
    with pytest.raises(ValueError):
        LpProblem(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        LpProblem(np.array([[1, 2]]))
    with pytest.raises(ValueError):
        LpProblem(np.array([[1, 0], [0, 0]]))
    p = LpProblem(np.array([[1, 1, 0], [0, 1, 0]]))
    assert p.n_rows == 2 and p.n_nodes == 3
    assert np.array_equal(p.weights, [2, 1])


def test_oracle_transparent_cases():
    # the oracle itself has to be right before it can judge the simplex
    assert wrapup_lp_optimum(np.eye(4)) == pytest.approx(4.0, abs=1e-12)
    assert wrapup_lp_optimum([[1, 1, 1]]) == pytest.approx(3.0, abs=1e-12)
    # two overlapping rows: each node can contribute at most once
    assert wrapup_lp_optimum([[1, 1, 0], [0, 1, 1]]) == pytest.approx(2.0, abs=1e-12)
    # duplicated row changes nothing
    assert wrapup_lp_optimum([[1, 0], [1, 0]]) == pytest.approx(1.0, abs=1e-12)


def test_single_free_variable():
    # maximize b1 subject to 0 <= b1 <= 1
    b, obj = solve_lp(LpProblem(np.array([[1.0]])))
    assert b.shape == (1,)
    assert b[0] == pytest.approx(1.0, abs=1e-12)
    assert obj == pytest.approx(1.0, abs=1e-12)


def test_disjoint_rows_give_unit_coefficients():
    b, obj = solve_lp(LpProblem(np.array([[1, 0], [0, 1]], dtype=float)))
    assert np.allclose(b, [1.0, 1.0], atol=1e-12)
    assert obj == pytest.approx(2.0, abs=1e-12)


def test_nested_rows():
    # rows {1,2} and {2}: the subset row must be dropped
    tags = np.array([[1, 1], [0, 1]], dtype=float)
    b, obj = solve_lp(LpProblem(tags))
    assert obj == pytest.approx(2.0, abs=1e-9)
    c = b @ tags
    assert np.allclose(c, [1.0, 1.0], atol=1e-9)
    assert np.allclose(b, [1.0, 0.0], atol=1e-9)


def test_chained_overlap_is_fractional():
    # rows {1,2} and {2,3}: any optimum has b1 + b2 = 1 and weights (b1, 1, b2)
    tags = np.array([[1, 1, 0], [0, 1, 1]], dtype=float)
    b, obj = solve_lp(LpProblem(tags))
    assert obj == pytest.approx(2.0, abs=1e-9)
    assert b[0] + b[1] == pytest.approx(1.0, abs=1e-9)
    c = b @ tags
    assert c[1] == pytest.approx(1.0, abs=1e-9)
    assert c[0] == pytest.approx(b[0], abs=1e-9)
    assert c[2] == pytest.approx(b[1], abs=1e-9)
    assert np.all(c >= -1e-9) and np.all(c <= 1 + 1e-9)


def test_simplex_matches_oracle_on_random_tables():
    rng = substream(1924, "lp-tables")
    for case in range(1000):
        tags = random_tag_matrix(rng)
        problem = LpProblem(tags)
        b, obj = solve_lp(problem)
        expected = wrapup_lp_optimum(tags)
        assert obj == pytest.approx(expected, abs=1e-9), f"case {case}: {tags}"
        # the solution must be feasible and the objective consistent with it
        c = b @ tags
        assert np.all(c >= -1e-9) and np.all(c <= 1 + 1e-9), f"case {case}"
        assert obj == pytest.approx(float(c.sum()), abs=1e-9)
        assert obj <= tags.shape[1] + 1e-9


def highs_optimum(tags) -> float:
    """Optimal objective of the wrap-up LP from scipy's HiGHS, b free."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    n = tags.shape[1]
    res = linprog(-tags.sum(axis=1), A_ub=np.vstack([tags.T, -tags.T]),
                  b_ub=np.concatenate([np.ones(n), np.zeros(n)]), bounds=(None, None), method="highs")
    assert res.status == 0, res.message
    return -res.fun


def test_simplex_matches_highs_on_random_tables():
    rng = substream(1977, "lp-highs")
    for case in range(150):
        tags = random_tag_matrix(rng, max_rows=40, max_nodes=60)
        _, obj = solve_lp(LpProblem(tags))
        assert obj == pytest.approx(highs_optimum(tags), abs=1e-9), f"case {case}"


def test_simplex_matches_highs_on_tas_tables():
    pytest.importorskip("scipy.optimize")
    graph = random_geometric(60, substream(1977, "topology"))
    cfg = FieldConfig(n_p=2, p_true=np.array([1.0, -0.5]))
    samples = generate_measurements(graph.positions, cfg, substream(1977, "noise"))
    res = run_tas(graph, samples, draw_sign_matrix(4, 60, sign_seed=1977))
    overlapping = 0
    for table in res.tables:
        tags = table.tag_matrix().astype(float)
        if tags.sum(axis=0).max() <= 1:
            continue
        overlapping += 1
        _, obj = solve_lp(LpProblem(tags))
        assert obj == pytest.approx(highs_optimum(tags), abs=1e-9), f"node {table.owner}"
    assert overlapping > 30
