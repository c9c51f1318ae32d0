"""Linear program behind the wrap-up step, and a dense simplex solver.

A node's stored rows have 0/1 tags t_r over nodes; row r stands for the sum
of the per-node contributions its tag names. Choosing real row coefficients
b_r gives per-node weights c_i = sum_r b_r t_{r,i}, which is what the wrap-up
yields: the aggregate is then built from c (``sps.tie_exact_aggregate``). The
wrap-up wants as much data as possible without counting any node more than
once:

    maximize   sum_r b_r |t_r|     (== sum_i c_i)
    subject to 0 <= sum_r b_r t_{r,i} <= 1   for every node i.

b = 0 is always feasible and the objective is bounded above by the node
count, so the program always has an optimum. Problem sizes stay small (rows
at most a few hundred), so a dense tableau simplex with Bland's pivoting
rule (no cycling) is adequate. Each pivot is one rank-1 update whose
arithmetic matches a row-by-row elimination bit for bit (see _simplex_max).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class SimplexError(RuntimeError):
    """Simplex failed: iteration budget exhausted, a basic value gone
    negative, or internal inconsistency."""


@dataclass(eq=False)
class LpProblem:
    """Wrap-up LP data: the 0/1 tag matrix, one row per stored table row."""

    tags: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.tags)
        if t.ndim != 2 or t.shape[0] < 1 or t.shape[1] < 1:
            raise ValueError("tag matrix must be a non-empty 2-d array")
        if not np.isin(t, (0, 1)).all():
            raise ValueError("tag matrix entries must be 0 or 1")
        if (t.sum(axis=1) == 0).any():
            raise ValueError("every tag row must cover at least one node")
        self.tags = t.astype(float)

    @property
    def weights(self) -> np.ndarray:
        """Objective coefficients: nodes covered per row."""
        return self.tags.sum(axis=1)


TOL = 1e-9  # pivot, optimality and ratio-tie tolerance of ``solve_lp``


def solve_lp(problem: LpProblem, max_iterations: int | None = None) -> tuple[np.ndarray, float]:
    """Optimal basic solution of the wrap-up LP.

    Returns (b, objective). The coefficients b are free reals; internally the
    program is split b = u - v with u, v >= 0 and solved as a standard-form
    maximization. Bland's rule picks the lowest-index entering column and,
    among minimum-ratio rows, the one whose basic variable has the lowest
    index, which rules out cycling on the degenerate start (the lower bounds
    are tight at b = 0).
    """
    t_t = problem.tags.T  # (N, R)
    n, r = t_t.shape
    a = np.block([[t_t, -t_t], [-t_t, t_t]])
    rhs = np.concatenate([np.ones(n), np.zeros(n)])
    cost = np.concatenate([problem.weights, -problem.weights])
    x = _simplex_max(a, rhs, cost, tol=TOL, max_iterations=max_iterations)
    b = x[:r] - x[r : 2 * r]
    return b, float(problem.weights @ b)


def _simplex_max(
    a: np.ndarray,
    rhs: np.ndarray,
    cost: np.ndarray,
    tol: float,
    max_iterations: int | None,
) -> np.ndarray:
    """maximize cost.x s.t. a x <= rhs, x >= 0, rhs >= 0. Returns optimal x.

    Each pivot is one rank-1 update of the rows with a nonzero f_i in the
    entering column: row_i -= f_i * pivot_row. Every element gets the multiply
    and subtract of a row-by-row elimination, so x matches it bit for bit.
    That must hold: b drives the weights c, and a last-bit change in c moves
    region cells and the benchmark's reference rows.

    A minimum ratio below -tol means rounding has already left a basic value
    negative, which a primal simplex never allows; the pivot would push the
    tableau further from feasibility, so the solve raises ``SimplexError``
    there instead of drifting to the iteration cap, which stays the backstop
    against cycling.
    """
    n_rows, n_struct = a.shape
    n_cols = n_struct + n_rows
    if max_iterations is None:
        max_iterations = 100 * (n_rows + n_cols) + 1000

    tableau = np.zeros((n_rows, n_cols + 1))
    tableau[:, :n_struct] = a
    tableau[:, n_struct : n_struct + n_rows] = np.eye(n_rows)
    tableau[:, -1] = rhs
    reduced = np.zeros(n_cols)
    reduced[:n_struct] = cost
    basis = np.arange(n_struct, n_struct + n_rows)

    for pivot in range(max_iterations):
        enter = int((reduced > tol).argmax())  # Bland: lowest index
        if not reduced[enter] > tol:
            x = np.zeros(n_cols)
            x[basis] = tableau[:, -1]
            return x[:n_struct]
        f = tableau[:, enter].copy()
        pos = (f > tol).nonzero()[0]
        if pos.size == 0:
            raise SimplexError("unbounded direction found; the wrap-up LP is bounded, so this is a bug")
        ratios = tableau[pos, -1] / f[pos]
        best = ratios.min()
        if best < -tol:
            raise SimplexError(f"lost primal feasibility at pivot {pivot} (step {best:.2g})")
        ties = pos[abs(ratios - best) <= tol * max(1.0, best)]
        leave = int(ties[basis[ties].argmin()])  # Bland: lowest basic index

        tableau[leave] /= f[leave]
        prow = tableau[leave]
        f[leave] = 0.0
        rows = f.nonzero()[0]
        tableau[rows] -= f[rows, None] * prow
        reduced -= reduced[enter] * prow[:-1]
        basis[leave] = enter
    raise SimplexError(f"simplex did not converge within {max_iterations} iterations")
