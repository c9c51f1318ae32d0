"""Row-loop dense simplex, as the package first wrote it.

The package eliminates the entering column with one rank-1 update of the rows
that need it. This oracle does the same pivots one row at a time in a Python
loop, with the tie test written through ``np.isclose``. Tests require the
package to reproduce its coefficients b bit for bit, and to give up at the
same iteration cap.
"""

import numpy as np

from spsnet.lp import SimplexError


def simplex_max(
    a: np.ndarray,
    rhs: np.ndarray,
    cost: np.ndarray,
    tol: float,
    max_iterations: int | None,
) -> np.ndarray:
    """maximize cost.x s.t. a x <= rhs, x >= 0, rhs >= 0. Returns optimal x."""
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

    for _ in range(max_iterations):
        candidates = np.flatnonzero(reduced > tol)
        if candidates.size == 0:
            x = np.zeros(n_cols)
            x[basis] = tableau[:, -1]
            return x[:n_struct]
        enter = int(candidates[0])  # Bland: lowest index
        col = tableau[:, enter]
        pos = col > tol
        if not pos.any():
            raise SimplexError("unbounded direction found; the wrap-up LP is bounded, so this is a bug")
        ratios = np.full(n_rows, np.inf)
        ratios[pos] = tableau[pos, -1] / col[pos]
        best = ratios.min()
        ties = np.flatnonzero(np.isclose(ratios, best, rtol=0.0, atol=tol * max(1.0, best)))
        leave = int(ties[np.argmin(basis[ties])])  # Bland: lowest basic index

        pivot = tableau[leave, enter]
        tableau[leave] /= pivot
        for i in range(n_rows):
            if i != leave and abs(tableau[i, enter]) > 0:
                tableau[i] -= tableau[i, enter] * tableau[leave]
        reduced = reduced - reduced[enter] * tableau[leave, :-1]
        basis[leave] = enter
    raise SimplexError(f"simplex did not converge within {max_iterations} iterations")
