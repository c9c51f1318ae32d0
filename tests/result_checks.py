"""Readings of package results that only the tests make.

``sums_close`` compares two ``AggregateSums`` within ``np.allclose``
tolerances, and ``completion_round`` reads the first round after which a
flooding run's every node knew every record off its per-round masks.
"""

import numpy as np


def sums_close(a, b, rtol: float = 1e-9, atol: float = 1e-12) -> bool:
    """Whether two aggregates' ``vec`` and ``mat`` agree within the tolerances."""
    return np.allclose(a.vec, b.vec, rtol=rtol, atol=atol) and np.allclose(a.mat, b.mat, rtol=rtol, atol=atol)


def completion_round(res) -> int | None:
    """The first round after which every node of an ``MfResult`` knew every
    record, or None."""
    full = (1 << len(res.masks[0])) - 1
    return next((r for r, masks in enumerate(res.masks) if masks.count(full) == len(masks)), None)
