"""Property test: the separable region kernel against the per-point einsum oracle.

Region membership breaks exact ties Z_j == Z_0 at random, so a last-bit change
in Z can flip cells. The kernel must therefore reproduce the oracle's Z bit for
bit, and with it the oracle's masks, volumes and bounding boxes, including on
aggregates of one to three nodes, whose sign-flipped rows tie exactly. At
n_p = 4 only the kernel is checked: ``evaluate_region`` grids at most three
dimensions.

The kernel computes in one cached workspace, kept for the most recent grid
shape. Sequences of calls that change n_p, m and the grid between calls, and
come back to earlier shapes, must give the oracle's bits on every call, and a
returned mask must not change under later calls. A repeat call on a grid with
no tie must not allocate a full-grid float array.
"""

import tracemalloc

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import grid_oracle  # noqa: E402
from spsnet.model import FieldConfig, NoiseSpec, generate_measurements  # noqa: E402
from spsnet.rng import substream  # noqa: E402
from spsnet.sps import (  # noqa: E402
    _cell_centres,
    _z_values_grid,
    draw_sign_matrix,
    evaluate_region,
    tie_exact_aggregate,
    truncated_aggregate,
)

N_NODES = 8


@st.composite
def region_cases(draw):
    n_p = draw(st.integers(1, 4))
    m = draw(st.integers(2, 11))
    seed = draw(st.integers(0, 2**31 - 1))
    # one-hot and 2-3-node weights make exact ties between sign-flipped rows;
    # "one-hot-ulp" moves one row by an ulp, so it ties with row 0 at some cells only
    kind = draw(st.sampled_from(["one-hot", "one-hot-ulp", "few", "fractional", "all"]))
    rng = substream(seed, "grid-kernel")
    cfg = FieldConfig(n_p=n_p, p_true=np.array([(-0.5) ** k for k in range(n_p)]),
                      noise=NoiseSpec(scale=draw(st.sampled_from([0.0, 0.1, 1.0]))))
    samples = generate_measurements(rng.uniform(0, 1, size=(N_NODES, 2)), cfg, rng)
    c = np.zeros(N_NODES)
    if kind == "all":
        c[:] = 1.0
    elif kind == "fractional":
        c[:] = rng.uniform(0, 1, size=N_NODES)
    else:
        size = 1 if kind.startswith("one-hot") else int(rng.integers(2, 4))
        c[rng.choice(N_NODES, size=size, replace=False)] = 1.0
    agg = truncated_aggregate(samples, draw_sign_matrix(m, N_NODES, seed), c)
    if kind == "one-hot-ulp":
        agg.vec[-1] = np.nextafter(agg.vec[-1], np.inf)
    max_cells = 9 if n_p < 4 else 4
    shape = tuple(draw(st.lists(st.integers(1, max_cells), min_size=n_p, max_size=n_p)))
    half = draw(st.lists(st.floats(0.01, 3.0), min_size=n_p, max_size=n_p))
    shift = draw(st.lists(st.floats(-1.0, 1.0), min_size=n_p, max_size=n_p))
    box = [(p + s - h, p + s + h) for p, s, h in zip(cfg.p_true, shift, half)]
    q = draw(st.integers(1, m - 1))
    return agg, box, shape, q, draw(st.integers(0, 2**32 - 1))


def check_against_oracle(case):
    """The kernel's Z and, up to three dimensions, ``evaluate_region``'s result,
    each equal to the oracle's; returns the result (None at n_p = 4)."""
    agg, box, shape, q, tie_seed = case
    z = _z_values_grid(agg, _cell_centres(tuple(box), shape))
    # Z is a view into the workspace: compare it before the next call reuses it
    z_oracle = grid_oracle.z_values_points(agg, grid_oracle.cell_points(box, shape))
    assert np.array_equal(z.reshape(agg.m, -1), z_oracle)
    if agg.n_p > 3:  # beyond the dimensions evaluate_region grids
        return None
    res = evaluate_region(agg, box, shape, q, tie_seed=tie_seed)
    member, volume, bounding = grid_oracle.region(agg, box, shape, q, tie_seed)
    assert np.array_equal(res.member_mask, member)
    assert res.member_mask.flags.c_contiguous
    assert res.volume == volume
    assert res.bounding_box == bounding
    return res


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(region_cases())
def test_kernel_matches_einsum_oracle(case):
    check_against_oracle(case)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(region_cases(), min_size=2, max_size=5))
def test_interleaved_grids_match_the_oracle(cases):
    # forwards, then backwards: the turn repeats the last shape (the workspace
    # is reused), every other step may change n_p, m or the grid (it is replaced)
    results = [(res, res.member_mask.copy())
               for res in map(check_against_oracle, cases + cases[::-1]) if res is not None]
    for res, mask in results:
        assert np.array_equal(res.member_mask, mask)


def test_a_repeat_call_allocates_no_full_grid_array():
    n_nodes, m = 20, 10
    rng = substream(5, "workspace")
    cfg = FieldConfig(n_p=3, p_true=np.array([1.0, -0.5, 0.25]), noise=NoiseSpec(scale=0.1))
    samples = generate_measurements(rng.uniform(0, 1, size=(n_nodes, 2)), cfg, rng)
    agg = tie_exact_aggregate(samples, draw_sign_matrix(m, n_nodes, 5), np.ones(n_nodes))
    box, shape = [(p - 1, p + 1) for p in cfg.p_true], (12, 12, 12)
    z = grid_oracle.z_values_points(agg, grid_oracle.cell_points(box, shape))
    assert not (z[1:] == z[0]).any()  # no tie, so no tie block is drawn
    first = evaluate_region(agg, box, 12, 1, tie_seed=3)
    tracemalloc.start()
    try:
        again = evaluate_region(agg, box, 12, 1, tie_seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(again.member_mask, first.member_mask) and again.member_count > 0
    assert peak < m * 12**3 * 8  # one (m, 12^3) float64 array, 138,240 bytes
