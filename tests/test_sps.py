"""Sign-perturbed sums: aggregates, membership, tie handling, region grids."""

import json
from collections import Counter

import numpy as np
import pytest

import grid_oracle
from result_checks import sums_close
from spsnet.model import FieldConfig, NoiseSpec, Samples, generate_measurements
from spsnet.rng import derive_seed, substream
from spsnet.sps import (
    AggregateSums,
    SignMatrix,
    SingularMatrixError,
    batch_aggregate,
    draw_sign_matrix,
    evaluate_region,
    local_aggregate,
    ls_estimate,
    membership,
    rank_above,
    tie_exact_aggregate,
    truncated_aggregate,
    z_values,
)
from spsnet.sps import _cell_centres, _z_values_grid


def make_samples(seed, n_nodes, n_p=2, scale=0.1):
    cfg = FieldConfig(
        n_p=n_p,
        p_true=np.array([(-0.5) ** k for k in range(n_p)]),
        noise=NoiseSpec(scale=scale),
    )
    positions = substream(seed, "pos").uniform(0, 1, size=(n_nodes, 2))
    return generate_measurements(positions, cfg, substream(seed, "noise")), cfg


def two_node_hand_aggregate():
    """N=2, phi=(1) both, y=(1,-1), perturbed signs (+1,-1): Z0=4p^2, Z1=4."""
    samples = Samples(phi=[[1.0], [1.0]], y=[1.0, -1.0])
    signs = SignMatrix(np.array([[1, 1], [1, -1]]))
    return batch_aggregate(samples, signs)


# ---------------------------------------------------------------------------
# sign matrices


def test_sign_matrix_shape_and_row0():
    signs = draw_sign_matrix(5, 8, sign_seed=3)
    assert signs.m == 5 and signs.n_nodes == 8
    assert np.all(signs.entries[0] == 1)
    assert np.all(np.abs(signs.entries) == 1)
    again = draw_sign_matrix(5, 8, sign_seed=3)
    assert np.array_equal(signs.entries, again.entries)
    assert not np.array_equal(signs.entries, draw_sign_matrix(5, 8, sign_seed=4).entries)


def test_sign_matrix_validation():
    with pytest.raises(ValueError):
        draw_sign_matrix(1, 5, 0)
    with pytest.raises(ValueError):
        SignMatrix(np.array([[1, 2], [1, 1]]))
    with pytest.raises(ValueError):
        SignMatrix(np.array([[1, -1], [1, 1]]))  # row 0 not all ones


def test_perturbed_rows_average_out():
    signs = draw_sign_matrix(10, 10000, sign_seed=77)
    row_means = np.abs(signs.entries[1:].mean(axis=1))
    assert np.all(row_means < 0.04)


# ---------------------------------------------------------------------------
# aggregates


def test_local_aggregate_hand_values():
    s = Samples(phi=[[1.0, 0.0]], y=[2.0])
    agg = local_aggregate(s, 0, [1.0, -1.0])
    assert np.allclose(agg.vec, [[2.0, 0.0], [-2.0, 0.0]])
    assert np.allclose(agg.mat[0], [[1.0, 0.0], [0.0, 0.0]])
    assert np.allclose(agg.mat[1], -agg.mat[0])
    zero_y = local_aggregate(Samples(phi=[[1.0, 0.5]], y=[0.0]), 0, [1.0, -1.0])
    assert np.all(zero_y.vec == 0.0)


def test_sum_of_locals_equals_batch():
    samples, _ = make_samples(21, 9, n_p=3)
    signs = draw_sign_matrix(6, 9, sign_seed=2)
    locals_ = [local_aggregate(samples, i, signs.column(i)) for i in range(9)]
    total = AggregateSums(sum(a.vec for a in locals_), sum(a.mat for a in locals_))
    assert sums_close(total, batch_aggregate(samples, signs))
    assert sums_close(total, tie_exact_aggregate(samples, signs, np.ones(9)))


def test_aggregate_algebra():
    # both builders are linear in the weights; zero weights give the zero payload
    samples, _ = make_samples(22, 4)
    signs = draw_sign_matrix(3, 4, sign_seed=5)
    a = local_aggregate(samples, 0, signs.column(0))
    b = local_aggregate(samples, 1, signs.column(1))
    zero = AggregateSums.zeros(3, 2)
    for build in (truncated_aggregate, tie_exact_aggregate):
        assert sums_close(build(samples, signs, [1.0, 1.0, 0.0, 0.0]), AggregateSums(a.vec + b.vec, a.mat + b.mat))
        assert sums_close(build(samples, signs, [0.5, 0.0, 0.0, 0.0]), AggregateSums(0.5 * a.vec, 0.5 * a.mat))
        assert sums_close(build(samples, signs, np.zeros(4)), zero)
        assert sums_close(zero, build(samples, signs, np.zeros(4)))
    assert (a.m, a.n_p) == (3, 2)


def test_truncated_aggregate_weight_cases():
    samples, _ = make_samples(23, 7)
    signs = draw_sign_matrix(4, 7, sign_seed=9)
    assert sums_close(truncated_aggregate(samples, signs, np.ones(7)), batch_aggregate(samples, signs))
    onehot = np.zeros(7)
    onehot[3] = 1.0
    assert sums_close(truncated_aggregate(samples, signs, onehot), local_aggregate(samples, 3, signs.column(3)))
    zero = truncated_aggregate(samples, signs, np.zeros(7))
    assert np.all(zero.vec == 0.0) and np.all(zero.mat == 0.0)
    with pytest.raises(ValueError):
        truncated_aggregate(samples, signs, np.ones(6))


def test_tie_exact_aggregate_weight_cases():
    samples, _ = make_samples(23, 7)
    signs = draw_sign_matrix(4, 7, sign_seed=9)
    assert sums_close(tie_exact_aggregate(samples, signs, np.ones(7)), batch_aggregate(samples, signs))
    for k in range(7):  # a one-hot vector gives a node's local aggregate bit for bit
        one = tie_exact_aggregate(samples, signs, np.eye(7)[k])
        local = local_aggregate(samples, k, signs.column(k))
        assert np.array_equal(one.vec, local.vec) and np.array_equal(one.mat, local.mat)
    zero = tie_exact_aggregate(samples, signs, np.zeros(7))
    assert np.all(zero.vec == 0.0) and np.all(zero.mat == 0.0)
    c = np.linspace(0.0, 1.0, 7)
    assert sums_close(tie_exact_aggregate(samples, signs, c), truncated_aggregate(samples, signs, c))
    with pytest.raises(ValueError):
        tie_exact_aggregate(samples, signs, np.ones(6))
    with pytest.raises(ValueError):
        tie_exact_aggregate(samples, draw_sign_matrix(4, 6, sign_seed=9), np.ones(7))


# ---------------------------------------------------------------------------
# Z values and membership


def test_z_values_hand_example():
    agg = two_node_hand_aggregate()
    assert np.allclose(agg.vec, [[0.0], [2.0]])
    assert np.allclose(agg.mat, [[[2.0]], [[0.0]]])
    for p in (-1.5, -0.3, 0.0, 0.5, 2.0):
        z = z_values(agg, [p])
        assert z[0] == pytest.approx(4 * p * p, abs=1e-12)
        assert z[1] == pytest.approx(4.0, abs=1e-12)
    assert np.all(z_values(AggregateSums.zeros(3, 1), [0.7]) == 0.0)
    with pytest.raises(ValueError):
        z_values(agg, [0.0, 0.0])


def test_z_values_grid_matches_scalar_path():
    samples, _ = make_samples(31, 6, n_p=2)
    signs = draw_sign_matrix(5, 6, sign_seed=1)
    agg = batch_aggregate(samples, signs)
    rng = substream(31, "grid")
    axes = (rng.uniform(-1, 1, size=6), rng.uniform(-1, 1, size=3))
    grid = _z_values_grid(agg, axes)
    assert grid.shape == (5, 6, 3)
    for i, j in np.ndindex(6, 3):
        assert np.allclose(grid[:, i, j], z_values(agg, [axes[0][i], axes[1][j]]), rtol=1e-12)


def never():
    raise AssertionError("keys drawn without a tie")


def test_membership_strict_orderings():
    assert membership([1.0, 5.0, 6.0], 1, never) is True
    assert membership([9.0, 1.0, 2.0], 1, never) is False
    with pytest.raises(ValueError):
        membership([1.0, 2.0, 3.0], 3, never)
    with pytest.raises(ValueError):
        membership([1.0, 2.0, 3.0], 0, never)


def test_membership_reads_keys_only_on_a_tie():
    # a strict ordering never calls ``keys``; a tie reads, once, the m keys
    # that an eager draw of m uniforms from the same stream would have read
    assert membership(np.arange(6, dtype=float), 2, never) is True
    eager = substream(8, "tie-consumption").uniform(size=6)
    calls = []

    def keys():
        calls.append(None)
        return substream(8, "tie-consumption").uniform(size=6)

    for z in ([2.0, 2.0, 2.0, 1.0, 3.0, 2.0], [4.0] * 6, [1.0, 0.0, 0.0, 0.0, 0.0, 1.0]):
        z = np.array(z)
        above = (z[1:] > z[0]) | ((z[1:] == z[0]) & (eager[1:] > eager[0]))
        calls.clear()
        for q in range(1, 6):
            assert membership(z, q, keys) == bool(above.sum() >= q)
        assert len(calls) == 5


def test_membership_all_ties_hits_nominal_level():
    # fully degenerate Z vector: inclusion decided by the tie-break alone
    z = np.full(10, 4.0)
    rng = substream(12, "degenerate")
    hits = sum(membership(z, 1, lambda: rng.uniform(size=10)) for _ in range(20000))
    assert abs(hits / 20000 - 0.9) < 0.012


def orderings(values, keys):
    """Ascending order of each row of ``values`` under (value, key), from ``rank_above``.

    Column (i, t) of the stacked input holds row t rotated so that element i
    comes first, and its position is n - 1 minus the rows ranked above it.
    """
    n = values.shape[1]
    rotate = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n  # [r, i] -> (i + r) % n
    position = n - 1 - rank_above(values.T[rotate], lambda: keys.T[rotate])  # (n, rows)
    return np.argsort(position, axis=0).T


def test_uniform_order_strict_values():
    rng = substream(2, "order")
    assert np.array_equal(orderings(np.array([[3.0, 1.0, 2.0]]), rng.uniform(size=(1, 3))), [[1, 2, 0]])
    # ties permuted uniformly enough for a coarse check
    rng = substream(3, "order-ties")
    keys = np.array([rng.uniform(size=3) for _ in range(6000)])
    counts = Counter(map(tuple, orderings(np.ones((6000, 3)), keys).tolist()))
    assert len(counts) == 6
    for v in counts.values():
        assert abs(v / 6000 - 1 / 6) < 0.03


def test_rank_above_draws_keys_only_on_ties():
    strict = np.array([[2.0, 1.0], [3.0, 0.5], [1.0, 0.0]])
    assert np.array_equal(rank_above(strict, never), [1, 0])
    tied = np.array([[2.0, 1.0], [2.0, 1.0], [1.0, 1.0]])
    keys = np.array([[0.5, 0.5], [0.7, 0.2], [0.9, 0.9]])
    assert np.array_equal(rank_above(tied, lambda: keys), [1, 1])


def test_rank_counts_past_256_rows_equal_an_int64_sum():
    """Counts up to m - 1 = 299 outgrow uint8; they and the membership
    verdicts equal the int64 count of the same ranking."""
    rng = substream(5, "wide-ranks")
    z = rng.integers(0, 4, size=(300, 40)).astype(float)  # few values, so many ties
    z[0, :6] = -1.0  # every row ranks above row 0 in these columns
    keys = rng.uniform(size=z.shape)
    for m in (256, 300):
        above = (z[1:m] > z[0]) | ((z[1:m] == z[0]) & (keys[1:m] > keys[0]))
        expected = above.sum(axis=0, dtype=np.int64)
        counts = rank_above(z[:m], lambda: keys[:m])
        assert np.array_equal(counts, expected) and expected.max() == m - 1
        assert counts.dtype == (np.uint8 if m == 256 else np.uint16)
        for q in (1, 128, 255, m - 1):
            verdicts = [membership(z[:m, i], q, lambda: keys[:m, i]) for i in range(z.shape[1])]
            assert verdicts == list(expected >= q)


# ---------------------------------------------------------------------------
# weights


# ---------------------------------------------------------------------------
# region evaluation


def test_region_hand_example_volume_two():
    # members are exactly the cells whose center satisfies 4p^2 < 4
    agg = two_node_hand_aggregate()
    res = evaluate_region(agg, [(-2.0, 2.0)], 8, q=1, tie_seed=123)
    assert np.array_equal(res.member_mask, [False, False, True, True, True, True, False, False])
    assert res.volume == 2.0
    assert res.member_count == 4
    assert res.bounding_box == [(-1.0, 1.0)]
    # no ties at these cell centers, so the tie seed is irrelevant
    other = evaluate_region(agg, [(-2.0, 2.0)], 8, q=1, tie_seed=99999)
    assert np.array_equal(res.member_mask, other.member_mask)


def test_region_says_whether_it_drew_tie_keys():
    samples, _ = make_samples(8, 50)
    signs = draw_sign_matrix(10, 50, 8)
    box = [(-1.5, 1.5), (-1.5, 1.5)]
    one_hot = np.zeros(50)
    one_hot[7] = 1.0  # every sign row is +-row 0 on one node
    res = evaluate_region(tie_exact_aggregate(samples, signs, one_hot), box, 6, q=1, tie_seed=1)
    assert res.tied and "tied" not in res.to_json_dict()
    assert not evaluate_region(tie_exact_aggregate(samples, signs, np.ones(50)), box, 6, q=1, tie_seed=1).tied


def test_region_refinement_stays_within_boundary_layer():
    agg = two_node_hand_aggregate()
    v8 = evaluate_region(agg, [(-2.0, 2.0)], 8, q=1, tie_seed=1).volume
    v64 = evaluate_region(agg, [(-2.0, 2.0)], 64, q=1, tie_seed=1).volume
    assert abs(v8 - v64) <= 2 * (4.0 / 8)


def test_region_shrinks_as_q_grows():
    samples, cfg = make_samples(41, 8, n_p=2)
    signs = draw_sign_matrix(6, 8, sign_seed=4)
    agg = batch_aggregate(samples, signs)
    box = [(p - 1, p + 1) for p in cfg.p_true]
    loose = evaluate_region(agg, box, 10, q=1, tie_seed=7)
    tight = evaluate_region(agg, box, 10, q=5, tie_seed=7)
    assert np.all(tight.member_mask <= loose.member_mask)
    assert tight.volume <= loose.volume


def test_region_tie_seed_determinism():
    agg = AggregateSums.zeros(10, 1)  # all cells fully tied
    a = evaluate_region(agg, [(0.0, 1.0)], 64, q=1, tie_seed=5)
    b = evaluate_region(agg, [(0.0, 1.0)], 64, q=1, tie_seed=5)
    c = evaluate_region(agg, [(0.0, 1.0)], 64, q=1, tie_seed=6)
    assert np.array_equal(a.member_mask, b.member_mask)
    assert not np.array_equal(a.member_mask, c.member_mask)


def test_region_lazy_tie_draw_matches_eager_oracle():
    # Z_0 = 4p^2 and Z_1 = 4: the cells centred on p = -1 and p = 1 tie, the others do not
    agg = two_node_hand_aggregate()
    box = [(-1.5, 2.5)]
    centres = _cell_centres(tuple(box), (4,))
    assert np.array_equal(centres[0], [-1.0, 0.0, 1.0, 2.0])
    z = _z_values_grid(agg, centres)
    assert np.array_equal(z[0] == z[1], [True, False, True, False])
    masks = set()
    for tie_seed in range(16):
        res = evaluate_region(agg, box, 4, q=1, tie_seed=tie_seed)
        member, volume, bounding = grid_oracle.region(agg, box, (4,), 1, tie_seed)
        assert np.array_equal(res.member_mask, member)
        assert res.volume == volume and res.bounding_box == bounding
        assert res.member_mask[1] and not res.member_mask[3]
        masks.add(tuple(res.member_mask))
    assert len(masks) > 1  # the tied cells follow the tie seed


def test_region_argument_validation():
    agg = two_node_hand_aggregate()
    with pytest.raises(ValueError):
        evaluate_region(agg, [(-1, 1), (-1, 1)], 4, q=1, tie_seed=0)
    with pytest.raises(ValueError):
        evaluate_region(agg, [(1, -1)], 4, q=1, tie_seed=0)
    # a NaN bound fails every comparison, an infinite one gives NaN cell centres
    nan, inf = float("nan"), float("inf")
    for box in ([(nan, 1.0)], [(-1.0, nan)], [(nan, nan)], [(-inf, 1.0)], [(-1.0, inf)], [(-inf, inf)]):
        with pytest.raises(ValueError, match="finite bounds"):
            evaluate_region(agg, box, 4, q=1, tie_seed=0)
    with pytest.raises(ValueError):
        evaluate_region(agg, [(-1, 1)], 0, q=1, tie_seed=0)
    with pytest.raises(ValueError):
        evaluate_region(agg, [(-1, 1)], 4, q=2, tie_seed=0)
    # a cell count is a positive integer: no rounding, no bools, no strings
    for grid in (12.7, 4.0, True, np.True_, "8", np.array(8.0), [4.0], [True], ["4"], [[4]],
                 (4, 4), np.array([[4]]), None, -3, np.int64(0), np.array([0])):
        with pytest.raises(ValueError, match="grid_per_dim"):
            evaluate_region(agg, [(-1, 1)], grid, q=1, tie_seed=0)
    expected = evaluate_region(agg, [(-1, 1)], 4, q=1, tie_seed=0).member_mask
    for grid in (np.int64(4), np.uint8(4), np.array(4), [4], (np.int32(4),), np.array([4])):
        assert np.array_equal(evaluate_region(agg, [(-1, 1)], grid, q=1, tie_seed=0).member_mask, expected)
    big = AggregateSums.zeros(4, 4)
    box4 = [(-1, 1)] * 4
    with pytest.raises(ValueError, match="at most 3"):
        evaluate_region(big, box4, 2, q=1, tie_seed=0)


@pytest.mark.parametrize("box,grid", [([(-1e308, 1e308), (0.0, 1.0)], 4), ([(-1e200, 1e200)] * 3, 2),
                                      ([(-1.5e154, 1.5e154)] * 2, 2)], ids=["extent", "cell", "grid"])
def test_a_box_whose_size_overflows_a_float_is_refused(box, grid):
    # finite bounds whose extent, cell volume or grid volume is not a finite float
    agg = AggregateSums.zeros(4, len(box))
    with pytest.raises(ValueError, match="finite bounds and positive extent"):
        evaluate_region(agg, box, grid, q=1, tie_seed=0)
    # a box just inside the float range still evaluates, to a finite volume
    res = evaluate_region(agg, [(-1e100, 1e100)] * len(box), grid, q=1, tie_seed=0)
    assert np.isfinite(res.volume) and res.volume > 0


def decode_rle(runs, shape) -> np.ndarray:
    """The mask a ``mask_rle`` encodes: alternating run lengths of the C-order
    flattened mask, the first run False."""
    flat = np.repeat(np.arange(len(runs)) % 2 == 1, runs)
    assert flat.size == np.prod(shape)
    return flat.reshape(shape)


def test_region_json_roundtrip():
    samples, cfg = make_samples(43, 6)
    signs = draw_sign_matrix(8, 6, sign_seed=6)
    agg = batch_aggregate(samples, signs)
    box = [(p - 1, p + 1) for p in cfg.p_true]
    res = evaluate_region(agg, box, (9, 7), q=2, tie_seed=55)
    d = res.to_json_dict()
    assert json.loads(json.dumps(d)) == d
    assert np.array_equal(decode_rle(d["mask_rle"], d["grid_shape"]), res.member_mask)
    assert d["volume"] == res.volume and d["member_count"] == res.member_count
    assert d["bounding_box"] == [list(b) for b in res.bounding_box]
    assert tuple(d["grid_shape"]) == res.grid_shape
    assert (d["q"], d["m"], d["tie_seed"]) == (2, 8, 55)
    rows = res.csv_summary_rows()
    assert len(rows) == 2
    assert all(r[0] == res.volume for r in rows)


def test_region_empty_sentinel():
    # huge q far from the data: make an empty region by shifting the box
    agg = two_node_hand_aggregate()
    res = evaluate_region(agg, [(5.0, 6.0)], 4, q=1, tie_seed=3)
    assert res.member_count == 0
    assert res.volume == 0.0
    assert res.bounding_box is None
    d = res.to_json_dict()
    assert d["bounding_box"] is None and d["member_count"] == 0
    assert not decode_rle(d["mask_rle"], d["grid_shape"]).any()
    rows = res.csv_summary_rows()
    assert rows[0][2] == "" and rows[0][3] == ""


# ---------------------------------------------------------------------------
# least squares


def test_ls_estimate_hand_and_noiseless():
    agg = two_node_hand_aggregate()
    assert ls_estimate(agg) == pytest.approx([0.0], abs=1e-12)
    samples, cfg = make_samples(51, 12, n_p=3, scale=0.0)
    signs = draw_sign_matrix(4, 12, sign_seed=8)
    batch = batch_aggregate(samples, signs)
    p_hat = ls_estimate(batch)
    assert np.allclose(p_hat, cfg.p_true, atol=1e-9)
    assert z_values(batch, p_hat)[0] == pytest.approx(0.0, abs=1e-9)


def test_ls_estimate_rejects_singular():
    s = Samples(phi=[[1.0, 2.0]], y=[1.0])
    agg = local_aggregate(s, 0, [1.0, 1.0])  # rank-one normal matrix
    with pytest.raises(SingularMatrixError):
        ls_estimate(agg)
