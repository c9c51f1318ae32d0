"""Closed-form traffic formulas: hand traces, crossover sizes, comparisons."""

import numpy as np
import pytest

from spsnet.analysis import (
    compare,
    critical_size,
    traffic_mf_binary,
    traffic_mf_clustered,
    traffic_mf_tree,
    traffic_tas_binary,
    traffic_tas_clustered,
    traffic_tas_tree,
)
from spsnet.diffusion import payload_sizes, run_mf_tree, run_tas_tree
from spsnet.model import FieldConfig, NoiseSpec, generate_measurements
from spsnet.rng import derive_seed, substream
from spsnet.sps import draw_sign_matrix
from spsnet.topology import complete_binary_tree, random_geometric, spanning_tree


def test_census_validation():
    good_lam, good_bar = [1, 2, 1], [0, 1, 1]
    assert traffic_tas_tree(good_lam, good_bar, 2, 10) > 0
    with pytest.raises(ValueError):
        traffic_tas_tree([2, 2, 1], good_bar, 2, 10)  # root level must hold one node
    with pytest.raises(ValueError):
        traffic_tas_tree(good_lam, [0, 3, 1], 2, 10)  # childless > level count
    with pytest.raises(ValueError):
        traffic_tas_tree(good_lam, [0, 1, 0], 2, 10)  # deepest level all childless
    with pytest.raises(ValueError):
        traffic_mf_tree([1, 2], good_bar, 2, 10)  # size mismatch
    with pytest.raises(ValueError):
        traffic_mf_tree([1.0, 2.5, 1.0], good_bar, 2, 10)  # fractional counts
    with pytest.raises(ValueError):
        traffic_mf_tree([], [], 2, 10)
    with pytest.raises(ValueError):
        traffic_mf_tree([1, 0, 1], [0, 0, 1], 2, 10)  # empty middle level


def test_tree_formulas_hand_traces():
    d_rec, d_agg = payload_sizes(2, 2)
    # root with two children, one of which has a child
    assert traffic_tas_tree([1, 2, 1], [0, 1, 1], 2, 2) == 5 * d_agg
    assert traffic_mf_tree([1, 2, 1], [0, 1, 1], 2, 2) == 10 * d_rec
    # three-node path rooted at one end
    assert traffic_tas_tree([1, 1, 1], [0, 0, 1], 2, 2) == 4 * d_agg
    assert traffic_mf_tree([1, 1, 1], [0, 0, 1], 2, 2) == 7 * d_rec


def test_binary_helpers_match_general_census():
    for depth in range(1, 7):
        tree = complete_binary_tree(depth)
        lam, bar = tree.level_counts, tree.childless_counts
        assert traffic_tas_binary(depth, 2, 10) == traffic_tas_tree(lam, bar, 2, 10)
        assert traffic_mf_binary(depth, 2, 10) == traffic_mf_tree(lam, bar, 2, 10)
        assert traffic_tas_binary(depth, 3, 20) == traffic_tas_tree(lam, bar, 3, 20)
        assert traffic_mf_binary(depth, 3, 20) == traffic_mf_tree(lam, bar, 3, 20)
    with pytest.raises(ValueError):
        traffic_tas_binary(0, 2, 10)
    with pytest.raises(ValueError):
        traffic_mf_binary(-1, 2, 10)


def test_census_formulas_equal_the_simulators_on_every_small_tree():
    """Complete binary trees of depth 0 to 5 (the one-node tree first) and BFS
    trees of random deployments of 2 to 40 nodes, at every n_p in 1..3 and m
    in 2..12: each simulated total is the census formula and ``compare``'s."""
    trees = [complete_binary_tree(depth) for depth in range(6)]
    trees += [spanning_tree(random_geometric(n, substream(2, "census", n))) for n in range(2, 41)]
    for i, tree in enumerate(trees):
        n = tree.n_nodes
        lam, bar = tree.level_counts, tree.childless_counts
        positions = substream(2, "census-positions", i).uniform(0, 1, (n, 2))
        for n_p in (1, 2, 3):
            fc = FieldConfig(n_p=n_p, p_true=np.zeros(n_p), noise=NoiseSpec(scale=0.1))
            samples = generate_measurements(positions, fc, substream(2, "census-noise", i, n_p))
            for m in range(2, 13):
                signs = draw_sign_matrix(m, n, derive_seed(2, "census-signs", i, n_p, m))
                case = (n, tree.depth, n_p, m)
                tas = run_tas_tree(tree, samples, signs).traffic.total_scalars
                mf = run_mf_tree(tree, samples).traffic.total_scalars
                assert tas == traffic_tas_tree(lam, bar, n_p, m), case
                assert mf == traffic_mf_tree(lam, bar, n_p, m), case
                report = compare("tree", n_p, m, level_counts=lam, childless_counts=bar)
                assert (report.tas, report.mf, report.n_nodes) == (tas, mf, n), case


def test_binary_crossover_totals():
    # depth 4 (31 nodes): flooding still cheaper; depth 5 (63 nodes): tags win
    assert traffic_mf_binary(4, 2, 10) == 1443
    assert traffic_tas_binary(4, 2, 10) == 2250
    assert traffic_mf_binary(5, 2, 10) == 5955
    assert traffic_tas_binary(5, 2, 10) == 4650


def test_clustered_formulas():
    d_rec, d_agg = payload_sizes(2, 10)
    assert traffic_tas_clustered(140, 20, 2, 10) == 160 * d_agg == 8000
    assert traffic_mf_clustered(140, 20, 2, 10) == 2920 * d_rec == 8760
    # single cluster degenerates to a star
    assert traffic_tas_clustered(7, 1, 2, 2) == 8 * payload_sizes(2, 2)[1]
    with pytest.raises(ValueError):
        traffic_tas_clustered(5, 6, 2, 10)
    with pytest.raises(ValueError):
        traffic_mf_clustered(5, 0, 2, 10)


def test_critical_size_values():
    assert critical_size(2, 10) == pytest.approx(48.95829710142188, abs=1e-12)
    assert critical_size(3, 20) == pytest.approx(133.98496070541066, abs=1e-12)
    crit = critical_size(50, 10)
    assert crit == pytest.approx(778.4091920581436, abs=1e-9)
    assert crit / (50 * 10) == pytest.approx(1.5568183841162873, abs=1e-12)


def test_critical_size_is_the_cost_crossover():
    for n_p, m in [(2, 10), (3, 20), (1, 2), (5, 7)]:
        d_rec, d_agg = payload_sizes(n_p, m)
        n_star = critical_size(n_p, m)
        mf_cost = (n_star**2 + 1) / 2 * d_rec
        tas_cost = (3 * n_star - 3) / 2 * d_agg
        assert mf_cost == pytest.approx(tas_cost, rel=1e-12)
        # flooding cheaper just below, tagged aggregates just above
        for n, expect_mf in [(n_star * 0.9, True), (n_star * 1.1, False)]:
            mf = (n**2 + 1) / 2 * d_rec
            tas = (3 * n - 3) / 2 * d_agg
            assert (mf < tas) == expect_mf


def test_compare_reports():
    rep4 = compare("binary", 2, 10, depth=4)
    assert rep4.winner == "mf"
    assert rep4.critical_size == pytest.approx(48.95829710142188)
    assert rep4.mf == 1443
    assert rep4.tas == 2250
    assert rep4.n_nodes == 31 and rep4.topology == "binary"

    rep5 = compare("binary", 2, 10, depth=5)
    assert rep5.winner == "tas"

    tree = compare("tree", 2, 10, level_counts=[1, 2, 1], childless_counts=[0, 1, 1])
    assert tree.winner == "mf"
    assert tree.tas == 5 * payload_sizes(2, 10)[1]
    assert tree.critical_size is None

    clus = compare("clustered", 2, 10, n_nodes=140, n_clusters=20)
    assert clus.winner == "tas"
    assert clus.mf == 8760

    # 6 nodes, 2 clusters, n_p=1, m=2: both protocols bill exactly 32 scalars
    tie = compare("clustered", 1, 2, n_nodes=6, n_clusters=2)
    assert tie.mf == tie.tas == 32
    assert tie.winner == "tie"

    with pytest.raises(ValueError):
        compare("binary", 2, 10)
    with pytest.raises(ValueError):
        compare("tree", 2, 10)
    with pytest.raises(ValueError):
        compare("clustered", 2, 10, n_nodes=10)
    with pytest.raises(ValueError):
        compare("ring", 2, 10, depth=3)


def test_formula_outputs_are_ints():
    vals = [
        traffic_tas_tree([1, 2, 1], [0, 1, 1], 2, 10),
        traffic_mf_tree([1, 2, 1], [0, 1, 1], 2, 10),
        traffic_tas_binary(3, 2, 10),
        traffic_mf_binary(3, 2, 10),
        traffic_tas_clustered(10, 2, 2, 10),
        traffic_mf_clustered(10, 2, 2, 10),
    ]
    for v in vals:
        assert isinstance(v, (int, np.integer)) and not isinstance(v, bool)
