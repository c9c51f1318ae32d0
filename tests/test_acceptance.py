"""Acceptance suite: twelve end-to-end checks of the package's core claims.

One test per claim, each at its stated tolerance, so ``pytest -v`` prints one
pass/fail line per claim. Statistical checks use fixed seeds and tolerances of
three binomial sigmas or wider; traffic checks are exact integer equalities.
"""

from collections import Counter

import numpy as np

from lp_oracle import wrapup_lp_optimum
from tas_oracle import WrapUpWeights
from test_lp import random_tag_matrix
from test_sps import orderings

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
from spsnet.diffusion import (
    run_mf_clustered,
    run_mf_tree,
    run_tas_clustered,
    run_tas_tree,
    tas_wrapup,
    TagTable,
)
from spsnet.experiments import ExperimentConfig, run_coverage, run_success_rate, run_tradeoff
from spsnet.lp import LpProblem, solve_lp
from spsnet.model import FieldConfig, NoiseSpec, generate_measurements
from spsnet.rng import derive_seed, substream
from spsnet.sps import (
    draw_sign_matrix,
    evaluate_region,
    tie_exact_aggregate,
    truncated_aggregate,
)
from spsnet.topology import clustered, complete_binary_tree, random_geometric, spanning_tree


def coverage_summary(seed, diffusion, noise_kind="gaussian", trials=2000):
    cfg = ExperimentConfig({
        "seed": seed,
        "trials": trials,
        "topology": {"kind": "rgg", "n_nodes": 20},
        "model": {"n_p": 2, "noise": {"kind": noise_kind, "scale": 0.1}},
        "sps": {"m": 10, "q": 1},
        "diffusion": diffusion,
    })
    return run_coverage(cfg).summary


def test_criterion_01_exact_coverage_full_data():
    s = coverage_summary(1101, {"protocol": "full"})
    print(f"full-data coverage {s['coverage']:.4f} (target 0.90 +/- 0.02)")
    assert abs(s["coverage"] - 0.90) <= 0.02


def test_criterion_02_exact_coverage_under_truncation():
    cases = [
        ("mf after 1 round", 1102, {"protocol": "mf", "rounds": 1}),
        ("tas after 1 round", 1103, {"protocol": "tas", "rounds": 1}),
        ("metropolis consensus after 4 iterations", 1104,
         {"protocol": "consensus", "iterations": 4, "scheme": "metropolis"}),
        ("local only", 1105, {"protocol": "local"}),
    ]
    for label, seed, diffusion in cases:
        s = coverage_summary(seed, diffusion)
        print(f"{label}: coverage {s['coverage']:.4f} (target 0.90 +/- 0.02)")
        assert abs(s["coverage"] - 0.90) <= 0.02, label


def test_criterion_03_coverage_beyond_gaussian_noise():
    for seed, kind in ((1106, "uniform"), (1107, "laplace"), (1108, "two-point")):
        s = coverage_summary(seed, {"protocol": "full"}, noise_kind=kind)
        print(f"{kind} noise: coverage {s['coverage']:.4f} (target 0.90 +/- 0.02)")
        assert abs(s["coverage"] - 0.90) <= 0.02, kind


def test_criterion_04_binary_tree_traffic_matches_closed_form():
    fc_cache = {}
    for n_p, m in ((2, 10), (3, 20)):
        fc = fc_cache.setdefault(n_p, FieldConfig(
            n_p=n_p, p_true=np.zeros(n_p), noise=NoiseSpec(scale=0.1)))
        for depth in range(1, 7):
            tree = complete_binary_tree(depth)
            n = tree.n_nodes
            positions = substream(1109, "pos", n_p, m, depth).uniform(0, 1, (n, 2))
            samples = generate_measurements(positions, fc, substream(1109, "noise", n_p, m, depth))
            signs = draw_sign_matrix(m, n, derive_seed(1109, "signs", n_p, m, depth))
            tas_sim = run_tas_tree(tree, samples, signs).traffic.total_scalars
            mf_sim = run_mf_tree(tree, samples).traffic.total_scalars
            assert tas_sim == traffic_tas_binary(depth, n_p, m), (n_p, m, depth)
            assert mf_sim == traffic_mf_binary(depth, n_p, m), (n_p, m, depth)
    print("simulated binary-tree totals equal closed forms for depths 1..6, both payload sizes")


def test_criterion_05_random_tree_traffic_matches_census_formula():
    fc = FieldConfig(n_p=2, p_true=np.zeros(2), noise=NoiseSpec(scale=0.1))
    for r in range(100):
        g = random_geometric(100, substream(1110, "topology", r))
        tree = spanning_tree(g)
        lam, bar = tree.level_counts, tree.childless_counts
        samples = generate_measurements(g.positions, fc, substream(1110, "noise", r))
        signs = draw_sign_matrix(10, 100, derive_seed(1110, "signs", r))
        assert run_tas_tree(tree, samples, signs).traffic.total_scalars == \
            traffic_tas_tree(lam, bar, 2, 10), r
        assert run_mf_tree(tree, samples).traffic.total_scalars == \
            traffic_mf_tree(lam, bar, 2, 10), r
    print("100/100 random spanning trees: simulated totals equal census formulas exactly")


def test_criterion_06_clustered_traffic_matches_closed_form():
    fc = FieldConfig(n_p=2, p_true=np.zeros(2), noise=NoiseSpec(scale=0.1))
    for r in range(100):
        topo = clustered(140, 20, substream(1111, "clusters", r))
        positions = substream(1111, "pos", r).uniform(0, 1, (140, 2))
        samples = generate_measurements(positions, fc, substream(1111, "noise", r))
        signs = draw_sign_matrix(10, 140, derive_seed(1111, "signs", r))
        assert run_tas_clustered(topo, samples, signs).traffic.total_scalars == \
            traffic_tas_clustered(140, 20, 2, 10) == 8000, r
        assert run_mf_clustered(topo, samples).traffic.total_scalars == \
            traffic_mf_clustered(140, 20, 2, 10) == 8760, r
    print("100/100 clustered deployments: simulated totals equal closed forms (8000 vs 8760)")


def test_criterion_07_crossover_bracketing():
    rep31 = compare("binary", 2, 10, depth=4)
    rep63 = compare("binary", 2, 10, depth=5)
    crit = critical_size(2, 10)
    print(f"31 nodes: winner {rep31.winner}; 63 nodes: winner {rep63.winner}; "
          f"crossover size {crit:.5f}")
    assert rep31.winner == "mf"
    assert rep63.winner == "tas"
    assert abs(crit - 48.96) < 0.01
    assert abs(crit - 48.95829710142188) < 1e-9
    assert 31 < crit < 63


def test_criterion_08_success_rate_reaches_95_percent():
    cfg = ExperimentConfig({
        "seed": 1112,
        "sps": {"m": 10, "q": 1},
        "success_rate": {"n_nodes": [10, 500], "n_p": [2, 3, 4, 5], "realizations": 100},
    })
    summary = run_success_rate(cfg).summary
    assert summary["crosscheck_failures"] == 0
    for n_p in (2, 3, 4, 5):
        small, large = summary["rates"][f"10:{n_p}"], summary["rates"][f"500:{n_p}"]
        print(f"n_p={n_p}: success rate {small:.2f} at 10 nodes, {large:.2f} at 500 nodes")
        assert large >= 0.95, n_p
        assert small < 0.50, n_p


def test_criterion_09_wrapup_lp_against_oracle():
    # (i) disjoint one-hot coverage gives weights exactly one, on both paths
    n = 7
    b, obj = solve_lp(LpProblem(np.eye(n)))
    assert np.array_equal(b @ np.eye(n), np.ones(n))
    assert obj == float(n)
    fc = FieldConfig(n_p=2, p_true=np.zeros(2), noise=NoiseSpec(scale=0.1))
    positions = substream(1113, "pos").uniform(0, 1, (4, 2))
    samples = generate_measurements(positions, fc, substream(1113, "noise"))
    signs = draw_sign_matrix(5, 4, derive_seed(1113, "signs"))
    table = TagTable(owner=0, n_nodes=4)
    for i in (1, 2, 3):
        table.append(1 << i)
    weights = tas_wrapup(table)
    assert np.array_equal(weights, np.ones(4))
    assert tie_exact_aggregate(samples, signs, weights).allclose(truncated_aggregate(samples, signs, np.ones(4)))

    # (ii) simplex optimum equals the vertex-enumeration oracle on 1000 tables
    # (iii) and the realized weights always land in [0, 1]
    rng = substream(1113, "tables")
    worst = 0.0
    for _ in range(1000):
        tags = random_tag_matrix(rng)
        b, obj = solve_lp(LpProblem(tags))
        oracle = wrapup_lp_optimum(tags)
        worst = max(worst, abs(obj - oracle))
        assert abs(obj - oracle) <= 1e-9
        c = WrapUpWeights(b @ tags).c
        assert np.all((c >= 0.0) & (c <= 1.0))
    print(f"1000/1000 simplex objectives match the enumeration oracle "
          f"(worst gap {worst:.2e}); weights stayed in [0, 1]")


def test_criterion_10_orderings_are_uniform():
    trials = 100_000
    drawers = {
        "continuous": lambda rng: rng.normal(size=3),
        "two-point": lambda rng: 0.3 * rng.choice([-1.0, 1.0], size=3),
    }
    for label, draw in drawers.items():
        values_rng = substream(1114, label, "values")
        tie_rng = substream(1114, label, "ties")
        values, keys = np.empty((trials, 3)), np.empty((trials, 3))
        for t in range(trials):
            values[t] = draw(values_rng)
            keys[t] = tie_rng.uniform(size=3)
        counts = Counter(tuple(order) for order in orderings(values, keys).tolist())
        assert len(counts) == 6
        freqs = {perm: cnt / trials for perm, cnt in counts.items()}
        spread = max(abs(f - 1 / 6) for f in freqs.values())
        print(f"{label}: worst ordering frequency deviation {spread:.4f} (limit 0.01)")
        assert spread <= 0.01, (label, freqs)


def test_criterion_11_degenerate_region_member_fraction():
    # one-hot weights leave all m sums exact sign flips of each other, so
    # every grid cell's verdict is pure tie-breaking: member rate q/m short of 1
    fc = FieldConfig(n_p=2, p_true=np.array([1.0, -0.5]), noise=NoiseSpec(scale=0.1))
    n_nodes, m, q = 6, 10, 1
    member = total = 0
    for run in range(100):
        positions = substream(1115, "pos", run).uniform(0, 1, (n_nodes, 2))
        samples = generate_measurements(positions, fc, substream(1115, "noise", run))
        signs = draw_sign_matrix(m, n_nodes, derive_seed(1115, "signs", run))
        c = np.zeros(n_nodes)
        c[run % n_nodes] = 1.0
        agg = truncated_aggregate(samples, signs, c)
        res = evaluate_region(agg, [[-2.0, 2.0], [-2.0, 2.0]], 12, q,
                              tie_seed=derive_seed(1115, "ties", run))
        member += res.member_count
        total += res.member_mask.size
    frac = member / total
    print(f"pooled member fraction {frac:.4f} over {total} cells (target 0.90 +/- 0.01)")
    assert total == 100 * 144
    assert abs(frac - 0.90) <= 0.01


def test_criterion_12_volume_traffic_ordering():
    cfg = ExperimentConfig({
        "seed": 1116,
        "topology": {"kind": "rgg", "n_nodes": 100},
        "model": {"n_p": 3},
        "sps": {"m": 10, "q": 1},
        "region": {"grid_per_dim": 12},
        "tradeoff": {"n_seeds": 50, "node_sample": 12, "max_iterations": 512},
    })
    s = run_tradeoff(cfg).summary
    full = s["full_avg_volume"]
    # flooding completes on these networks, so its final volume is the full one
    assert abs(s["mf"]["final_avg_volume"] - full) < 1e-12
    for scheme in ("consensus-metropolis", "consensus-perron"):
        at4 = s[scheme]["avg_volume_at_4"]
        print(f"{scheme}: volume after 4 iterations {at4:.4f} vs full diffusion {full:.4f}")
        assert full < at4  # (a) four iterations have not caught up yet
        for protocol in ("mf", "tas"):
            match = s[scheme][f"matched_vs_{protocol}"]
            flooding_cost = s[protocol]["final_avg_scalars_per_node"]
            consensus_cost = match["scalars_per_node_lower_bound"]
            assert match["hi"] is not None, (scheme, protocol)
            print(f"  to match {protocol}'s volume: consensus needs > {consensus_cost:.0f} "
                  f"scalars/node; {protocol} used {flooding_cost:.0f}")
            assert flooding_cost < consensus_cost, (scheme, protocol)  # (b)
