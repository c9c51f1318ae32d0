"""Config handling, experiment runners, and the command-line front end."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from weight_rows import aggregate
from spsnet.analysis import traffic_tas_binary
from spsnet.cli import main
from spsnet.experiments import (
    TOOL_VERSION,
    ExperimentConfig,
    run_coverage,
    run_region,
    run_success_rate,
    run_tradeoff,
    simulate,
    validate_config,
    wilson_interval,
)
from spsnet.topology import ConnectivityError, comm_radius


def test_records_are_stamped_with_the_package_version():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        assert TOOL_VERSION == tomllib.load(fh)["project"]["version"]


def test_config_schema_validation():
    validate_config({"seed": 1})
    with pytest.raises(jsonschema.ValidationError):
        validate_config({"seed": 1, "bogus": 2})
    with pytest.raises(jsonschema.ValidationError):
        validate_config({"seed": 1, "model": {"noise": {"kind": "cauchy"}}})
    with pytest.raises(jsonschema.ValidationError):
        validate_config({"seed": "one"})
    with pytest.raises(jsonschema.ValidationError):
        ExperimentConfig({})  # seed is required


def test_config_hash_canonical_and_sensitive():
    a = ExperimentConfig({"seed": 3, "trials": 10, "sps": {"m": 4, "q": 1}})
    b = ExperimentConfig({"sps": {"q": 1, "m": 4}, "trials": 10, "seed": 3})
    assert a.config_hash == b.config_hash
    assert len(a.config_hash) == 12
    c = ExperimentConfig({"seed": 3, "trials": 11, "sps": {"m": 4, "q": 1}})
    assert c.config_hash != a.config_hash


def test_config_defaults():
    cfg = ExperimentConfig({"seed": 7})
    assert cfg.cfg == {
        "seed": 7,
        "trials": 100,
        "node": 0,
        "all_nodes": False,
        "output_dir": ".",
        "topology": {"kind": "rgg", "n_nodes": 20, "depth": 3, "n_clusters": 4, "radius": None},
        "model": {
            "n_p": 2,
            "p_true": [1.0, -0.5],
            "n_x": 2,
            "regressor_family": "polynomial-basis",
            "regressor_seed": 0,
            "noise": {"kind": "gaussian", "scale": 0.1},
        },
        "sps": {"m": 10, "q": 1},
        "diffusion": {"protocol": "full", "rounds": None, "iterations": 4, "scheme": "metropolis"},
        "region": {"box": None, "grid_per_dim": 12, "tie_seed": None, "evaluate": False},
        "tradeoff": {"n_seeds": 50, "node_sample": None, "rounds": None, "max_iterations": 512,
                     "volume_tolerance": 0.02},
        "success_rate": {"n_nodes": [10, 25, 50, 100, 200, 350, 500], "n_p": [2, 3, 4, 5], "realizations": 100},
    }
    fc = cfg.field_config()
    assert fc.n_p == 2 and fc.noise.kind == "gaussian"
    region = cfg.region_params(center=[0.5, -0.5])
    assert region["box"] == [[-0.5, 1.5], [-1.5, 0.5]]
    assert region["grid_per_dim"] == 12
    # explicit box wins over the center fallback
    cfg2 = ExperimentConfig({"seed": 7, "region": {"box": [[0.0, 1.0]]}})
    assert cfg2.region_params(center=[9.0])["box"] == [[0.0, 1.0]]


def test_a_config_owns_its_defaults():
    cfg = ExperimentConfig({"seed": 7})
    cfg.cfg["success_rate"]["n_nodes"].append(1000)
    boxed = ExperimentConfig({"seed": 7, "region": {"box": [[0.0, 1.0]]}})
    boxed.region_params()["box"][0][0] = 0.5
    assert boxed.region_params()["box"] == [[0.0, 1.0]]
    fresh = ExperimentConfig({"seed": 7})
    assert fresh.cfg["success_rate"]["n_nodes"] == [10, 25, 50, 100, 200, 350, 500]


def test_wilson_interval_sanity():
    lo, hi = wilson_interval(90, 100)
    assert 0.0 < lo < 0.9 < hi < 1.0
    assert wilson_interval(0, 50)[0] == 0.0
    assert wilson_interval(50, 50)[1] == 1.0
    lo2, hi2 = wilson_interval(900, 1000)
    assert hi2 - lo2 < hi - lo  # more trials, tighter interval
    with pytest.raises(ValueError):
        wilson_interval(1, 0)


COVERAGE_CONFIG = {
    "seed": 41,
    "trials": 400,
    "topology": {"kind": "rgg", "n_nodes": 10},
    "sps": {"m": 2, "q": 1},
    "diffusion": {"protocol": "full"},
}


def test_run_coverage_half_level_and_determinism():
    record = run_coverage(ExperimentConfig(COVERAGE_CONFIG))
    assert record.summary["expected"] == 0.5
    assert abs(record.summary["coverage"] - 0.5) < 0.08
    assert record.summary["wilson_low"] < 0.5 < record.summary["wilson_high"]
    assert len(record.rows) == 400
    assert record.columns[:2] == ["trial", "node"]
    again = run_coverage(ExperimentConfig(COVERAGE_CONFIG))
    assert again.rows == record.rows
    assert again.summary == record.summary


def test_run_coverage_all_nodes_local():
    cfg = ExperimentConfig({
        "seed": 42,
        "trials": 30,
        "topology": {"kind": "rgg", "n_nodes": 6},
        "diffusion": {"protocol": "local"},
        "all_nodes": True,
    })
    record = run_coverage(cfg)
    assert len(record.rows) == 30 * 6
    assert 0.0 <= record.summary["coverage_min"] <= record.summary["coverage_max"] <= 1.0
    # local protocol moves no data
    assert all(row[3] == 0 for row in record.rows)


REGION_CONFIG = {
    "seed": 1,
    "data": {"phi": [[1.0], [1.0]], "y": [1.0, -1.0], "signs": [[1, 1], [1, -1]]},
    "sps": {"m": 2, "q": 1},
    "region": {"box": [[-2.0, 2.0]], "grid_per_dim": 8},
}


def test_run_region_data_block_hand_example():
    result, meta = run_region(ExperimentConfig(REGION_CONFIG))
    assert meta == {"source": "data", "n_nodes": 2, "m": 2, "q": 1, "volume": 2.0}
    assert result.volume == 2.0
    assert result.member_count == 4
    assert result.bounding_box == [(-1.0, 1.0)]
    mask = result.member_mask
    assert list(mask) == [False, False, True, True, True, True, False, False]


def test_run_region_data_block_rejects_non_finite_data():
    for key, value in (("phi", [[1.0], [float("inf")]]), ("y", [1.0, float("nan")])):
        raw = json.loads(json.dumps(REGION_CONFIG))
        raw["data"][key] = value
        with pytest.raises(ValueError, match="finite"):
            run_region(ExperimentConfig(raw))


def test_run_region_data_block_rejects_signs_of_the_wrong_width():
    raw = json.loads(json.dumps(REGION_CONFIG))
    raw["data"]["signs"] = [[1, 1, 1], [1, -1, 1]]
    with pytest.raises(ValueError, match="sign matrix width"):
        run_region(ExperimentConfig(raw))


def test_run_region_simulation_default_box():
    cfg = ExperimentConfig({
        "seed": 9,
        "topology": {"kind": "rgg", "n_nodes": 12},
        "region": {"grid_per_dim": 6},
    })
    result, meta = run_region(cfg)
    assert meta["source"] == "simulation"
    assert meta["protocol"] == "full"
    assert meta["n_nodes"] == 12
    # default box is a unit halfwidth around the least-squares point
    widths = [hi - lo for lo, hi in result.box]
    assert widths == [2.0, 2.0]
    assert 0.0 <= result.volume <= 4.0
    assert "rank" not in meta and "bounded" not in meta  # only a rank-deficient node reports them


@pytest.mark.parametrize("protocol", ["full", "local", "tas"])
def test_designated_node_out_of_range_is_rejected(protocol):
    cfg = ExperimentConfig({"seed": 5, "node": 20, "trials": 2, "topology": {"kind": "rgg", "n_nodes": 20},
                            "diffusion": {"protocol": protocol}})
    with pytest.raises(ValueError, match="designated node is out of range"):
        run_region(cfg)
    with pytest.raises(ValueError, match="designated node is out of range"):
        run_coverage(cfg)


def test_coverage_over_all_nodes_still_checks_the_designated_node(tmp_path, capsys):
    raw = {"seed": 1, "node": 50, "all_nodes": True, "trials": 2, "topology": {"kind": "rgg", "n_nodes": 10}}
    with pytest.raises(ValueError, match="designated node is out of range"):
        run_coverage(ExperimentConfig(raw))
    cfg_path = tmp_path / "cov.json"
    cfg_path.write_text(json.dumps(dict(raw, all_nodes=False)))
    rc = main(["coverage", "--config", str(cfg_path), "--all-nodes", "--out", str(tmp_path)])
    assert rc == 1
    assert "designated node is out of range" in capsys.readouterr().err
    assert not (tmp_path / "coverage.csv").exists()


def test_run_success_rate_smoke():
    cfg = ExperimentConfig({
        "seed": 13,
        "success_rate": {"n_nodes": [8, 16], "n_p": [2], "realizations": 5},
    })
    record = run_success_rate(cfg)
    assert record.summary["crosscheck_failures"] == 0
    assert set(record.summary["rates"]) == {"8:2", "16:2"}
    assert all(0.0 <= r <= 1.0 for r in record.summary["rates"].values())
    assert len(record.rows) == 2
    assert record.columns == ["n_nodes", "n_p", "realizations", "tas_wins", "success_rate"]


def test_success_rate_reads_only_the_kind_and_radius_of_the_topology():
    study = {"n_nodes": [8, 16], "n_p": [2, 3], "realizations": 3}
    plain = run_success_rate(ExperimentConfig({"seed": 13, "success_rate": study}))
    # a topology section shared with the trade-off study: sizes still come from success_rate
    shared = run_success_rate(ExperimentConfig(
        {"seed": 13, "topology": {"kind": "rgg", "n_nodes": 50}, "success_rate": study}))
    assert shared.rows == plain.rows and shared.summary == plain.summary
    with pytest.raises(ConnectivityError):
        run_success_rate(ExperimentConfig({"seed": 13, "topology": {"radius": 0.01}, "success_rate": study}))


TRADEOFF_CONFIG = {
    "seed": 23,
    "topology": {"kind": "rgg", "n_nodes": 12},
    "sps": {"m": 4, "q": 1},
    "region": {"grid_per_dim": 8},
    "tradeoff": {"n_seeds": 2, "node_sample": 4, "max_iterations": 32},
}


def test_run_tradeoff_smoke():
    record = run_tradeoff(ExperimentConfig(TRADEOFF_CONFIG))
    s = record.summary
    assert s["n_seeds"] == 2
    assert s["full_avg_volume"] > 0.0
    # flooding completes on these graphs, so its final volume is the full one
    assert abs(s["mf"]["final_avg_volume"] - s["full_avg_volume"]) < 1e-12
    for scheme in ("consensus-metropolis", "consensus-perron"):
        entry = s[scheme]
        assert entry["avg_volume_at_4"] >= s["full_avg_volume"] - 1e-12
        for protocol in ("mf", "tas"):
            match = entry[f"matched_vs_{protocol}"]
            assert match["threshold_volume"] > 0.0
            if match["hi"] is not None:
                assert match["lo"] < match["hi"]
                assert match["scalars_per_node_lower_bound"] > 0
    assert record.columns == ["protocol", "round", "avg_scalars_per_node", "avg_volume"]
    protocols = {row[0] for row in record.rows}
    assert protocols == {"full", "mf", "tas", "consensus-metropolis", "consensus-perron"}


@pytest.mark.parametrize("kind", ["tree", "complete", "binary", "clustered"])
def test_run_tradeoff_rejects_every_kind_but_rgg(tmp_path, capsys, kind):
    config = dict(TRADEOFF_CONFIG, topology={"kind": kind, "n_nodes": 10})
    message = f"trade-off study draws random geometric deployments; topology.kind must be 'rgg', not '{kind}'"
    with pytest.raises(ValueError, match=re.escape(message)):
        run_tradeoff(ExperimentConfig(config))
    cfg_path = tmp_path / "to.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["tradeoff", "--config", str(cfg_path), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "tradeoff.csv").exists()


# ---------------------------------------------------------------------------
# command line


def test_cli_topology(tmp_path, capsys):
    rc = main(["topology", "--seed", "5", "--kind", "rgg", "--n-nodes", "12",
               "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "n_nodes=12" in out
    data = json.loads((tmp_path / "topology.json").read_text())
    assert data["n"] == 12
    assert data["kind"] == "graph"
    assert len(data["positions"]) == 12
    assert (tmp_path / "topology.dot").read_text().startswith("graph")


def test_cli_diffuse_binary_tas(tmp_path, capsys):
    rc = main(["diffuse", "--seed", "3", "--kind", "binary", "--depth", "2",
               "--protocol", "tas", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "total_scalars=450" in out  # 9 aggregate payloads of 50 scalars
    assert traffic_tas_binary(2, 2, 10) == 450
    header = (tmp_path / "traffic.csv").read_text().splitlines()[0]
    assert header == "protocol,round,node_id,scalars_sent,cumulative_scalars,tag_bits"


def test_cli_diffuse_consensus_json(tmp_path, capsys):
    rc = main(["diffuse", "--seed", "4", "--kind", "rgg", "--n-nodes", "8",
               "--protocol", "consensus", "--iterations", "3",
               "--format", "json", "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "traffic.json").read_text())
    assert payload["total_scalars"] == 3 * 8 * 50
    assert payload["rounds"] == [1, 2, 3]


@pytest.mark.parametrize("protocol", [None, "local"])  # None: the default config's "full"
def test_cli_diffuse_protocols_that_send_nothing(tmp_path, capsys, protocol):
    argv = ["diffuse", "--seed", "1", "--out", str(tmp_path)]
    rc = main(argv if protocol is None else argv + ["--protocol", protocol])
    assert rc == 0
    out = capsys.readouterr().out
    assert f"protocol={protocol or 'full'} " in out
    assert "total_scalars=0 " in out and "rounds=0 " in out
    assert f"complete_nodes={0 if protocol == 'local' else 20}" in out
    assert (tmp_path / "traffic.csv").read_text().splitlines() == [
        "protocol,round,node_id,scalars_sent,cumulative_scalars,tag_bits"]

    rc = main(argv + ["--format", "json"] + ([] if protocol is None else ["--protocol", protocol]))
    assert rc == 0
    payload = json.loads((tmp_path / "traffic.json").read_text())
    assert payload["rounds"] == [] and payload["total_scalars"] == 0


def test_cli_diffuse_reports_rounds_and_complete_nodes(tmp_path, capsys):
    rc = main(["diffuse", "--seed", "2", "--kind", "clustered", "--n-nodes", "20", "--n-clusters", "1",
               "--protocol", "mf", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "protocol=mf-clustered " in out
    assert "rounds=3 complete_nodes=20" in out


def test_cli_topology_prints_the_deployment_radius(tmp_path, capsys):
    for kind in ("rgg", "tree"):
        assert main(["topology", "--seed", "5", "--kind", kind, "--n-nodes", "12",
                     "--out", str(tmp_path)]) == 0
        assert f" radius={comm_radius(12)!r}" in capsys.readouterr().out
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": 5, "topology": {"kind": "tree", "n_nodes": 12, "radius": 0.75}}))
    assert main(["topology", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.rstrip().endswith(" radius=0.75")
    assert main(["topology", "--seed", "5", "--kind", "binary", "--depth", "2", "--out", str(tmp_path)]) == 0
    assert "radius=" not in capsys.readouterr().out


def test_cli_region_hand_example(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(REGION_CONFIG))
    rc = main(["region", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "volume=2 " in out
    assert "member_cells=4" in out
    payload = json.loads((tmp_path / "region.json").read_text())
    assert payload["volume"] == 2.0
    assert payload["meta"]["source"] == "data"
    lines = (tmp_path / "region_summary.csv").read_text().splitlines()
    assert lines[0] == "volume,dim,bound_lo,bound_hi"
    assert lines[1] == "2.0,0,-1.0,1.0"


@pytest.mark.parametrize("diffusion", [
    {"protocol": "local"},
    {"protocol": "mf", "rounds": 0},
    {"protocol": "tas", "rounds": 0},
    {"protocol": "consensus", "iterations": 0},
])
def test_cli_region_of_a_node_with_fewer_samples_than_parameters(tmp_path, capsys, diffusion):
    # the designated node weighs its own sample only, one for n_p = 2, so the
    # least-squares estimate does not exist: the default box is centred on the
    # minimum-norm solution and the region is reported unbounded
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"seed": 3, "diffusion": diffusion}))
    assert main(["region", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "region.json").read_text())
    assert payload["meta"]["rank"] == 1
    assert payload["meta"]["bounded"] is False
    assert payload["member_count"] > 0
    # the centre solves the normal equations and has no part along their null space
    run, builder, samples, signs = simulate(ExperimentConfig({"seed": 3, "diffusion": diffusion}))
    agg = aggregate(run, builder, samples, signs, 0)
    mat0, vec0 = agg.mat[0], agg.vec[0]
    center = np.mean(payload["box"], axis=1)
    np.testing.assert_allclose(mat0 @ center, vec0, rtol=1e-9, atol=1e-9 * np.abs(vec0).max())
    null = np.linalg.svd(mat0)[2][-1]
    assert abs(null @ center) <= 1e-9 * np.linalg.norm(center)


def test_cli_coverage_reproducible(tmp_path, capsys):
    cfg = dict(COVERAGE_CONFIG, trials=40)
    cfg_path = tmp_path / "cov.json"
    cfg_path.write_text(json.dumps(cfg))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["coverage", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert main(["coverage", "--config", str(cfg_path), "--out", str(out_b)]) == 0
    capsys.readouterr()
    assert (out_a / "coverage.csv").read_bytes() == (out_b / "coverage.csv").read_bytes()
    first_line = (out_a / "coverage.csv").read_text().splitlines()[0]
    assert first_line.startswith("# name=coverage config_hash=")


def test_cli_coverage_trials_flag_overrides(tmp_path, capsys):
    cfg_path = tmp_path / "cov.json"
    cfg_path.write_text(json.dumps(dict(COVERAGE_CONFIG, trials=40)))
    rc = main(["coverage", "--config", str(cfg_path), "--trials", "8",
               "--out", str(tmp_path)])
    assert rc == 0
    assert "trials=8" in capsys.readouterr().out


def test_cli_success_rate(tmp_path, capsys):
    cfg_path = tmp_path / "sr.json"
    cfg_path.write_text(json.dumps({
        "seed": 13,
        "success_rate": {"n_nodes": [8], "n_p": [2], "realizations": 4},
    }))
    rc = main(["success-rate", "--config", str(cfg_path), "--out", str(tmp_path),
               "--format", "json"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "crosscheck_failures=0" in out
    assert "rate[8:2]=" in out
    payload = json.loads((tmp_path / "success_rate.json").read_text())
    assert payload["name"] == "success_rate"


def test_cli_tradeoff_smoke(tmp_path, capsys):
    cfg_path = tmp_path / "to.json"
    small = dict(TRADEOFF_CONFIG)
    small["topology"] = {"kind": "rgg", "n_nodes": 10}
    small["tradeoff"] = {"n_seeds": 1, "node_sample": 2, "max_iterations": 8}
    small["region"] = {"grid_per_dim": 6}
    cfg_path.write_text(json.dumps(small))
    rc = main(["tradeoff", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert rc == 0
    assert "full_avg_volume=" in capsys.readouterr().out
    assert (tmp_path / "tradeoff.csv").exists()


def test_cli_traffic_predict(tmp_path, capsys):
    assert main(["traffic-predict", "--N", "63"]) == 0
    out = capsys.readouterr().out
    assert "TAS 4650" in out
    assert "MF 5955" in out
    assert "critical_size 48.958" in out
    assert "winner TAS" in out

    assert main(["traffic-predict", "--N", "31"]) == 0
    assert "winner MF" in capsys.readouterr().out

    assert main(["traffic-predict", "--topology", "clustered", "--N", "140",
                 "--n-clusters", "20", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tas_total_scalars"] == 8000
    assert payload["mf_total_scalars"] == 8760
    assert payload["winner"] == "TAS"
    assert "critical_size" not in payload

    # a one-node tree: the root sends its one record (3 scalars) and one aggregate (50)
    cfg_path = tmp_path / "one-node.json"
    cfg_path.write_text(json.dumps({"seed": 1, "topology": {"kind": "binary", "depth": 0}}))
    assert main(["traffic-predict", "--topology", "tree", "--config", str(cfg_path)]) == 0
    assert capsys.readouterr().out == "topology tree n_nodes 1 n_p 2 m 10\nTAS 50\nMF 3\nwinner MF\n"


def test_tree_traffic_predict_reads_n_p_and_m_from_the_config(tmp_path, capsys):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps({"seed": 1, "topology": {"kind": "tree", "n_nodes": 30},
                                    "model": {"n_p": 3}, "sps": {"m": 20}}))
    tree = ["traffic-predict", "--topology", "tree", "--config", str(cfg_path)]
    assert main(tree) == 0
    assert capsys.readouterr().out == "topology tree n_nodes 30 n_p 3 m 20\nTAS 7380\nMF 1512\nwinner MF\n"
    # the flags override the config
    assert main([*tree, "--np", "2", "--m", "10"]) == 0
    assert capsys.readouterr().out == "topology tree n_nodes 30 n_p 2 m 10\nTAS 2050\nMF 1134\nwinner MF\n"
    # the binary and clustered predictions read no config
    assert main(["traffic-predict", "--N", "63", "--config", str(cfg_path)]) == 0
    assert capsys.readouterr().out.startswith("topology binary n_nodes 63 n_p 2 m 10\nTAS 4650\n")
    # a zero dimension is refused by the formulas, not hidden by a default
    assert main(["traffic-predict", "--N", "63", "--np", "0"]) == 1
    assert capsys.readouterr().err == "error: require n_p >= 1 and m >= 2\n"
    assert main(["traffic-predict", "--topology", "clustered", "--N", "140", "--n-clusters", "20",
                 "--m", "0"]) == 1
    assert capsys.readouterr().err == "error: require n_p >= 1 and m >= 2\n"


def test_traffic_predict_never_imports_jsonschema():
    # a command that loads no config does not pay for the validator's import
    code = ("import sys; from spsnet.cli import main; "
            "assert main(['traffic-predict', '--N', '63']) == 0; "
            "assert 'jsonschema' not in sys.modules, 'jsonschema was imported'")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "winner TAS" in proc.stdout


def test_cli_error_paths(tmp_path, capsys):
    rc = main(["traffic-predict", "--N", "20"])
    assert rc == 1
    assert "not a complete binary tree size" in capsys.readouterr().err

    rc = main(["coverage", "--out", str(tmp_path)])
    assert rc == 1
    assert "a seed is required" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"seed": 1, "bogus": True}))
    rc = main(["coverage", "--config", str(bad), "--out", str(tmp_path)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("content", ["[]", "[1, 2]", "5", '"seed"', "null"])
@pytest.mark.parametrize("out", [True, False])
def test_cli_refuses_a_config_file_that_is_not_an_object(tmp_path, capsys, content, out):
    path = tmp_path / "l.json"
    path.write_text(content)
    argv = ["coverage", "--config", str(path)] + (["--out", str(tmp_path / "o")] if out else [])
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: config file {path} must hold a JSON object\n"
    assert not (tmp_path / "o").exists()
