"""Every small config either runs or is refused with a documented error.

The property test draws small configs over every topology kind, protocol,
round setting, noise kind and parameter dimension, and runs ``coverage``,
``region``, ``diffuse``, ``tradeoff`` and ``success-rate`` on each through
``cli.main``. A config the schema accepts must exit 0, or exit 1 with one of
the ``error:`` lines the README lists for configs that cannot run, among them
a clustered deployment with more clusters than nodes, which
``ExperimentConfig`` refuses at load, and ``tradeoff`` or ``success-rate`` on
any kind but ``rgg``. The ``rgg`` and ``tree`` draws have 2 or more nodes,
``model.n_x`` 2 and a radius of 1.5 or 0.3, so that most of them connect and
run; the fixed tests below cover a deployment that cannot connect and the
one-node and off-the-plane configs the schema refuses. The other kinds' draws
still reach ``model.n_x`` other than 2, which must exit 1 with the validation
error. Every integer field is drawn now and then as its float twin, such as
2.0, which JSON Schema counts as an integer too. No command may raise. The
regression tests below pin each failure the property test found.
"""

import contextlib
import copy
import io
import json
import re

import jsonschema
import pytest

from spsnet.cli import main
from spsnet.experiments import ExperimentConfig, validate_config

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

# the error lines a schema-valid config may end with (README, "Command line")
DOCUMENTED_ERRORS = (
    r"no connected deployment of \d+ nodes in 100 attempts",
    r"radius must be positive",
    r"topology\.n_clusters \(\d+\) must not exceed topology\.n_nodes \(\d+\)",
    r"trade-off study draws random geometric deployments; topology\.kind must be 'rgg', not '\w+'",
    r"success-rate study draws random geometric deployments; topology\.kind must be 'rgg', not '\w+'",
)
RGG_STUDIES = ("tradeoff", "success-rate")  # they draw their own rgg deployments


def schema_valid(config) -> bool:
    try:
        validate_config(config)
    except jsonschema.ValidationError:
        return False
    return True


KINDS = ("rgg", "complete", "tree", "binary", "clustered")


def integers(low, high):
    """An integer in [low, high], as an int or as its float twin."""
    return st.integers(low, high) | st.integers(low, high).map(float)


@st.composite
def small_configs(draw, kind=None):
    """A small config of the given topology kind, or of a drawn one."""
    if kind is None:
        kind = draw(st.sampled_from(KINDS))
    drawn = kind in ("rgg", "tree")  # random geometric deployments, which must connect
    n_nodes = draw(integers(2 if drawn else 1, 30))
    topology = {"kind": kind, "n_nodes": n_nodes}
    if kind == "binary":
        topology["depth"] = draw(integers(0, 3))
    elif kind == "clustered":
        topology["n_clusters"] = draw(integers(1, 8))
    elif drawn:
        topology["radius"] = draw(st.sampled_from([1.5, 0.3]))
    size = 2 ** (int(topology["depth"]) + 1) - 1 if kind == "binary" else int(n_nodes)
    m = draw(integers(2, 12))
    diffusion = {
        "protocol": draw(st.sampled_from(["full", "local", "pf", "mf", "tas", "consensus"])),
        "rounds": draw(st.none() | integers(0, 3)),
        "scheme": draw(st.sampled_from(["metropolis", "perron"])),
    }
    iterations = draw(st.none() | integers(0, 3))
    if iterations is not None:
        diffusion["iterations"] = iterations
    return {
        "seed": draw(integers(0, 2**16)),
        "trials": draw(integers(1, 3)),
        "node": draw(integers(0, size - 1)),
        "all_nodes": draw(st.booleans()),
        "topology": topology,
        "model": {
            "n_p": draw(integers(1, 3)),
            "n_x": 2 if drawn else draw(st.sampled_from([2] * 8 + [1, 3])),
            "regressor_family": draw(st.sampled_from(["polynomial-basis", "seeded-random"])),
            "noise": {"kind": draw(st.sampled_from(["gaussian", "uniform", "laplace", "two-point"])),
                      "scale": draw(st.sampled_from([0.0, 0.1, 1.0]))},
        },
        "sps": {"m": m, "q": draw(integers(1, int(m) - 1))},
        "diffusion": diffusion,
        "region": {"grid_per_dim": draw(integers(1, 6))},
        "success_rate": {"n_nodes": draw(st.lists(integers(2, 30), min_size=1, max_size=2)),
                         "n_p": draw(st.lists(integers(1, 3), min_size=1, max_size=2)),
                         "realizations": draw(integers(1, 3))},
    }


# a one-seed trade-off study, small enough to run on every drawn config
tradeoff_sections = st.fixed_dictionaries({
    "n_seeds": integers(1, 1),
    "max_iterations": integers(1, 4),
    "node_sample": st.none() | integers(1, 3),
    "rounds": st.none() | integers(0, 2),
})


def run_cli(command, config, tmp_path, *flags):
    """(exit code, stderr) of one subcommand on ``config``; an exception fails
    the test. The streams are redirected by hand, as a Hypothesis test cannot
    reset ``capsys`` per example."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main([command, "--config", str(path), "--out", str(tmp_path / "out"), *flags])
    return rc, err.getvalue()


def check_runs(config, commands, tmp_path):
    """Each command exits 0 or with a documented error (the validation error
    for a config the schema refuses); ``tradeoff`` and ``success-rate`` refuse
    every kind but ``rgg``."""
    valid = schema_valid(config)
    kind = config["topology"]["kind"]
    for command in commands:
        rc, err = run_cli(command, config, tmp_path)
        if valid and rc == 0 and (command not in RGG_STUDIES or kind == "rgg"):
            continue
        assert rc == 1 and err.startswith("error: "), (command, rc, err)
        if valid:
            message = err.splitlines()[0].removeprefix("error: ")
            assert any(re.fullmatch(p, message) for p in DOCUMENTED_ERRORS), (command, message)
            if command in RGG_STUDIES and kind != "rgg" and "n_clusters" not in message:
                assert message.endswith(f"topology.kind must be 'rgg', not '{kind}'"), message
        else:
            assert "Failed validating" in err, (command, err)


@pytest.mark.parametrize("kind", KINDS)  # twelve configs of every kind, whatever the draw order
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(data=st.data(), tradeoff=tradeoff_sections)
def test_a_small_config_runs_or_fails_with_a_documented_error(tmp_path_factory, kind, data, tradeoff):
    config = data.draw(small_configs(kind))
    config["tradeoff"] = tradeoff
    check_runs(config, ("coverage", "region", "diffuse", "tradeoff", "success-rate"),
               tmp_path_factory.mktemp("config"))


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(small_configs(), tradeoff_sections, st.sampled_from([1.5, 0.3, None]))
def test_success_rate_on_a_drawn_rgg_config_runs_or_fails_with_a_documented_error(
        tmp_path_factory, config, tradeoff, radius):
    config["tradeoff"] = tradeoff
    # the drawn kinds are mostly not rgg, which the studies refuse before drawing
    config["topology"] = {"kind": "rgg"} if radius is None else {"kind": "rgg", "radius": radius}
    check_runs(config, RGG_STUDIES, tmp_path_factory.mktemp("config"))


@pytest.mark.parametrize("command", ["coverage", "region", "topology", *RGG_STUDIES])
def test_a_deployment_that_cannot_connect_is_a_user_error(tmp_path, command):
    config = {"seed": 1, "topology": {"kind": "rgg", "n_nodes": 30, "radius": 0.01},
              "success_rate": {"n_nodes": [30], "n_p": [2], "realizations": 1},
              "tradeoff": {"n_seeds": 1, "max_iterations": 1}}
    rc, err = run_cli(command, config, tmp_path)
    assert rc == 1
    assert err == "error: no connected deployment of 30 nodes in 100 attempts\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["coverage", "region", "topology", *RGG_STUDIES])
def test_a_nan_radius_is_a_user_error(tmp_path, command):
    # Python's json reads NaN, and NaN passes the schema's exclusiveMinimum
    config = {"seed": 1, "topology": {"kind": "rgg", "n_nodes": 10, "radius": float("nan")},
              "success_rate": {"n_nodes": [10], "n_p": [2], "realizations": 1},
              "tradeoff": {"n_seeds": 1, "max_iterations": 1}}
    assert schema_valid(config)
    rc, err = run_cli(command, config, tmp_path)
    assert (rc, err) == (1, "error: radius must be positive\n")


@pytest.mark.parametrize("command", ["region", "coverage"])
@pytest.mark.parametrize("box", [[[float("nan"), 1.0], [0.0, 1.0]], [[0.0, float("inf")], [0.0, 1.0]],
                                 [[0.0, 1.0], [float("-inf"), 1.0]]], ids=["nan", "inf", "-inf"])
def test_a_region_box_bound_that_is_not_finite_is_a_user_error(tmp_path, command, box):
    # Python's json reads NaN and Infinity, and the schema's "number" takes both
    config = {"seed": 1, "trials": 1, "region": {"box": box, "evaluate": True}}
    assert schema_valid(config)
    assert run_cli(command, config, tmp_path) == (
        1, "error: box must have finite bounds and positive extent in every dimension\n")


@pytest.mark.parametrize("command", ["region", "coverage"])
@pytest.mark.parametrize("n_p,box", [(2, [[-1e308, 1e308], [0.0, 1.0]]), (3, [[-1e200, 1e200]] * 3)],
                         ids=["extent", "cell"])
def test_a_region_box_whose_size_overflows_a_float_is_a_user_error(tmp_path, command, n_p, box):
    # finite bounds, but an extent or a cell volume that overflows would write "volume": Infinity
    config = {"seed": 1, "trials": 1, "model": {"n_p": n_p},
              "region": {"box": box, "grid_per_dim": 2, "evaluate": True}}
    assert schema_valid(config)
    assert run_cli(command, config, tmp_path) == (
        1, "error: box must have finite bounds and positive extent in every dimension\n")


@pytest.mark.parametrize("command,config,flag", [
    ("diffuse", {"seed": 1, "diffusion": []}, ["--protocol", "mf"]),
    ("topology", {"seed": 1, "topology": 5}, ["--kind", "rgg"]),
], ids=["diffusion", "topology"])
def test_a_flag_into_a_section_that_is_not_an_object_is_a_validation_error(tmp_path, command, config, flag):
    rc, err = run_cli(command, config, tmp_path, *flag)
    section = next(iter(config.keys() - {"seed"}))
    assert rc == 1
    assert err.startswith(f"error: {config[section]!r} is not of type 'object'\n"), err
    assert f"Failed validating 'type' in schema['properties']['{section}']" in err


# (command, config, path of an integer key, its value): the integer and its float twin run alike
INTEGRAL_FLOATS = [
    ("coverage", {}, ("model", "n_p"), 2),
    ("coverage", {"diffusion": {"protocol": "consensus"}}, ("diffusion", "iterations"), 4),
    ("coverage", {"diffusion": {"protocol": "mf"}}, ("diffusion", "rounds"), 1),
    ("coverage", {"region": {"evaluate": True}}, ("region", "grid_per_dim"), 6),
    ("region", {"data": {"phi": [[1.0], [2.0], [0.5]], "y": [1.0, -1.0, 0.3]}}, ("data", "sign_seed"), 1),
]


@pytest.mark.parametrize("command,config,path,value", INTEGRAL_FLOATS,
                         ids=[".".join(path) for _, _, path, _ in INTEGRAL_FLOATS])
def test_an_integral_float_runs_as_its_integer(tmp_path, command, config, path, value):
    """A float the schema counts as an integer writes the rows and summary of
    its integer twin; only the config hash, which hashes the config as given,
    differs."""
    outputs, hashes = [], []
    for twin in (value, float(value)):
        raw = copy.deepcopy({"seed": 3, "trials": 3, "topology": {"kind": "rgg", "n_nodes": 8}, **config})
        section = raw
        for key in path[:-1]:
            section = section.setdefault(key, {})
        section[path[-1]] = twin
        out = tmp_path / repr(twin)
        out.mkdir()
        assert run_cli(command, raw, out, "--format", "json") == (0, "")
        outputs.append(json.loads((out / "out" / f"{command}.json").read_text()))
        hashes.append(ExperimentConfig(raw).config_hash)
    if command == "coverage":
        assert outputs[0]["rows"] == outputs[1]["rows"] and outputs[0]["summary"] == outputs[1]["summary"]
        assert [o["config_hash"] for o in outputs] == hashes
    else:
        assert outputs[0] == outputs[1]
    assert hashes[0] != hashes[1]


@pytest.mark.parametrize("kind", ["complete", "tree", "binary", "clustered"])
def test_success_rate_refuses_a_topology_it_does_not_draw(tmp_path, kind):
    config = {"seed": 1, "topology": {"kind": kind, "n_nodes": 30, "n_clusters": 3},
              "success_rate": {"n_nodes": [8], "n_p": [2], "realizations": 2}}
    assert run_cli("success-rate", config, tmp_path) == (
        1, f"error: success-rate study draws random geometric deployments; "
           f"topology.kind must be 'rgg', not '{kind}'\n")
    config["topology"] = {"kind": "rgg", "n_nodes": 30, "radius": 1.5}
    assert run_cli("success-rate", config, tmp_path) == (0, "")


@pytest.mark.parametrize("n_x", [1, 3])
def test_configs_with_positions_off_the_plane_fail_validation(tmp_path, n_x):
    config = {"seed": 1, "model": {"n_x": n_x}}
    with pytest.raises(jsonschema.ValidationError):
        validate_config(config)
    for command in ("coverage", "region"):
        rc, err = run_cli(command, config, tmp_path)
        assert rc == 1 and err.startswith("error: 2 was expected")
    validate_config({"seed": 1, "model": {"n_x": 2}})


@pytest.mark.parametrize("topology", [{"n_nodes": 1}, {"kind": "rgg", "n_nodes": 1}, {"kind": "tree", "n_nodes": 1}])
def test_one_node_random_deployments_fail_validation(tmp_path, topology):
    config = {"seed": 1, "topology": topology}
    with pytest.raises(jsonschema.ValidationError, match="less than the minimum of 2"):
        validate_config(config)
    rc, err = run_cli("coverage", config, tmp_path)
    assert rc == 1 and err.startswith("error: 1 is less than the minimum of 2")
    for kind in ("complete", "binary", "clustered"):  # these build a one-node network
        validate_config({"seed": 1, "topology": {"kind": kind, "n_nodes": 1}})
    validate_config({"seed": 1, "topology": {"kind": "tree", "n_nodes": 2}})


def test_more_clusters_than_nodes_is_refused_at_load(tmp_path):
    config = {"seed": 4, "topology": {"kind": "clustered", "n_nodes": 25, "n_clusters": 30}}
    message = "topology.n_clusters (30) must not exceed topology.n_nodes (25)"
    with pytest.raises(ValueError, match=re.escape(message)):
        ExperimentConfig(config)
    for command in ("coverage", "region", "diffuse", "topology"):
        assert run_cli(command, config, tmp_path) == (1, f"error: {message}\n")
    # only a clustered deployment reads n_clusters, and one node per cluster runs
    ExperimentConfig({"seed": 4, "topology": {"kind": "rgg", "n_nodes": 25, "n_clusters": 30}})
    valid = ExperimentConfig({"seed": 4, "topology": {"kind": "clustered", "n_nodes": 25, "n_clusters": 25}})
    assert valid.config_hash == "ff113e3c0d5a"  # the check leaves the hash of a valid config as it was
    assert run_cli("coverage", {"seed": 4, "trials": 1, "topology": {"kind": "clustered", "n_clusters": 20}},
                   tmp_path)[0] == 0
