"""Every small config either runs or is refused with a documented error.

The property test draws small configs over every topology kind, protocol,
round setting, noise kind and parameter dimension, and runs ``coverage``,
``region`` and ``diffuse`` on each through ``cli.main``. A config the schema
accepts must exit 0, or exit 1 with one of the ``error:`` lines the README
lists for configs that cannot run. The draws also reach configs the schema
refuses (``model.n_x`` other than 2, one-node ``rgg`` and ``tree``
deployments), which must exit 1 with the validation error. No command may
raise. The regression tests below pin each failure the property test found.
"""

import contextlib
import io
import json
import re

import jsonschema
import pytest

from spsnet.cli import main
from spsnet.experiments import validate_config

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

# the error lines a schema-valid config may end with (README, "Command line")
DOCUMENTED_ERRORS = (
    r"no connected deployment of \d+ nodes in 100 attempts",
    r"need 1 <= n_clusters <= n_nodes",
)


def schema_valid(config) -> bool:
    try:
        validate_config(config)
    except jsonschema.ValidationError:
        return False
    return True


@st.composite
def small_configs(draw):
    kind = draw(st.sampled_from(["rgg", "complete", "tree", "binary", "clustered"]))
    n_nodes = draw(st.integers(1, 30))
    topology = {"kind": kind, "n_nodes": n_nodes}
    if kind == "binary":
        topology["depth"] = draw(st.integers(0, 3))
    elif kind == "clustered":
        topology["n_clusters"] = draw(st.integers(1, 8))
    elif kind in ("rgg", "tree"):
        topology["radius"] = draw(st.sampled_from([0.01, 0.3, 1.5]))
    size = 2 ** (topology["depth"] + 1) - 1 if kind == "binary" else n_nodes
    m = draw(st.integers(2, 12))
    diffusion = {
        "protocol": draw(st.sampled_from(["full", "local", "pf", "mf", "tas", "consensus"])),
        "rounds": draw(st.none() | st.integers(0, 3)),
        "scheme": draw(st.sampled_from(["metropolis", "perron"])),
    }
    iterations = draw(st.none() | st.integers(0, 3))
    if iterations is not None:
        diffusion["iterations"] = iterations
    return {
        "seed": draw(st.integers(0, 2**16)),
        "trials": draw(st.integers(1, 3)),
        "node": draw(st.integers(0, size - 1)),
        "all_nodes": draw(st.booleans()),
        "topology": topology,
        "model": {
            "n_p": draw(st.integers(1, 3)),
            "n_x": draw(st.sampled_from([2] * 8 + [1, 3])),
            "regressor_family": draw(st.sampled_from(["polynomial-basis", "seeded-random"])),
            "noise": {"kind": draw(st.sampled_from(["gaussian", "uniform", "laplace", "two-point"])),
                      "scale": draw(st.sampled_from([0.0, 0.1, 1.0]))},
        },
        "sps": {"m": m, "q": draw(st.integers(1, m - 1))},
        "diffusion": diffusion,
        "region": {"grid_per_dim": draw(st.integers(1, 6))},
    }


def run_cli(command, config, tmp_path):
    """(exit code, stderr) of one subcommand on ``config``; an exception fails
    the test. The streams are redirected by hand, as a Hypothesis test cannot
    reset ``capsys`` per example."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
    return rc, err.getvalue()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(small_configs())
def test_a_small_config_runs_or_fails_with_a_documented_error(tmp_path_factory, config):
    tmp_path = tmp_path_factory.mktemp("config")
    valid = schema_valid(config)
    for command in ("coverage", "region", "diffuse"):
        rc, err = run_cli(command, config, tmp_path)
        if valid and rc == 0:
            continue
        assert rc == 1 and err.startswith("error: "), (command, rc, err)
        if valid:
            message = err.splitlines()[0].removeprefix("error: ")
            assert any(re.fullmatch(p, message) for p in DOCUMENTED_ERRORS), (command, message)
        else:
            assert "Failed validating" in err, (command, err)


@pytest.mark.parametrize("command", ["coverage", "region", "topology"])
def test_a_deployment_that_cannot_connect_is_a_user_error(tmp_path, command):
    config = {"seed": 1, "topology": {"kind": "rgg", "n_nodes": 30, "radius": 0.01}}
    rc, err = run_cli(command, config, tmp_path)
    assert rc == 1
    assert err == "error: no connected deployment of 30 nodes in 100 attempts\n"
    assert "Traceback" not in err


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
