"""Config validation: one prebuilt validator, the errors of ``jsonschema.validate``.

``validate_config`` validates against a ``Draft202012Validator`` built once per
process and never re-checks the packaged schema against its metaschema, so
that check lives here. ``jsonschema.validate`` on a freshly read schema is the
reference for which error a bad config raises. The schema's defaults must
fit the schema, the CLI flags that name config keys must name schema
properties, and every schema enum must name the values the code accepts.
"""

import json
from importlib import resources

import jsonschema
import pytest

from spsnet.cli import _build_parser, main
from spsnet.diffusion import CONSENSUS_SCHEMES
from spsnet.experiments import PROTOCOLS, ExperimentConfig, build_topology, validate_config
from spsnet.model import NOISE_KINDS, REGRESSOR_FAMILIES

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


def _schema() -> dict:
    path = resources.files("spsnet").joinpath("data/experiment_config.schema.json")
    return json.loads(path.read_text())


def _reference_error(raw):
    try:
        jsonschema.validate(raw, _schema(), cls=jsonschema.Draft202012Validator)
    except jsonschema.ValidationError as exc:
        return exc
    return None


def _error(raw):
    try:
        validate_config(raw)
    except jsonschema.ValidationError as exc:
        return exc
    return None


def _assert_same_error(raw):
    got, want = _error(raw), _reference_error(raw)
    if want is None:
        assert got is None
        return
    assert got is not None
    assert (str(got), got.json_path, got.validator) == (str(want), want.json_path, want.validator)


def test_packaged_schema_is_valid_draft_2020_12():
    jsonschema.Draft202012Validator.check_schema(_schema())


@pytest.mark.parametrize("raw", [
    {"seed": 1, "bogus": 2, "trials": "ten"},
    {"seed": 1, "trials": -3, "model": {"noise": {"kind": "cauchy"}}},
    {"seed": "one"},
    {"seed": 1.5, "sps": {"m": 1}, "topology": {"kind": "ring", "n_nodes": 0}},
    {"trials": 0, "diffusion": {"protocol": "gossip", "rounds": -1}},
    {"seed": 1, "region": {"grid_per_dim": [0, "a"], "box": [[0.0]]}},
    {"seed": 1, "data": {"phi": [], "signs": [[1, 0]]}, "extra": None},
])
def test_errors_match_jsonschema_validate(raw):
    assert _error(raw) is not None
    _assert_same_error(raw)


VALID = {
    "seed": 3,
    "trials": 10,
    "node": 0,
    "topology": {"kind": "rgg", "n_nodes": 20, "radius": 0.4},
    "model": {"n_p": 2, "p_true": [1.0, -0.5], "noise": {"kind": "gaussian", "scale": 0.1}},
    "sps": {"m": 10, "q": 1},
    "diffusion": {"protocol": "tas", "rounds": None, "scheme": "metropolis"},
    "region": {"box": [[0.0, 1.0], [-1.0, 0.0]], "grid_per_dim": 12},
    "tradeoff": {"n_seeds": 5, "node_sample": None},
    "success_rate": {"n_nodes": [10, 25], "realizations": 3},
}


def _paths(obj, prefix=()):
    yield prefix + ("bogus",)
    for key, value in obj.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _paths(value, prefix + (key,))


PATHS = sorted(set(_paths(VALID)))
BAD_VALUES = [-1, 0, 1.5, "x", None, True, [], [0, "a"], {}, {"kind": "cauchy"}]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.sampled_from(PATHS), st.sampled_from(BAD_VALUES)), min_size=1, max_size=4))
def test_mutated_configs_raise_what_jsonschema_validate_raises(mutations):
    raw = json.loads(json.dumps(VALID))
    for path, value in mutations:
        cursor = raw
        for key in path[:-1]:
            cursor = cursor.get(key) if isinstance(cursor, dict) else None
        if isinstance(cursor, dict):
            cursor[path[-1]] = value
    _assert_same_error(raw)


def test_configs_share_one_validator_and_never_recheck_the_schema(monkeypatch):
    real = jsonschema.Draft202012Validator
    check_schema = real.check_schema
    checks, builds = [], []

    def counting_check(cls, schema, **kwargs):
        checks.append(1)
        return check_schema(schema, **kwargs)

    def counting_build(schema, *args, **kwargs):
        builds.append(1)
        return real(schema, *args, **kwargs)

    monkeypatch.setattr(real, "check_schema", classmethod(counting_check))
    counting_build.check_schema = real.check_schema
    monkeypatch.setattr(jsonschema, "Draft202012Validator", counting_build)
    for k in range(8):
        ExperimentConfig({"seed": k, "trials": 10, "sps": {"m": 4, "q": 1}})
    assert checks == []
    assert len(builds) <= 1  # none when an earlier config in this process built it


def test_cli_prints_the_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"seed": 1, "trials": 0, "model": {"noise": {"kind": "cauchy"}}}))
    assert main(["coverage", "--config", str(bad)]) == 1
    assert capsys.readouterr().err == (
        "error: 0 is less than the minimum of 1\n"
        "\n"
        "Failed validating 'minimum' in schema['properties']['trials']:\n"
        "    {'type': 'integer', 'minimum': 1, 'default': 100}\n"
        "\n"
        "On instance['trials']:\n"
        "    0\n"
    )


def _schema_properties(schema: dict, prefix=()):
    """(path, property schema) of every property of the schema, objects included."""
    for key, sub in schema.get("properties", {}).items():
        yield (*prefix, key), sub
        yield from _schema_properties(sub, (*prefix, key))


def _subcommands() -> dict:
    (action,) = [a for a in _build_parser()._actions if a.dest == "command"]
    return action.choices


# every subcommand's option strings, which scripts calling the CLI rely on
OPTIONS = {
    "topology": ["--config", "--depth", "--format", "--help", "--kind", "--n-clusters", "--n-nodes", "--out",
                 "--seed", "-h"],
    "diffuse": ["--config", "--depth", "--format", "--help", "--iterations", "--kind", "--n-clusters",
                "--n-nodes", "--out", "--protocol", "--rounds", "--scheme", "--seed", "-h"],
    "region": ["--config", "--format", "--help", "--out", "--seed", "-h"],
    "coverage": ["--all-nodes", "--config", "--format", "--help", "--out", "--protocol", "--seed", "--trials",
                 "-h"],
    "tradeoff": ["--config", "--format", "--help", "--out", "--seed", "-h"],
    "success-rate": ["--config", "--format", "--help", "--out", "--seed", "-h"],
    "traffic-predict": ["--N", "--config", "--depth", "--format", "--help", "--m", "--n-clusters", "--np",
                        "--out", "--seed", "--topology", "-h"],
}


# the keys a runner reads as unset when they are null
NULL_DEFAULTS = {("topology", "radius"), ("model", "p_true"), ("diffusion", "rounds"), ("region", "box"),
                 ("region", "tie_seed"), ("tradeoff", "node_sample"), ("tradeoff", "rounds")}


def test_defaults_schema_and_flags_agree():
    """Every schema leaf but ``seed`` and ``data`` declares a default, every
    default, null included, fits its own property schema, only the keys a
    runner reads as unset default to null, and every flag that names a config
    key (``dest="config.<path>"``) names a schema property."""
    props = dict(_schema_properties(_schema()))
    leaves = {p for p, sub in props.items() if "properties" not in sub and p[0] not in ("seed", "data")}
    assert {p for p in leaves if "default" not in props[p]} == set()
    for sub in props.values():
        if "default" in sub:
            jsonschema.Draft202012Validator(sub).validate(sub["default"])
    assert {p for p, sub in props.items() if "default" in sub and sub["default"] is None} == NULL_DEFAULTS
    dests = {a.dest for sub in _subcommands().values() for a in sub._actions if a.dest.startswith("config.")}
    assert dests and all(tuple(d.split(".")[1:]) in props for d in dests), dests
    assert {name: sorted(o for a in sub._actions for o in a.option_strings)
            for name, sub in _subcommands().items()} == OPTIONS


def _choices(subcommand: str, dest: str) -> set:
    (action,) = [a for a in _subcommands()[subcommand]._actions if a.dest == dest]
    return set(action.choices)


def test_each_enumerated_choice_names_the_same_values_everywhere():
    """Every schema enum names the values the code and the CLI accept: the
    protocol table and ``--protocol``, the consensus schemes and ``--scheme``,
    the noise kinds, the regressor families, and the topology kinds, which
    ``--kind`` lists in another order and ``build_topology`` builds."""
    props = dict(_schema_properties(_schema()))

    def enum(*path):
        return set(props[path]["enum"])

    protocols = enum("diffusion", "protocol")
    assert protocols == set(PROTOCOLS) == _choices("diffuse", "config.diffusion.protocol")
    assert protocols == _choices("coverage", "config.diffusion.protocol")
    assert enum("diffusion", "scheme") == set(CONSENSUS_SCHEMES) == _choices("diffuse", "config.diffusion.scheme")
    assert enum("model", "noise", "kind") == set(NOISE_KINDS)
    assert enum("model", "regressor_family") == set(REGRESSOR_FAMILIES)
    kinds = enum("topology", "kind")
    assert kinds == _choices("topology", "config.topology.kind") == _choices("diffuse", "config.topology.kind")
    for kind in sorted(kinds):
        tcfg = ExperimentConfig({"seed": 1, "topology": {"kind": kind, "n_nodes": 6}}).cfg["topology"]
        assert build_topology(1, tcfg).graph.n_nodes > 1, kind


@pytest.mark.parametrize("path", sorted(NULL_DEFAULTS), ids=".".join)
def test_a_null_default_given_as_null_is_unset(path, tmp_path, capsys):
    """A key whose default is null may be given as null: the config loads and
    resolves to the same ``cfg`` as the config without it."""
    section, key = path
    raw = {"seed": 1, section: {key: None}}
    assert ExperimentConfig(raw).cfg == ExperimentConfig({"seed": 1}).cfg
    cfg_path = tmp_path / "null.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["topology", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    assert "error" not in capsys.readouterr().err
