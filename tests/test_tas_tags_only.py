"""TAS moves tags only, and its aggregates come from the tie-exact builder.

Coverage is exact for any weights that do not depend on the data, so a TAS
run may look at nothing but tags: two runs on different data of the same
shapes must agree on every tag, row count, traffic event and weight. A node's
aggregate is then ``tie_exact_aggregate`` of its weights, which keeps a sign
row that equals +-row 0 on the weighted nodes an exact +-copy of row 0, so
the tie between Z_j and Z_0 goes to the tie-break and not to rounding. The
benchmark's trade-off reference stores such ties, and the replay below checks
that TAS, and consensus built the same way from its weights, reproduce them.
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from spsnet.experiments import build_topology, run_protocol, run_tradeoff  # noqa: E402
from spsnet.model import FieldConfig, NoiseSpec, Samples, generate_measurements  # noqa: E402
from spsnet.rng import substream  # noqa: E402
from spsnet.sps import SignMatrix, draw_sign_matrix, tie_exact_aggregate  # noqa: E402

WORKLOADS = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(3, 60), st.integers(1, 3), st.integers(0, 2**32 - 1), st.data())
def test_sign_flipped_rows_come_out_exact(n_nodes, n_p, seed, data):
    """A row whose signs equal +-row 0 on every node with c_i != 0 gives vec
    and mat equal to +-row 0's, whatever the signs on the other nodes."""
    m = 10
    weight = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0) | st.sampled_from([0.5, 1 / 3, 0.1, 1e-9])
    c = np.array(data.draw(st.lists(weight, min_size=n_nodes, max_size=n_nodes)))
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3, 3, size=2)
    samples = Samples(rng.standard_normal((n_nodes, n_p)) * scale[0], rng.standard_normal(n_nodes) * scale[1])
    entries = rng.choice(np.array([-1, 1], dtype=np.int8), size=(m, n_nodes))
    entries[0] = 1
    tied = rng.choice(np.arange(1, m), size=int(rng.integers(1, m)), replace=False)
    flips = {int(j): int(rng.choice([-1, 1])) for j in tied}  # row j is sign * row 0 where c != 0
    for j, sign in flips.items():
        entries[j, c != 0] = sign
    agg = tie_exact_aggregate(samples, SignMatrix(entries), c)
    for j, sign in flips.items():
        assert np.array_equal(agg.vec[j], sign * agg.vec[0])
        assert np.array_equal(agg.mat[j], sign * agg.mat[0])


def tas_run(bundle, samples, signs):
    """TAS as the protocol table runs it: the bundle's schedule, else 4 rounds."""
    run, _ = run_protocol(bundle, samples, signs, {"protocol": "tas", "rounds": 4})
    return run


@pytest.mark.parametrize("kind,n_nodes", [("rgg", 30), ("tree", 30), ("binary", 31), ("clustered", 30)])
@pytest.mark.parametrize("seed", range(3))
def test_tas_runs_do_not_read_the_data(kind, n_nodes, seed):
    bundle = build_topology(seed, {"kind": kind, "n_nodes": n_nodes, "depth": 4, "n_clusters": 5,
                                   "radius": None})
    n, n_p, m = bundle.graph.n_nodes, 3, 6
    fc = FieldConfig(n_p=n_p, p_true=np.ones(n_p), noise=NoiseSpec(scale=0.1))
    first = tas_run(bundle, generate_measurements(bundle.positions, fc, substream(seed, "noise")),
                    draw_sign_matrix(m, n, seed))
    rng = np.random.default_rng(seed)
    other = Samples(rng.standard_normal((n, n_p)) * 1e3, rng.standard_normal(n) * 1e-3)
    second = tas_run(bundle, other, draw_sign_matrix(m, n, seed + 1000))
    assert first.traffic.events == second.traffic.events
    assert (first.rounds_run, first.row_counts) == (second.rounds_run, second.row_counts)
    for a, b in zip(first.tables, second.tables, strict=True):
        assert (a.tags, a.merged) == (b.tags, b.merged)
    for k in range(n):
        for r in [*first.row_counts, None]:
            assert np.array_equal(first.weights(k, r), second.weights(k, r))


def load_workloads(monkeypatch):
    """The benchmark's workload module, read from its file; its dataclasses
    need it in ``sys.modules`` while it runs."""
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("round_", [2, 4])
def test_tas_rows_replay_the_tradeoff_reference(round_, tmp_path, monkeypatch):
    """Rounds 2 and 4 of the stored trade-off reference hold TAS reads whose
    ties a matrix-product aggregate breaks; built from the weights, every
    ``tas`` row passes the benchmark's own reference comparison, and so does
    every consensus row, built from N * W^t."""
    workloads = load_workloads(monkeypatch)
    workload = workloads.Tradeoff()
    reference = json.loads((workloads.REFERENCE_DIR / f"{workload.name}.json").read_text())
    assert reference["workload_seed"] == 1
    (config,) = workload.build(reference["workload_seed"], round_, str(tmp_path))
    record = run_tradeoff(config)
    for protocol in ("tas", "consensus-metropolis", "consensus-perron"):
        rows = [row for row in record.rows if row[0] == protocol]
        ref_rows = [row for row in reference["rounds"][round_] if row[0] == protocol]
        assert rows and workload.compare_reference(rows, ref_rows) == [], protocol
