"""The traffic log keeps one plain tuple per ``record`` call beside running
per-round sums, and sums the events per node on read.

``traffic_oracle.TrafficLog`` updates running totals on every ``record``;
every view of the package's log (events, totals, per-round totals and the CSV
text) must equal the oracle's after any stream of records, read at any
point. A log whose totals are not refreshed after a later record must fail
that check.

The benchmark's traced run counts ``TrafficLog.record`` calls as traffic
events and sums the scalars its observer reads off each call, so every runner
must make exactly one call per event, and those calls must sum to the log's
total.
"""

import importlib.util
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import traffic_oracle  # noqa: E402
from spsnet import diffusion  # noqa: E402
from spsnet.diffusion import TrafficLog  # noqa: E402
from spsnet.model import FieldConfig, NoiseSpec, generate_measurements  # noqa: E402
from spsnet.rng import substream  # noqa: E402
from spsnet.sps import draw_sign_matrix  # noqa: E402
from spsnet.topology import clustered, random_geometric, spanning_tree  # noqa: E402

LAYERS = Path(__file__).resolve().parents[1] / "benchmarks" / "layers.py"
INT_TYPES = (int, np.int64, np.int32, np.intp)


def assert_views_match(log, ref, out: Path) -> None:
    """Every view of ``log`` equals the oracle ``ref``'s."""
    events = log.events
    assert events == ref.events
    assert all(type(e) is tuple and len(e) == 4 and all(type(v) is int for v in e) for e in events)
    total = log.total_scalars
    assert total == ref.total_scalars and type(total) is int
    first, second = log.per_node_totals, log.per_node_totals
    assert first.dtype == np.int64 and first is not second
    assert np.array_equal(first, ref.per_node_totals)
    first[:] = -1  # a read is a fresh array: writing to it changes no later read
    assert np.array_equal(log.per_node_totals, ref.per_node_totals)
    rounds = [rnd for rnd, _, _, _ in ref.events] or [0]
    for r in range(min(rounds) - 1, max(rounds) + 2):
        assert log.total_through_round(r) == ref.total_through_round(r)
    log.to_csv(out / "log.csv")
    ref.to_csv(out / "ref.csv")
    assert (out / "log.csv").read_bytes() == (out / "ref.csv").read_bytes()


def run_stream(log_type, n_nodes, ops) -> None:
    """Apply ``ops`` to a ``log_type`` log and the oracle, checking every read."""
    log, ref = log_type("demo", n_nodes), traffic_oracle.TrafficLog("demo", n_nodes)
    with tempfile.TemporaryDirectory() as tmp:
        for op in ops + [("read",)]:
            if op[0] == "read":
                assert_views_match(log, ref, Path(tmp))
                continue
            _, rnd, node, scalars, bits, as_int = op
            args = (as_int(rnd), as_int(node), as_int(scalars))
            for target in (log, ref):
                if scalars < 0 or bits < 0:
                    with pytest.raises(ValueError):
                        target.record(*args, tag_bits=as_int(bits))
                else:
                    target.record(*args, tag_bits=as_int(bits))


def ops(n_nodes):
    amounts = st.sampled_from([0, 0, 1, 9, 36, 180, 10 ** 6])
    record = st.tuples(st.just("record"), st.integers(-1, 6), st.integers(0, n_nodes - 1), amounts, amounts,
                       st.sampled_from(INT_TYPES))
    maybe_negative = st.tuples(st.just("record"), st.integers(0, 6), st.integers(0, n_nodes - 1),
                               st.sampled_from([-1, 9]), st.sampled_from([-2, 0]), st.sampled_from(INT_TYPES))
    return st.one_of(record, record, maybe_negative, st.just(("read",)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(st.just(n), st.lists(ops(n), max_size=40))))
def test_every_view_matches_the_running_total_oracle(stream):
    n_nodes, stream_ops = stream
    run_stream(TrafficLog, n_nodes, stream_ops)


def stale(name):
    """A log whose view ``name`` answers every read after the first from a memo."""
    view = getattr(TrafficLog, name)
    read = view.fget if isinstance(view, property) else view

    def memo(self, *args):
        key = tuple(map(str, args))
        if key not in self.memo:
            self.memo[key] = read(self, *args)
        return self.memo[key]

    class Stale(TrafficLog):
        def __init__(self, protocol, n_nodes):
            super().__init__(protocol, n_nodes)
            self.memo = {}

    setattr(Stale, name, property(memo) if isinstance(view, property) else memo)
    return Stale


@pytest.mark.parametrize("view", ["events", "total_scalars", "per_node_totals", "total_through_round", "to_csv"])
def test_a_log_that_does_not_refresh_a_view_fails_the_oracle_check(view):
    stream = [("record", 0, 0, 5, 1, int), ("read",), ("record", 1, 1, 7, 0, int),
              ("record", 1, 0, 3, 2, np.int64)]
    run_stream(TrafficLog, 2, stream)
    with pytest.raises(AssertionError):
        run_stream(stale(view), 2, stream)


def traced_record_observer():
    """The observer ``benchmarks/layers.py`` installs on ``TrafficLog.record``."""
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    found = {}

    class Recorder:
        def patch_function(self, *args, **kwargs):
            pass

        def patch_method(self, cls, attr, name, keep_span=True, observe=None):
            found[(cls, attr)] = observe

    layers.install(Recorder())
    return found[(TrafficLog, "record")]


class Stat:
    def __init__(self):
        self.calls, self.extra = 0, {}

    def add(self, key, value):
        self.extra[key] = self.extra.get(key, 0) + value


def network(n_nodes, seed=5):
    graph = random_geometric(n_nodes, substream(seed, "topology"))
    fc = FieldConfig(n_p=2, p_true=np.zeros(2), noise=NoiseSpec(scale=0.1))
    samples = generate_measurements(graph.positions, fc, substream(seed, "noise"))
    return graph, samples, draw_sign_matrix(4, n_nodes, sign_seed=seed)


def run_each(name):
    graph, samples, signs = network(24)
    tree = spanning_tree(graph)
    topo = clustered(24, 5, substream(5, "clusters"))
    return {
        "run_pf": lambda: diffusion.run_pf(graph, samples),
        "run_mf": lambda: diffusion.run_mf(graph, samples),
        "run_tas": lambda: diffusion.run_tas(graph, samples, signs),
        "run_consensus": lambda: diffusion.run_consensus(graph, samples, signs, 6),
        "run_mf_tree": lambda: diffusion.run_mf_tree(tree, samples),
        "run_tas_tree": lambda: diffusion.run_tas_tree(tree, samples, signs),
        "run_mf_clustered": lambda: diffusion.run_mf_clustered(topo, samples),
        "run_tas_clustered": lambda: diffusion.run_tas_clustered(topo, samples, signs),
    }[name]()


@pytest.mark.parametrize("runner", ["run_pf", "run_mf", "run_tas", "run_consensus", "run_mf_tree", "run_tas_tree",
                                    "run_mf_clustered", "run_tas_clustered"])
def test_the_traced_benchmark_counts_one_record_call_per_event(monkeypatch, runner):
    observe, stat = traced_record_observer(), Stat()
    record = TrafficLog.record

    def counted(*args, **kwargs):
        result = record(*args, **kwargs)
        stat.calls += 1
        observe(stat, args, kwargs, result)
        return result

    monkeypatch.setattr(TrafficLog, "record", counted)
    traffic = run_each(runner).traffic
    assert stat.calls > 0
    assert stat.calls == len(traffic.events)
    assert stat.extra["scalars"] == traffic.total_scalars
