"""The benchmark's traced run wraps ``spsnet`` callables by name.

``benchmarks/layers.py`` lists them and patches them at run time, so renaming
or deleting one breaks the benchmark without failing any package test. This
test loads that file by path, runs its ``install`` against a recorder instead
of a tracer, and checks that every name it would wrap still exists.
"""

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "benchmarks" / "layers.py"


class Recorder:
    """Stands in for the tracer: notes what would be wrapped, wraps nothing."""

    def __init__(self):
        self.functions = []
        self.methods = []

    def patch_function(self, module_name, attr, name, keep_span=True, observe=None):
        self.functions.append((module_name, attr))

    def patch_method(self, cls, attr, name, keep_span=True, observe=None):
        self.methods.append((cls, attr))


def load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_benchmark_name_exists():
    layers = load_layers()
    recorder = Recorder()
    layers.install(recorder)
    for module_name, attr in recorder.functions:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), f"{module_name}.{attr}"
    for cls, attr in recorder.methods:
        assert callable(cls.__dict__.get(attr)), f"{cls.__name__}.{attr}"
    wrapped = {(m.rsplit(".", 1)[-1], attr) for m, attr in recorder.functions}
    named = ([("diffusion", n) for n in layers.DIFFUSION_RUNNERS]
             + [("analysis", n) for n in layers.ANALYSIS_FORMULAS]
             + [("experiments", n) for n in layers.EXPERIMENT_RUNNERS]
             + [("diffusion", n) for n in ("tas_distill", "tas_aggregate", "tas_wrapup")])
    assert set(named) <= wrapped
    assert {(cls.__name__, attr) for cls, attr in recorder.methods} >= {("TrafficLog", "record")}
    assert {m for m, _ in recorder.functions} >= {
        "spsnet.rng", "spsnet.model", "spsnet.topology", "spsnet.sps", "spsnet.lp",
    }
