"""Every benchmark workload's package calls run and pass the workload's checks.

``benchmarks/workloads.py`` calls the package directly (``spanning_tree``,
``run_tas_clustered``, ``run_success_rate`` and more), so a renamed argument
or a changed result would otherwise fail only the benchmark. This test loads
that file by path and runs round 0 of each workload: ``build``, the timed
``body`` and ``check``, then the pooled ``finish``. Workload seed 2 is not the
reference seed, so no stored ``tradeoff-n50`` row is compared and the test
does not depend on the BLAS kernel's rounding.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"
SEED = 2


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_workloads().WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_workload_round_passes_its_checks(name, tmp_path):
    workload = WORKLOADS[name]()
    out_dir = str(tmp_path)
    configs = workload.build(SEED, 0, out_dir)
    outputs = workload.body(SEED, 0, configs, out_dir)
    check = workload.check(SEED, 0, configs, outputs, derive_scalars=True)
    assert check.failed == 0, check.problems
    pooled = workload.finish()
    assert pooled is None or pooled.failed == 0, pooled.problems
    assert any(tmp_path.iterdir())  # the body wrote its records
