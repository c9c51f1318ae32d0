"""Consensus output does not depend on the BLAS kernel picked for the CPU.

OpenBLAS built with ``DYNAMIC_ARCH`` picks its kernels at run time, and the
``OPENBLAS_CORETYPE`` variable forces one for a process. Consensus weights are
stepped with ``einsum`` and its aggregates are built elementwise, so no BLAS
call reaches a consensus coverage record. Each kernel runs in its own child
process; this process's environment is left alone.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
KERNELS = ("Haswell", "Nehalem", "SkylakeX")

CHILD = r"""
import ctypes, hashlib, json
from spsnet.experiments import ExperimentConfig, run_coverage


def corename():
    '''The kernel name the OpenBLAS that numpy loaded reports, or None.'''
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_", "openblas_get_corename"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                return fn().decode()
    return None


config = ExperimentConfig({"seed": 1, "trials": 40, "all_nodes": True,
                           "topology": {"kind": "rgg", "n_nodes": 30},
                           "diffusion": {"protocol": "consensus", "iterations": 7}})
record = json.dumps(run_coverage(config).to_json_dict(), sort_keys=True)
print(json.dumps({"core": corename(), "digest": hashlib.sha256(record.encode()).hexdigest()}))
"""


def run_under(kernel):
    """(core name reported, record digest) of the child run, or None when the
    kernel cannot be forced here."""
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:  # e.g. an instruction set this CPU lacks
        return None
    out = json.loads(proc.stdout)
    if out["core"] is not None and out["core"].lower() != kernel.lower():
        return None
    return out["digest"]


def test_consensus_coverage_is_the_same_under_every_kernel():
    digests = {kernel: run_under(kernel) for kernel in KERNELS}
    ran = {kernel: d for kernel, d in digests.items() if d is not None}
    if len(ran) < 2:
        pytest.skip(f"fewer than two BLAS kernels can be forced here: {digests}")
    assert len(set(ran.values())) == 1, ran
