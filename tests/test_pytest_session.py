"""A failing Hypothesis test fails alone; the session goes on.

When a ``@given`` test fails, Hypothesis writes a patch with the failing
example, which imports ``libcst``, which raises a ``DeprecationWarning``. The
project turns warnings into errors, so without its narrow ignore entry that
warning becomes an INTERNALERROR and every later test goes unrun.
"""

import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

SESSION = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_a_failing_given_test_does_not_abort_the_session(tmp_path):
    (tmp_path / "test_session.py").write_text(SESSION)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_session.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
