"""Opt-in pytest plugin: list the executable lines of ``src/spsnet`` that a session never runs.

``PYTHONPATH=src:tests python -m pytest -q -p line_trace`` traces the suite's own thread (lines
run in subprocesses or other threads are not seen) and prints each unrun line as ``path:line``.
"""
import importlib.util
import pathlib
import sys

ROOT = pathlib.Path(importlib.util.find_spec("spsnet").submodule_search_locations[0])
_ran = set()


def _trace(frame, event, arg):
    if not frame.f_code.co_filename.startswith(str(ROOT)):
        return None
    _ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _trace


def _lines(code):
    yield from (line for _, _, line in code.co_lines() if line is not None)
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from _lines(const)


def pytest_sessionfinish(session):
    sys.settrace(None)
    files = sorted(ROOT.rglob("*.py"))
    executable = {(str(f), n) for f in files for n in _lines(compile(f.read_text(), str(f), "exec"))}
    unrun = sorted(executable - _ran)
    print(f"\nline_trace: {len(executable) - len(unrun)} of {len(executable)} executable lines run")
    for path, line in unrun:
        print(f"  {pathlib.Path(path).relative_to(ROOT.parent.parent)}:{line}")


sys.settrace(_trace)
