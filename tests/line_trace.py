"""Opt-in pytest plugin: a gate on the executable lines of ``src/spsnet`` that a session never runs.

``PYTHONPATH=src:tests python -m pytest -q -p line_trace`` traces the suite's own thread (lines
run in subprocesses or other threads are not seen), prints each unrun line as ``path:line`` with
its source text, and fails the session when any of them is not in ``KNOWN_UNRUN``.
"""
import importlib.util
import pathlib
import sys

import pytest

ROOT = pathlib.Path(importlib.util.find_spec("spsnet").submodule_search_locations[0])
# (file name, stripped source text) of the lines no in-process test can run: two counters and a
# raise that fire only on a bug, and the ``__main__`` line, which runs only under ``python -m``
KNOWN_UNRUN = {
    ("experiments.py", "crosscheck_failures += 1"),
    ("lp.py", 'raise SimplexError("unbounded direction found; the wrap-up LP is bounded, so this is a bug")'),
    ("cli.py", "sys.exit(main())"),
}
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
    sources = {str(f): f.read_text() for f in sorted(ROOT.rglob("*.py"))}
    executable = {(path, n) for path, text in sources.items() for n in _lines(compile(text, path, "exec"))}
    unrun = sorted(executable - _ran)
    print(f"\nline_trace: {len(executable) - len(unrun)} of {len(executable)} executable lines run")
    unknown = 0
    for path, line in unrun:
        text = sources[path].splitlines()[line - 1].strip()
        known = (pathlib.Path(path).name, text) in KNOWN_UNRUN
        unknown += not known
        print(f"  {pathlib.Path(path).relative_to(ROOT.parent.parent)}:{line}: {text}"
              f"{'' if known else '  <- not a known unrun line'}")
    if unknown:
        print(f"line_trace: {unknown} unrun line(s) outside the known ones; test them or remove them")
        if session.exitstatus == pytest.ExitCode.OK:
            session.exitstatus = pytest.ExitCode.TESTS_FAILED


sys.settrace(_trace)
