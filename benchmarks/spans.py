"""Span tracing for the benchmark, installed from outside the package.

A ``Tracer`` replaces chosen public functions and methods of ``spsnet`` with
timing wrappers, and ``Tracer.restore`` puts every original back. Each wrapped call is one span (name, start, end, parent); spans are
kept in memory and written once at the end. Per-name statistics (calls,
inclusive time, self time, extra counts) are accumulated on the fly, so the
hottest leaf functions can skip the span list and still be counted.

Functions are patched in every ``spsnet`` module that binds them, because
the package imports names with ``from .x import y``.
"""

from __future__ import annotations

import functools
import json
import logging
import re
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

SPAN_CAP = 400_000  # spans kept in memory; later calls are still counted


@dataclass
class Stat:
    calls: int = 0
    incl_s: float = 0.0
    self_s: float = 0.0
    failed: int = 0
    extra: dict = field(default_factory=dict)

    def add(self, key: str, value: float) -> None:
        self.extra[key] = self.extra.get(key, 0) + value


class _Frame:
    __slots__ = ("name", "start", "child", "span")

    def __init__(self, name, start, span):
        self.name = name
        self.start = start
        self.child = 0.0
        self.span = span


class Tracer:
    """Collects spans and per-name statistics from wrapped callables."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        self.child_s: dict[tuple[str, str], float] = {}
        self.spans: list[tuple[str, float, float, int]] = []
        self.spans_dropped = 0
        self._stack: list[_Frame] = []
        self._depth: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.t0 = clock()

    # -- span bookkeeping -------------------------------------------------

    def enter(self, name: str, keep_span: bool = True) -> _Frame:
        span = -1
        if keep_span:
            if len(self.spans) < SPAN_CAP:
                span = len(self.spans)
                parent = self._stack[-1].span if self._stack else -1
                self.spans.append((name, 0.0, 0.0, parent))
            else:
                self.spans_dropped += 1
        self._depth[name] = self._depth.get(name, 0) + 1
        frame = _Frame(name, self.clock(), span)
        self._stack.append(frame)
        return frame

    def exit(self, frame: _Frame, failed: bool = False) -> Stat:
        end = self.clock()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame.name!r} closed out of order")
        dur = end - frame.start
        stat = self.stats.get(frame.name)
        if stat is None:
            stat = self.stats[frame.name] = Stat()
        stat.calls += 1
        stat.self_s += dur - frame.child
        stat.failed += int(failed)
        self._depth[frame.name] -= 1
        if self._depth[frame.name] == 0:  # outermost call of a name owns the inclusive time
            stat.incl_s += dur
        if self._stack:
            parent = self._stack[-1]
            parent.child += dur
            key = (parent.name, frame.name)
            self.child_s[key] = self.child_s.get(key, 0.0) + dur
        if frame.span >= 0:
            name, _, _, parent_span = self.spans[frame.span]
            self.spans[frame.span] = (name, frame.start - self.t0, end - self.t0, parent_span)
        return stat

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        frame = self.enter(name)
        try:
            yield
        except BaseException:
            self.exit(frame, failed=True)
            raise
        self.exit(frame)

    def stat(self, name: str) -> Stat:
        return self.stats.get(name) or Stat()

    # -- patching ---------------------------------------------------------

    def _wrap(self, fn, name: str, keep_span: bool, observe):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer.enter(name, keep_span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.exit(frame, failed=True)
                raise
            stat = tracer.exit(frame)
            if observe is not None:
                observe(stat, args, kwargs, result)
            return result

        wrapper.__traced_original__ = fn
        return wrapper

    def patch_function(self, module_name: str, attr: str, name: str, keep_span=True, observe=None):
        """Wrap ``module.attr`` everywhere in the package that binds it."""
        original = getattr(sys.modules[module_name], attr)
        wrapper = self._wrap(original, name, keep_span, observe)
        package = module_name.split(".")[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def patch_method(self, cls, attr: str, name: str, keep_span=True, observe=None):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrap(original, name, keep_span, observe))

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output -----------------------------------------------------------

    def span_tree(self) -> dict:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "columns": ["name", "start_s", "end_s", "parent"],
            "names": names,
            "spans": [[index[n], round(a, 9), round(b, 9), p] for n, a, b, p in self.spans],
            "spans_dropped": self.spans_dropped,
        }

    def write_span_tree(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.span_tree(), fh, separators=(",", ":"))
            fh.write("\n")


# ---------------------------------------------------------------------------
# topology redraws: the count exists only in a DEBUG log record

_REDRAW_RE = re.compile(r"random_geometric: connected after (\d+) attempts")


def parse_redraws(message: str) -> int:
    """Redraws behind one connected deployment (attempts minus one)."""
    match = _REDRAW_RE.search(message)
    return int(match.group(1)) - 1 if match else 0


class RedrawCounter(logging.Handler):
    """Sums redraws from ``spsnet.topology`` DEBUG records while attached."""

    def __init__(self):
        super().__init__(level=logging.DEBUG)
        self.redraws = 0

    def emit(self, record: logging.LogRecord) -> None:
        self.redraws += parse_redraws(record.getMessage())

    def attach(self, logger_name: str = "spsnet.topology"):
        logger = logging.getLogger(logger_name)
        self._logger, self._level = logger, logger.level
        logger.addHandler(self)
        logger.setLevel(logging.DEBUG)
        return self

    def detach(self) -> None:
        self._logger.removeHandler(self)
        self._logger.setLevel(self._level)
