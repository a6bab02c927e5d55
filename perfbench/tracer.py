"""In-memory span tracer that instruments a package from outside.

A :class:`Tracer` replaces named functions with wrappers for the length
of a ``with`` block and records one :class:`Span` per call: its name,
start, end and the index of the enclosing span.  Nothing in the traced
package changes; the wrappers are installed at every module attribute
that holds the original function, so callers pick them up whatever name
they resolve.  A target that no longer exists is recorded in
``Tracer.absent`` instead of failing, so the tracer survives refactors
of the code it measures.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from typing import Any, Callable, NamedTuple

#: Span name of the time a reducer spends on a return value.  It is a
#: child of the caller's span, so the caller's self time excludes it.
REDUCE = "bench.reduce"


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root
    value: Any = None  # reduced return value, when the target has a reducer


class Totals(NamedTuple):
    calls: int
    total_s: float  # inclusive time summed over calls
    self_s: float  # total minus the time of direct children


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def totals(spans: list[Span]) -> dict[str, Totals]:
    """Calls, inclusive time and self time summed per span name."""
    acc: dict[str, list] = {}
    for s, own in zip(spans, self_times(spans)):
        entry = acc.setdefault(s.name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += s.end - s.start
        entry[2] += own
    return {name: Totals(*entry) for name, entry in acc.items()}


def outermost(spans: list[Span], names) -> list[Span]:
    """Spans named in ``names`` that have no ancestor named in ``names``."""
    names = set(names)
    keep = []
    for s in spans:
        if s.name not in names:
            continue
        parent = s.parent
        while parent >= 0 and spans[parent].name not in names:
            parent = spans[parent].parent
        if parent < 0:
            keep.append(s)
    return keep


def _resolve(spec: str):
    """``"pkg.module:attr"`` or ``"pkg.module:Class.attr"`` -> (owner, attr,
    object); raises LookupError when any part is missing."""
    module_name, _, path = spec.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as err:
        raise LookupError(spec) from err
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            raise LookupError(spec)
    if not hasattr(owner, attr):
        raise LookupError(spec)
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Record spans for ``targets`` (span name -> ``"module:attr"``) while
    installed as a context manager.

    ``reducers`` maps span names to functions applied to the return value
    as the call ends; the span keeps only what the reducer returns, so
    large results are not held.
    """

    def __init__(self, targets: dict[str, str],
                 reducers: dict[str, Callable[[Any], Any]] | None = None):
        self.targets = targets
        self.reducers = reducers or {}
        self.spans: list[Span] = []
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for name, spec in self.targets.items():
            try:
                owner, attr, original = _resolve(spec)
            except LookupError:
                self.absent.add(name)
                continue
            wrapper = self._wrap(name, original)
            for holder, key in self._bindings(owner, attr, original, spec):
                self._patches.append((holder, key, original))
                setattr(holder, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            holder, key, original = self._patches.pop()
            setattr(holder, key, original)

    @staticmethod
    def _bindings(owner, attr, original, spec):
        """Every place a caller may resolve ``original`` from: the class
        attribute for a method, else each loaded module of the same
        top-level package whose global holds the same object."""
        if not isinstance(owner, types.ModuleType):
            return [(owner, attr)]
        package = spec.partition(":")[0].split(".")[0]
        found = []
        for mod_name, module in list(sys.modules.items()):
            if module is None or mod_name.split(".")[0] != package:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    found.append((module, key))
        return found

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        reduce = self.reducers.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(name, start, end, parent)
            if reduce is not None:
                spans[index] = spans[index]._replace(value=reduce(result))
                spans.append(Span(REDUCE, end, clock(), parent))
            return result

        return wrapper
