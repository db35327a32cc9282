"""Span tracing for the benchmark's traced run.

The tracer wraps entry points of b4nls (and of numpy.fft) from outside the
package while a traced pass runs, and restores them afterwards. Each wrapped
call records one span (name, layer, start, end, parent) in memory; a wrap
point marked ``span=False`` only counts its calls. A wrap point the program
no longer has is listed in ``Tracer.missing`` and skipped.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class WrapPoint:
    module: str
    attr: str  # a module attribute, or "Class.method"
    layer: str
    span: bool = True
    count: Callable | None = None  # (args, kwargs, result) -> {counter: increment}

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


class Tracer:
    def __init__(self, points=()):
        self.points = tuple(points)
        self.names: list[str] = []
        self.layers: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str, layer: str) -> int:
        idx = len(self.starts)
        self.names.append(name)
        self.layers.append(layer)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(float("nan"))
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    # -- wrapping ------------------------------------------------------------

    def install(self) -> None:
        for point in self.points:
            try:
                owner = importlib.import_module(point.module)
                *path, leaf = point.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
            except (ImportError, AttributeError):
                if point.name not in self.missing:
                    self.missing.append(point.name)
                continue
            self._saved.append((owner, leaf, inspect.getattr_static(owner, leaf)))
            setattr(owner, leaf, self._wrap(point, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    def _wrap(self, point: WrapPoint, fn):
        name = point.name
        calls = self.calls
        if not point.span:
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return functools.wraps(fn)(counted)

        def traced(*args, **kwargs):
            idx = self.open(name, point.layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            calls[name] += 1
            if point.count:
                self.counters.update(point.count(args, kwargs, result))
            return result
        return functools.wraps(fn)(traced)

    # -- summaries -----------------------------------------------------------

    def durations(self) -> Counter:
        """Inclusive span time per span name."""
        out = Counter()
        for name, s, e in zip(self.names, self.starts, self.ends):
            out[name] += e - s
        return out

    def layer_self_times(self) -> Counter:
        out = Counter()
        for layer, st in zip(self.layers, self_times(self.starts, self.ends, self.parents)):
            out[layer] += st
        return out


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: list[list[int]] = [[] for _ in starts]
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = []
    for i, (s, e) in enumerate(zip(starts, ends)):
        covered = 0.0
        reach = s
        for c in sorted(children[i], key=starts.__getitem__):
            lo = max(starts[c], reach)
            hi = min(ends[c], e)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(e - s - covered)
    return out
