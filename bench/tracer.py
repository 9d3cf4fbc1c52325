"""Span tracing of a package from outside, for the benchmark's traced run.

``Tracer.install`` replaces every public function of every submodule, at
each module attribute it is reachable through (from-imports included, and
the values of module-level dicts such as a command table), with a wrapper
that records a span.  A span is (name, start, end, parent): the name is the
attribute the call went through, e.g. ``em.random_init`` and
``vb.random_init`` are two names for one function.  Spans stay in memory;
``uninstall`` restores every attribute.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, package: str):
        self.package = package
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._stack: list[int] = []
        self._undo: list[tuple[dict, object, object]] = []
        #: Every attribute path wrapped so far, e.g. ``em.random_init``.
        self.names: set[str] = set()

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
        return traced

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (a phase or a CLI step)."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent)

    def _set(self, container: dict, key, value):
        self._undo.append((container, key, container[key]))
        container[key] = value

    def install(self) -> None:
        pkg = importlib.import_module(self.package)
        for info in pkgutil.iter_modules(pkg.__path__):
            mod = importlib.import_module(f"{self.package}.{info.name}")
            namespace = vars(mod)
            wrappers = {}
            for attr, value in list(namespace.items()):
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or not value.__module__.startswith(self.package + ".")):
                    continue
                self.names.add(f"{info.name}.{attr}")
                wrappers[value] = self._wrap(f"{info.name}.{attr}", value)
                self._set(namespace, attr, wrappers[value])
            for value in list(namespace.values()):
                if isinstance(value, dict):
                    for key, item in list(value.items()):
                        if inspect.isfunction(item) and item in wrappers:
                            self._set(value, key, wrappers[item])

    def uninstall(self) -> None:
        for container, key, value in reversed(self._undo):
            container[key] = value
        self._undo.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


class SpanTable:
    """Durations, self times and roots of a finished list of spans.

    Self time is a span's duration minus the time its child spans cover.
    """

    def __init__(self, spans):
        self.spans = spans
        n = len(spans)
        self.duration = [end - start for _, start, end, _ in spans]
        self.self_time = list(self.duration)
        self.root = list(range(n))
        for i, (_, _, _, parent) in enumerate(spans):
            if parent >= 0:
                self.self_time[parent] -= self.duration[i]
                self.root[i] = self.root[parent]
        self.by_name = defaultdict(list)
        for i, (name, _, _, _) in enumerate(spans):
            self.by_name[name].append(i)

    def select(self, name: str, roots: set[int]) -> list[int]:
        return [i for i in self.by_name.get(name, ()) if self.root[i] in roots]

    def has_ancestor(self, i: int, name: str) -> bool:
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False
