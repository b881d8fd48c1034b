"""Outside-in tracing of jse's public functions.

The traced benchmark run replaces each listed function, in every ``jse``
module namespace that holds it (``from .x import y`` binds a name per
importing module), by a wrapper that records one span: name, start, end,
parent span and run id. Spans live in flat in-memory arrays until the run
ends; ``restore`` puts every original object back.

A layer's self time is its spans' duration minus the part covered by their
direct child spans. Spans nest strictly (one thread, one call stack), so
that coverage is the sum of the children's durations.
"""

from __future__ import annotations

import array
import functools
import sys
import time
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array.array("i")
        self._start = array.array("d")
        self._end = array.array("d")
        self._parent = array.array("q")
        self._run = array.array("q")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.run_id = -1
        self.enabled = True

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._run.append(self.run_id)
        self._start.append(0.0)
        self._end.append(0.0)
        self._stack.append(i)
        return i

    def _close(self, i: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self._start[i] = t0
        self._end[i] = t1

    @contextmanager
    def paused(self):
        """Run a block (the benchmark's own checks) without recording spans."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    @contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code (e.g. one CLI call)."""
        if not self.enabled:
            yield
            return
        i = self._open(self._name_id(name))
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(i, t0, time.perf_counter())

    def wrap(self, name: str, fn, on_result=None):
        """A traced stand-in for fn; on_result(args, result) runs after the span."""
        nid = self._name_id(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            i = self._open(nid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(i, t0, clock())
            if on_result is not None:
                on_result(args, out)
            return out

        return traced

    def patch(self, module: str, attr: str, name: str, on_result=None) -> None:
        """Trace ``module.attr`` wherever a jse module (or class) binds it."""
        owner_path, _, leaf = attr.rpartition(".")
        owner = sys.modules[module]
        for part in filter(None, owner_path.split(".")):
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        wrapper = self.wrap(name, original, on_result)
        if owner_path:  # a method: the class is the only binding
            self._set(owner, leaf, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "jse" or mod_name.startswith("jse.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)

    def _set(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def restore(self) -> None:
        while self._patches:
            owner, key, value = self._patches.pop()
            setattr(owner, key, value)

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self._name, dtype=np.int32).copy(),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int64).copy(),
            "run": np.frombuffer(self._run, dtype=np.int64).copy(),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive ms and self ms."""
        a = self.arrays()
        n_names = len(self.names)
        dur = (a["end"] - a["start"]) * 1000.0
        has_parent = a["parent"] >= 0
        child_ms = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                               minlength=len(dur))
        self_ms = dur - child_ms
        calls = np.bincount(a["name"], minlength=n_names)
        incl = np.bincount(a["name"], weights=dur, minlength=n_names)
        excl = np.bincount(a["name"], weights=self_ms, minlength=n_names)
        return {
            name: {"calls": int(calls[k]), "ms": float(incl[k]), "self_ms": float(excl[k])}
            for k, name in enumerate(self.names)
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
