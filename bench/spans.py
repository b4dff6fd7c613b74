"""In-memory span tracer that wraps the package's public names from outside.

A traced run replaces module attributes such as
``privproj.experiment.train_eval`` with timing wrappers, so every call the
package makes through that name records a span (name, start, end, parent).
Nothing under ``src/`` changes. Spans stay in memory until the run ends.

Parents are tracked per thread. A span opened on a worker thread whose own
stack is empty takes the innermost open span of the thread that installed
the tracer as its parent: the sweep's worker threads run cells on behalf
of the ``run_sweep`` call that thread is blocked in.
"""

from __future__ import annotations

import hashlib
import threading
import time
from contextlib import contextmanager

import numpy as np


def digest_args(*values) -> str:
    """Hash of the bytes of arrays, datasets and label sets (a distinct-input key)."""
    h = hashlib.blake2b(digest_size=16)
    for value in values:
        for attr in ("x", "labels"):
            if hasattr(value, attr):
                value = getattr(value, attr)
                break
        arr = np.ascontiguousarray(value)
        h.update(repr((arr.dtype.str, arr.shape)).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


class Tracer:
    """Spans of the calls made through `wrappings` while installed; each
    wrapping is a (module, attr, name[, key[, attrs]]) tuple for `wrap`."""

    def __init__(self, wrappings=()):
        self.wrappings = tuple(wrappings)
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, key: str | None = None):
        stack = self._stack()
        parent_stack = stack or self._root_stack
        parent = parent_stack[-1] if parent_stack else None
        record = {"name": name, "parent": parent, "key": key,
                  "thread": threading.get_ident()}
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        stack.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()

    def wrap(self, module, attr: str, name: str, key=None, attrs=None) -> None:
        """Replace module.attr by a wrapper recording a span per call.

        `key(*args, **kwargs)` returns the distinct-input hash and
        `attrs(result, *args, **kwargs)` extra fields such as work counts.
        """
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            span_key = key(*args, **kwargs) if key else None
            with self.span(name, span_key) as record:
                result = original(*args, **kwargs)
            if attrs:
                record.update(attrs(result, *args, **kwargs))
            return result

        self._patches.append((module, attr, original))
        setattr(module, attr, wrapper)

    def install(self) -> None:
        """Wrap every name; spans opened on the calling thread become the
        parents of worker-thread spans."""
        self._local.stack = self._root_stack
        for wrapping in self.wrappings:
            self.wrap(*wrapping)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


def _union_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the part of it its children cover (children on
    worker threads may overlap each other; their union is subtracted)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        clipped = [(max(a, s["start"]), min(b, s["end"]))
                   for a, b in children.get(s["id"], ())]
        covered = _union_length([(a, b) for a, b in clipped if b > a])
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def covered_time(spans: list[dict], names, start: float, end: float) -> float:
    """Length of [start, end] covered by spans whose name is in `names`."""
    return _union_length([(max(s["start"], start), min(s["end"], end))
                          for s in spans if s["name"] in names
                          and min(s["end"], end) > max(s["start"], start)])
