"""Span recording for the traced benchmark run.

The benchmark's own wrappers are installed around public functions of
the program (see :class:`Patcher`); each call records one span: a name,
start and end times, its parent span, a request id (``-1`` outside the
serving path) and an ``amount`` of work (requests in a batch, points
evaluated, ...).  Spans stay in memory, in one compact buffer per
thread, until the run ends; :meth:`SpanLog.merged` then gathers them
into flat numpy arrays and :func:`self_times` computes every span's
self time: its duration minus the part of it covered by its children.
"""

from __future__ import annotations

import functools
import threading
from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import Callable

import numpy as np

__all__ = ["Patcher", "SpanLog", "layer_summary", "self_times"]


class _Buffer:
    """One thread's spans, as parallel arrays (40 bytes per span)."""

    __slots__ = ("name", "parent", "rid", "amount", "start", "end", "stack")

    def __init__(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.rid = array("q")
        self.amount = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []


class SpanLog:
    """In-memory span store; appends are per thread, so lock-free."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()

    def name_id(self, name: str) -> int:
        with self._lock:
            nid = self._ids.get(name)
            if nid is None:
                nid = self._ids[name] = len(self.names)
                self.names.append(name)
            return nid

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
        return buf

    def open(self, nid: int, amount: int = 1, rid: int = -1) -> int:
        """Start a span under the thread's innermost open span."""
        buf = self._buffer()
        i = len(buf.start)
        buf.name.append(nid)
        buf.parent.append(buf.stack[-1] if buf.stack else -1)
        buf.rid.append(rid)
        buf.amount.append(amount)
        buf.end.append(0.0)
        buf.stack.append(i)
        buf.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        buf = self._local.buf
        buf.end[i] = perf_counter()
        buf.stack.pop()

    def add(
        self, nid: int, start: float, end: float, rid: int = -1, amount: int = 1
    ) -> None:
        """Record a finished root span with explicit times (phases
        measured across threads, such as a request's queue wait)."""
        buf = self._buffer()
        buf.name.append(nid)
        buf.parent.append(-1)
        buf.rid.append(rid)
        buf.amount.append(amount)
        buf.start.append(start)
        buf.end.append(end)

    def merged(self) -> dict[str, np.ndarray]:
        """All spans as flat arrays; parents re-indexed globally."""
        parts: dict[str, list[np.ndarray]] = {
            k: [] for k in ("name", "parent", "rid", "amount", "start", "end")
        }
        offset = 0
        for buf in self._buffers:
            n = len(buf.start)
            parent = np.frombuffer(buf.parent, dtype=np.int32).astype(np.int64)
            parts["parent"].append(np.where(parent >= 0, parent + offset, -1))
            parts["name"].append(np.frombuffer(buf.name, dtype=np.int32))
            parts["rid"].append(np.frombuffer(buf.rid, dtype=np.int64))
            parts["amount"].append(np.frombuffer(buf.amount, dtype=np.int64))
            parts["start"].append(np.frombuffer(buf.start, dtype=np.float64))
            parts["end"].append(np.frombuffer(buf.end, dtype=np.float64))
            offset += n
        out = {
            k: (np.concatenate(v) if v else np.empty(0)) for k, v in parts.items()
        }
        out["name"] = out["name"].astype(np.int64)
        out["parent"] = out["parent"].astype(np.int64)
        return out


def self_times(
    start: np.ndarray, end: np.ndarray, parent: np.ndarray
) -> np.ndarray:
    """Each span's duration minus the union of its children's
    intervals, clipped to the span itself."""
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    out = end - start
    kids = np.flatnonzero(parent >= 0)
    if kids.size == 0:
        return out
    kids = kids[np.lexsort((start[kids], parent[kids]))]
    covered = np.zeros_like(out)
    cur_parent, lo, hi, span_end, acc = -1, 0.0, 0.0, 0.0, 0.0
    for k in kids.tolist():
        p = int(parent[k])
        if p != cur_parent:
            if cur_parent >= 0:
                covered[cur_parent] = acc + (hi - lo)
            cur_parent, acc = p, 0.0
            span_end = end[p]
            lo = hi = max(start[p], start[k])
        s = max(start[k], start[p])
        e = min(end[k], span_end)
        if e <= s:
            continue
        if s > hi:
            acc += hi - lo
            lo, hi = s, e
        elif e > hi:
            hi = e
    covered[cur_parent] = acc + (hi - lo)
    return out - covered


def layer_summary(log: SpanLog) -> dict[str, dict[str, float]]:
    """Per span name: calls, summed amount and self seconds."""
    spans = log.merged()
    if spans["start"].size == 0:
        return {}
    own = self_times(spans["start"], spans["end"], spans["parent"])
    n_names = len(log.names)
    calls = np.bincount(spans["name"], minlength=n_names)
    amount = np.bincount(spans["name"], weights=spans["amount"], minlength=n_names)
    self_s = np.bincount(spans["name"], weights=own, minlength=n_names)
    return {
        name: {
            "calls": float(calls[i]),
            "amount": float(amount[i]),
            "self_s": float(self_s[i]),
        }
        for i, name in enumerate(log.names)
        if calls[i]
    }


class Patcher:
    """Installs span-recording wrappers where functions are looked up.

    ``wrap(owner, attr, name)`` registers a wrapper for the attribute
    ``attr`` of a module or class as found in its own ``__dict__``
    (plain functions, methods, classmethods and staticmethods).  The
    wrappers are live only inside :meth:`active`, so traced and
    untraced rounds can alternate in one process.  ``name`` may be a
    callable of the call's arguments, and ``amount`` a callable giving
    the work the call carries.
    """

    def __init__(self, log: SpanLog) -> None:
        self.log = log
        self._wraps: list[tuple[object, str, object, object]] = []

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str | Callable[..., str],
        amount: Callable[..., int] | None = None,
    ) -> None:
        self.replace(owner, attr, lambda fn: self._wrapper(fn, name, amount))

    def replace(self, owner: object, attr: str, make: Callable) -> None:
        """Register ``make(original_function)`` as the traced version."""
        raw = vars(owner)[attr]
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind is not None else raw
        wrapper = make(fn)
        self._wraps.append((owner, attr, raw, kind(wrapper) if kind else wrapper))

    def _wrapper(self, fn, name, amount):
        log = self.log
        if callable(name):
            ids: dict[str, int] = {}

            def nid_of(args, kwargs):
                label = name(*args, **kwargs)
                nid = ids.get(label)
                if nid is None:
                    nid = ids[label] = log.name_id(label)
                return nid
        else:
            fixed = log.name_id(name)

            def nid_of(args, kwargs):
                return fixed

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            n = amount(*args, **kwargs) if amount is not None else 1
            i = log.open(nid_of(args, kwargs), n)
            try:
                return fn(*args, **kwargs)
            finally:
                log.close(i)

        return traced

    @contextmanager
    def active(self):
        for owner, attr, _, wrapped in self._wraps:
            setattr(owner, attr, wrapped)
        try:
            yield self.log
        finally:
            for owner, attr, raw, _ in reversed(self._wraps):
                setattr(owner, attr, raw)
