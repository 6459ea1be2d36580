"""Shared pieces of the benchmark: operation accounting, timed rounds,
set-up timing, statistics and run provenance."""

from __future__ import annotations

import gc
import os
import platform
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

_MODULE_T0 = time.perf_counter()


class Ledger:
    """Operations attempted and failed in one run, with failure notes.

    Timed operations and output checks both count; an operation that
    raises or a check that does not hold counts as failed and makes the
    run incorrect.  :meth:`count` adds operations that may fail without
    being wrong, such as served requests, some of them shed.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    @property
    def correct(self) -> bool:
        return not self.errors

    def call(self, label: str, fn: Callable[[], object]):
        """Run one operation; returns its result, or None if it failed."""
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # report, count, keep measuring
            self.failed += 1
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            return None

    def check(self, label: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"check {label} failed {detail}".rstrip())
        return ok

    def count(self, attempted: int, missed: int) -> None:
        """Bulk accounting for operations that are not output checks."""
        self.attempted += attempted
        self.failed += missed


def process_age_s() -> float:
    """Seconds since this process started (interpreter start-up included).

    Read from ``/proc`` where available (10 ms resolution); elsewhere the
    time since this module was imported.
    """
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        ticks = int(fields[19])
        return time.clock_gettime(time.CLOCK_BOOTTIME) - ticks / os.sysconf(
            "SC_CLK_TCK"
        )
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _MODULE_T0


def timed_rounds(
    ledger: Ledger,
    ops: list[tuple[str, Callable[[], object]]],
    seconds: float,
    collect: Callable[[], object] = gc.collect,
) -> dict[str, list[float]]:
    """Repeat a round of operations until ``seconds`` have passed.

    Every round runs each operation once, in order.  At least one whole
    round runs; after it, no operation starts once the deadline has
    passed.  A full garbage collection, untimed, precedes each
    operation, so the collections inside it are paid for by its own
    allocations.
    An operation may return a callable that checks its output; it runs
    after the clock stops.  Returns each operation's wall times (failed
    calls excluded).
    """
    samples: dict[str, list[float]] = {name: [] for name, _ in ops}
    deadline = time.perf_counter() + seconds
    first = True
    while True:
        for name, fn in ops:
            if not first and time.perf_counter() >= deadline:
                return samples
            collect()
            failed = ledger.failed
            t0 = time.perf_counter()
            verify = ledger.call(name, fn)
            elapsed = time.perf_counter() - t0
            if ledger.failed == failed:
                samples[name].append(elapsed)
            if callable(verify):
                ledger.call(f"{name}-output", verify)
        first = False


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else float("nan")


def percentile(values, q: float) -> float:
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return float("nan")
    return float(np.percentile(values, q))


class GcWatch:
    """Counts gen-2 collections and GC pause times via ``gc.callbacks``,
    leaving out the benchmark's own collections made through
    :meth:`collect`."""

    def __init__(self) -> None:
        self.gen2 = 0
        self.pauses: list[float] = []
        self._t0 = 0.0
        self._explicit = False

    def collect(self) -> None:
        self._explicit = True
        try:
            gc.collect()
        finally:
            self._explicit = False

    def _callback(self, phase: str, info: dict) -> None:
        if self._explicit:
            return
        if phase == "start":
            self._t0 = time.perf_counter()
            return
        self.pauses.append(time.perf_counter() - self._t0)
        if info.get("generation") == 2:
            self.gen2 += 1

    def __enter__(self) -> "GcWatch":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._callback)

    def metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        rounds = max(rounds, 1)
        return {
            "py.gc.gen2_collections": (self.gen2 / rounds, "count"),
            "py.gc.pause_ms_total": (1e3 * sum(self.pauses) / rounds, "ms"),
            "py.gc.pause_ms_max": (1e3 * max(self.pauses, default=0.0), "ms"),
        }


def _git_commit() -> str:
    """HEAD's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def src_lines() -> int:
    """Net line count of the program's Python sources under ``src/``."""
    total = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        with open(path, "rb") as fh:
            total += sum(1 for _ in fh)
    return total


def provenance() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _git_commit(),
        "src_lines": src_lines(),
    }


def layer_metrics(
    summary: dict[str, dict[str, float]], rounds: int, wanted: list[str]
) -> dict[str, tuple[float, str]]:
    """Per-round values of per-layer metrics from a span summary.

    A wanted name is ``<span>.<field>``: ``calls``, ``self_s``, or any
    other word for the work the spans carried (``server.engine.requests``,
    ``search.evaluate.points``).  A span that never ran reads 0.
    """
    rounds = max(rounds, 1)
    out = {}
    for metric in wanted:
        span, field = metric.rsplit(".", 1)
        key = field if field in ("calls", "self_s") else "amount"
        value = summary.get(span, {}).get(key, 0.0) / rounds
        out[metric] = (value, "s" if key == "self_s" else "count")
    return out


def _batch_size(scheduler, predictions, uids, *args, **kwargs) -> int:
    return len(uids)


def wrap_decide_batch(patcher) -> None:
    """Trace the batched decision kernel where it is looked up:
    ``repro.server.service`` imports it by name, ``ModelMethod`` looks
    it up in ``repro.server.engine``."""
    import repro.server.engine as engine_mod
    import repro.server.service as service_mod

    for mod in (engine_mod, service_mod):
        patcher.wrap(mod, "decide_batch", "server.engine", amount=_batch_size)
