"""The benchmark's workloads: rounds through the system's three user paths.

A round runs the evaluation stage (``run_loocv`` on three backends and a
cross-backend transfer), the serving stage (one open-loop burst into a
``DecisionServer``) and the planning stage (a fleet allocation epoch and
an NSGA-II search), then the evaluation and planning stages once more.
The two workloads differ only in the Trinity ``run_loocv``: ``warm``
runs it on the workload seed, whose characterization store set-up
fills; ``cold`` draws a seed not seen before in the process for every
pass, so the characterization is inside the timed run.
"""

from __future__ import annotations

import gc
import time

from perfbench.common import (
    GcWatch,
    Ledger,
    layer_metrics,
    median,
    timed_rounds,
    wrap_decide_batch,
)
from perfbench.hostspeed import at_reference, probe
from perfbench.stage_loocv import LoocvStage
from perfbench.stage_plan import PlanStage
from perfbench.stage_serve import ServeStage
from perfbench.tracing import layer_summary

WORKLOADS = ("warm", "cold")
TIME_UNITS = {"s", "ms", "us"}
GC_METRICS = ["py.gc.gen2_collections", "py.gc.pause_ms_total", "py.gc.pause_ms_max"]


class Workload:
    """One workload: set-up, an untimed warm-up pass, then timed rounds
    (``measure``) or alternating untraced and traced rounds
    (``measure_traced``)."""

    STAGES = (LoocvStage, ServeStage, PlanStage)
    #: End-to-end metrics besides ``setup_s``.
    METRICS = [m for stage in STAGES for m in stage.METRICS]
    #: Per-layer metrics read from the spans.
    LAYERS = [m for stage in STAGES for m in stage.LAYERS]

    @classmethod
    def trace_metrics(cls) -> list[str]:
        return (
            cls.LAYERS
            + ServeStage.PHASES
            + GC_METRICS
            + ["trace.overhead_pct", "host.probe_ms"]
        )

    def __init__(self, name: str, seed: int, ledger: Ledger) -> None:
        self.name = name
        self.ledger = ledger
        self.loocv = LoocvStage(seed, ledger, cold=name == "cold")
        self.serve = ServeStage(seed, ledger)
        self.plan = PlanStage(seed, ledger)
        self.stages = (self.loocv, self.serve, self.plan)
        #: Each operation's wall times in the untraced run.
        self.samples: dict[str, list[float]] = {}
        #: Probe times, one before each timed operation.
        self.probes: list[float] = []
        #: The untraced run's metrics before scaling to the reference host.
        self.wall: dict[str, tuple[float, str]] = {}

    def setup(self) -> None:
        for stage in self.stages:
            stage.setup()

    def _each_stage(self):
        return self.loocv.ops() + self.serve.ops() + self.plan.ops()

    def ops(self):
        """One round: the evaluation and planning stages run twice, so
        their operations, the noisiest, get more samples per run."""
        return self._each_stage() + self.loocv.ops() + self.plan.ops()

    def warmup(self) -> None:
        """Each stage once, so lazy caches fill."""
        timed_rounds(self.ledger, self._each_stage(), 0.0)

    def _between_ops(self, collect=gc.collect) -> None:
        collect()
        self.probes.append(probe())

    def measure(self, seconds: float) -> dict[str, tuple[float, str]]:
        """Each stage's end-to-end metrics; timings are scaled to the
        reference host speed by the run's median probe time."""
        self.samples = samples = timed_rounds(
            self.ledger, self.ops(), seconds, self._between_ops
        )
        for stage in self.stages:
            self.wall.update(stage.e2e(samples))
        probe_s = median(self.probes)
        return {
            name: (at_reference(value, probe_s) if unit in TIME_UNITS else value, unit)
            for name, (value, unit) in self.wall.items()
        }

    def measure_traced(self, seconds: float, patcher) -> dict[str, tuple[float, str]]:
        """Alternate untraced and traced rounds; per-layer metrics come
        from the traced ones, the tracing overhead from the two rounds'
        process CPU times."""
        wrap_decide_batch(patcher)
        for stage in self.stages:
            stage.instrument(patcher)
        plain: list[float] = []
        traced: list[float] = []
        deadline = time.perf_counter() + seconds
        with GcWatch() as gcw:

            def between() -> None:
                self._between_ops(gcw.collect)

            while not traced or time.perf_counter() < deadline:
                cpu0 = time.process_time()
                timed_rounds(self.ledger, self.ops(), 0.0, between)
                plain.append(time.process_time() - cpu0)
                self.serve.tracing = True
                try:
                    with patcher.active():
                        cpu0 = time.process_time()
                        timed_rounds(self.ledger, self.ops(), 0.0, between)
                        traced.append(time.process_time() - cpu0)
                finally:
                    self.serve.tracing = False
        out = layer_metrics(layer_summary(patcher.log), len(traced), self.LAYERS)
        self.serve.phase_metrics(out)
        out.update(gcw.metrics(len(plain) + len(traced)))
        out["trace.overhead_pct"] = (
            100.0 * (median(traced) / median(plain) - 1.0),
            "%",
        )
        out["host.probe_ms"] = (1e3 * median(self.probes), "ms")
        return out

    def check(self) -> None:
        for stage in self.stages:
            stage.check()
