"""The serving stage of a round: open-loop decisions from a warmed
``DecisionServer``.

Each round sends one burst of Poisson arrivals at a fixed rate of
(kernel, cap) requests into a fresh server on the same warmed service:
kernels uniform over the suite's uids, caps uniform in 8-45 W.  The
generator is the process's main thread; the server's single dispatcher
thread is the only other one.
"""

from __future__ import annotations

import time

import numpy as np

from repro.server.batching import DecisionServer, ServerOverloadError
from repro.server.engine import DecisionRequest
from repro.server.service import DecisionService, build_default_service

from perfbench.common import median, percentile
from perfbench.loadgen import ERROR, FAILED, OK, SHED, OpenLoop

RATE_PER_S = 2000.0
CAP_RANGE_W = (8.0, 45.0)
LATENCY_LIMIT_S = 0.010
BURST_S = 0.5
#: Requests per burst whose served results are compared with a direct
#: ``DecisionService.decide_batch`` call on the same requests.
CHECK_SAMPLE = 256


class ServeStage:
    METRICS = ["serve_within_10ms_pct"]
    LAYERS = [
        "server.engine.calls",
        "server.engine.requests",
        "server.engine.self_s",
        "server.service.calls",
        "server.service.self_s",
        "server.submit.self_s",
    ]
    PHASES = [
        "server.batch_size_mean",
        "server.queue_wait_ms.p50",
        "server.queue_wait_ms.p99",
        "server.resolve_ms.p50",
        "server.submit_us.p50",
        "server.shed",
        "server.errors",
        "loadgen.late_p99_ms",
        "serve.cpu_us_per_req",
        "serve.latency_p50_ms",
        "serve.latency_p99_ms",
        "serve.latency_p999_ms",
    ]

    def __init__(self, seed: int, ledger) -> None:
        self.seed = seed
        self.ledger = ledger
        self.rng = np.random.default_rng(seed)
        #: Set while the workload runs a traced round.
        self.tracing = False
        self.log = None
        self.plain: list[tuple[OpenLoop, float]] = []
        self.traced: list[tuple[OpenLoop, float]] = []
        self._rid_of: dict[int, int] = {}
        self._batch_start = self._batch_end = np.empty(0)

    def setup(self) -> None:
        self.service = build_default_service(seed=self.seed)
        self.service.warm()
        self.uids = self.service.kernel_uids

    # -- one open-loop burst ------------------------------------------------

    def _loop(self, server, seconds: float, on_send=None) -> OpenLoop:
        rng = self.rng
        n = max(1, int(round(RATE_PER_S * seconds)))
        offsets = OpenLoop.poisson_offsets(rng, RATE_PER_S, n)
        picks = rng.integers(0, len(self.uids), size=n)
        caps = rng.uniform(*CAP_RANGE_W, size=n)
        sample = rng.choice(n, size=min(CHECK_SAMPLE, n), replace=False)
        return OpenLoop(
            server.submit,
            DecisionRequest,
            [self.uids[k] for k in picks],
            caps,
            offsets,
            overload=ServerOverloadError,
            sample=sample,
            on_send=on_send,
        )

    def _burst(self, seconds: float, on_send=None) -> tuple[OpenLoop, float]:
        """One open-loop run on a fresh server; returns the loop and the
        server's CPU time per request sent, in microseconds."""
        with DecisionServer(self.service) as server:
            loop = self._loop(server, seconds, on_send)
            if on_send is not None:
                self._batch_start = np.full(loop.n, np.nan)
                self._batch_end = np.full(loop.n, np.nan)
            cpu0 = time.process_time()
            loop.run()
            cpu_s = time.process_time() - cpu0 - loop.generator_cpu_s
        return loop, 1e6 * cpu_s / loop.n

    def _account(self, loop: OpenLoop) -> None:
        """Count the burst's requests and check its outputs."""
        led = self.ledger
        led.count(loop.n, loop.n - loop.count(OK))
        led.check(
            "serve-all-ok",
            loop.count(ERROR) == 0 and loop.count(FAILED) == 0,
            f"({loop.count(ERROR)} errors, {loop.count(FAILED)} failures)",
        )
        sample = sorted(loop.results)
        expected = self.service.decide_batch(
            [DecisionRequest(loop.uids[i], float(loop.caps[i])) for i in sample]
        )
        mismatched = sum(
            1 for i, want in zip(sample, expected) if loop.results[i] != want
        )
        led.check(
            "serve-matches-decide-batch",
            len(sample) > 0 and mismatched == 0,
            f"({mismatched} of {len(sample)} sampled results differ)",
        )

    # -- the round's operation -----------------------------------------------

    def _serve(self):
        """One burst; its outputs are checked, and (traced) its
        per-request phases recorded, after the clock stops."""
        tracing = self.tracing
        loop, cpu_us = self._burst(BURST_S, self._tag if tracing else None)
        (self.traced if tracing else self.plain).append((loop, cpu_us))

        def verify() -> None:
            self._account(loop)
            if tracing:
                self._record_phases(loop)

        return verify

    def ops(self):
        return [("serve", self._serve)]

    def e2e(self, samples) -> dict:
        loops = [loop for loop, _ in self.plain]
        sent = sum(loop.n for loop in loops)
        within = sum(loop.within_pct(LATENCY_LIMIT_S) * loop.n for loop in loops)
        return {"serve_within_10ms_pct": (within / sent, "%")}

    # -- the traced run -----------------------------------------------------

    def _tag(self, i: int, request) -> None:
        self._rid_of[id(request)] = i

    def _record_phases(self, loop: OpenLoop) -> None:
        log = self.log
        queue_id = log.name_id("server.queue")
        resolve_id = log.name_id("server.resolve")
        self._rid_of.clear()
        for i in np.flatnonzero(loop.outcome == OK).tolist():
            log.add(queue_id, loop.scheduled[i], self._batch_start[i], rid=i)
            log.add(resolve_id, self._batch_end[i], loop.done[i], rid=i)

    def phase_metrics(self, out: dict) -> None:
        """The per-request phases of the traced bursts and the tails of
        the untraced ones; ``out`` already holds the span metrics."""
        log = self.log
        spans = log.merged()
        dur = spans["end"] - spans["start"]

        def durations(name: str) -> np.ndarray:
            return dur[spans["name"] == log.name_id(name)]

        queue_ms = 1e3 * durations("server.queue")
        service = out["server.service.calls"][0]
        plain = [loop for loop, _ in self.plain]
        latency = np.concatenate([loop.latency_s() for loop in plain])
        late = np.concatenate([loop.lateness_s() for loop in plain])
        every = plain + [loop for loop, _ in self.traced]
        out.update(
            {
                "server.batch_size_mean": (
                    out["server.engine.requests"][0] / service if service else 0.0,
                    "count",
                ),
                "server.queue_wait_ms.p50": (percentile(queue_ms, 50), "ms"),
                "server.queue_wait_ms.p99": (percentile(queue_ms, 99), "ms"),
                "server.resolve_ms.p50": (
                    percentile(1e3 * durations("server.resolve"), 50),
                    "ms",
                ),
                "server.submit_us.p50": (
                    percentile(1e6 * durations("server.submit"), 50),
                    "us",
                ),
                "server.shed": (
                    sum(b.count(SHED) for b in every) / len(every),
                    "count",
                ),
                "server.errors": (
                    sum(b.count(ERROR) + b.count(FAILED) for b in every) / len(every),
                    "count",
                ),
                "loadgen.late_p99_ms": (1e3 * percentile(late, 99), "ms"),
                "serve.cpu_us_per_req": (median(c for _, c in self.plain), "us"),
                "serve.latency_p50_ms": (1e3 * percentile(latency, 50), "ms"),
                "serve.latency_p99_ms": (1e3 * percentile(latency, 99), "ms"),
                "serve.latency_p999_ms": (1e3 * percentile(latency, 99.9), "ms"),
            }
        )

    def check(self) -> None:
        """Every burst is checked as it finishes (see ``_account``)."""
        self.ledger.check("serve-ran", bool(self.plain))


    # -- tracing ------------------------------------------------------------

    def _traced_service(self, fn, log):
        """``DecisionService.decide_batch`` recording its batch span and
        each request's batch start and end, for the queue and resolve
        phases."""
        nid = log.name_id("server.service")
        rid_of = self._rid_of

        def decide_batch(service, requests):
            requests = list(requests)
            t0 = time.perf_counter()
            i = log.open(nid, len(requests))
            try:
                return fn(service, requests)
            finally:
                log.close(i)
                t1 = time.perf_counter()
                for request in requests:
                    rid = rid_of.pop(id(request), -1)
                    if rid >= 0:
                        self._batch_start[rid] = t0
                        self._batch_end[rid] = t1

        return decide_batch

    def instrument(self, patcher) -> None:
        self.log = patcher.log
        patcher.replace(
            DecisionService,
            "decide_batch",
            lambda fn: self._traced_service(fn, patcher.log),
        )
        patcher.wrap(DecisionServer, "submit", "server.submit")
