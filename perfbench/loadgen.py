"""A lean open-loop Poisson generator for the ``serve`` workload.

All per-request state lives in arrays allocated before the first send:
the schedule, the actual send times, the completion times and an
outcome code.  No future is kept: each admitted request gets one done
callback that writes its completion time and outcome into the arrays
and keeps the result itself only for a preselected sample of requests,
which the benchmark later checks against ``DecisionService.decide_batch``.
Latency counts from the *scheduled* send time, so a stalled server is
charged for the wait it imposes on later requests; shed requests and
errors count as misses of any latency limit.
"""

from __future__ import annotations

import functools
import time

import numpy as np

__all__ = ["OpenLoop", "PENDING", "OK", "ERROR", "SHED", "FAILED"]

PENDING, OK, ERROR, SHED, FAILED = 0, 1, 2, 3, 4

# Sleep through the bulk of each gap (releasing the GIL to the server's
# dispatcher) and spin only the last slice.
_SPIN_S = 50e-6


class OpenLoop:
    """One open-loop run: ``n`` requests on a pre-drawn schedule.

    Parameters
    ----------
    submit:
        ``submit(request) -> Future`` of the server under test.
    make_request:
        ``make_request(kernel_uid, cap_w)``; called once per send so
        every request is a fresh object.
    uids, caps:
        The kernel uid and power cap of each of the ``n`` requests.
    offsets_s:
        Scheduled send times relative to the run's start (ascending).
    overload:
        Exception type ``submit`` raises when it sheds a request.
    sample:
        Request indices whose results are kept for output checks.
    on_send:
        Optional ``on_send(i, request)`` hook run before each submit
        (the traced run uses it to tag requests with their index).
    """

    def __init__(
        self,
        submit,
        make_request,
        uids,
        caps: np.ndarray,
        offsets_s: np.ndarray,
        *,
        overload: type[BaseException],
        sample=(),
        on_send=None,
        clock=time.perf_counter,
        sleep=time.sleep,
    ) -> None:
        self._submit = submit
        self._make = make_request
        self.uids = list(uids)
        self.caps = np.asarray(caps, dtype=np.float64)
        self.offsets = np.asarray(offsets_s, dtype=np.float64)
        n = self.offsets.size
        if len(self.uids) != n or self.caps.size != n:
            raise ValueError("uids, caps and offsets must have equal lengths")
        self._overload = overload
        self._on_send = on_send
        self._clock = clock
        self._sleep = sleep
        self.scheduled = np.empty(n)
        self.sent = np.full(n, np.nan)
        self.done = np.full(n, np.nan)
        self.outcome = np.zeros(n, dtype=np.int8)
        self.sample = frozenset(int(i) for i in sample)
        self.results: dict[int, object] = {}
        self.generator_cpu_s = 0.0

    @staticmethod
    def poisson_offsets(rng: np.random.Generator, rate: float, n: int) -> np.ndarray:
        """Exponential inter-arrival gaps at ``rate`` per second."""
        return np.cumsum(rng.exponential(1.0 / rate, size=n))

    def _resolved(self, i: int, future) -> None:
        self.done[i] = self._clock()
        try:
            result = future.result()
        except BaseException:  # the server failed this request
            self.outcome[i] = FAILED
            return
        self.outcome[i] = OK if result.ok else ERROR
        if i in self.sample:
            self.results[i] = result

    def run(self, timeout_s: float = 30.0) -> None:
        """Send every request on schedule, then wait for all answers."""
        clock, sleep = self._clock, self._sleep
        cpu0 = time.thread_time()
        start = clock()
        np.add(self.offsets, start, out=self.scheduled)
        scheduled, sent, outcome = self.scheduled, self.sent, self.outcome
        uids, caps = self.uids, self.caps.tolist()
        for i in range(scheduled.size):
            target = scheduled[i]
            while True:
                now = clock()
                if now >= target:
                    break
                if target - now > _SPIN_S:
                    sleep(target - now - _SPIN_S / 2)
            request = self._make(uids[i], caps[i])
            if self._on_send is not None:
                self._on_send(i, request)
            sent[i] = clock()
            try:
                future = self._submit(request)
            except self._overload:
                outcome[i] = SHED
                continue
            future.add_done_callback(functools.partial(self._resolved, i))
        self.generator_cpu_s = time.thread_time() - cpu0
        deadline = clock() + timeout_s
        while np.any(outcome == PENDING):
            if clock() > deadline:
                raise TimeoutError(
                    f"{int(np.count_nonzero(outcome == PENDING))} requests "
                    f"unanswered {timeout_s} s after the last send"
                )
            sleep(0.002)

    # -- results ------------------------------------------------------------

    @property
    def n(self) -> int:
        return int(self.scheduled.size)

    def latency_s(self) -> np.ndarray:
        """Scheduled send to answer; ``inf`` for requests not answered ok."""
        lat = self.done - self.scheduled
        return np.where(self.outcome == OK, lat, np.inf)

    def lateness_s(self) -> np.ndarray:
        """How late each request was sent against its schedule."""
        return self.sent - self.scheduled

    def count(self, code: int) -> int:
        return int(np.count_nonzero(self.outcome == code))

    def within_pct(self, limit_s: float) -> float:
        """Share of requests sent that were answered ok within the limit."""
        return 100.0 * float(np.count_nonzero(self.latency_s() <= limit_s)) / self.n
