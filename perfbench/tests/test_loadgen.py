"""The lean open-loop generator, driven against a fake server and clock."""

import gc
import weakref
from concurrent.futures import Future

import numpy as np
import pytest

from perfbench.loadgen import ERROR, OK, PENDING, SHED, OpenLoop


class FakeClock:
    """Time moves only when slept through, plus a tick per reading."""

    def __init__(self, tick: float = 1e-6) -> None:
        self.now = 100.0
        self.tick = tick

    def clock(self) -> float:
        self.now += self.tick
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += max(seconds, 0.0)


class Overloaded(Exception):
    pass


class Result:
    def __init__(self, ok: bool) -> None:
        self.ok = ok


class FakeServer:
    """Answers at once; sheds and fails chosen requests; each submit
    costs ``submit_s`` of fake time; keeps no futures."""

    def __init__(self, clock, *, shed=(), fail=(), submit_s=0.0, answer=True):
        self.clock = clock
        self.shed = set(shed)
        self.fail = set(fail)
        self.submit_s = submit_s
        self.answer = answer
        self.seen = []
        self.futures = []

    def submit(self, request):
        i = len(self.seen)
        self.seen.append(request)
        self.clock.now += self.submit_s
        if i in self.shed:
            raise Overloaded()
        future = Future()
        self.futures.append(weakref.ref(future))
        if self.answer:
            future.set_result(Result(ok=i not in self.fail))
        return future


def make_loop(clock, server, offsets, **kwargs):
    n = len(offsets)
    return OpenLoop(
        server.submit,
        lambda uid, cap: (uid, cap),
        [f"k{i}" for i in range(n)],
        np.linspace(8.0, 45.0, n),
        np.asarray(offsets, dtype=float),
        overload=Overloaded,
        clock=clock.clock,
        sleep=clock.sleep,
        **kwargs,
    )


def test_requests_are_sent_on_schedule_with_fresh_objects():
    clock = FakeClock()
    server = FakeServer(clock)
    offsets = [0.001, 0.002, 0.004, 0.010]
    loop = make_loop(clock, server, offsets)
    loop.run()
    start = loop.scheduled[0] - offsets[0]
    np.testing.assert_allclose(loop.scheduled, start + np.array(offsets))
    assert np.all(loop.lateness_s() >= 0)
    assert np.all(loop.lateness_s() < 1e-4)
    assert [r[0] for r in server.seen] == ["k0", "k1", "k2", "k3"]
    assert len({id(r) for r in server.seen}) == 4
    assert loop.count(OK) == 4 and loop.count(PENDING) == 0
    assert np.all(np.isfinite(loop.latency_s()))


def test_lateness_accumulates_behind_a_slow_submit():
    clock = FakeClock()
    # Each submit takes 3 ms against a 1 ms schedule: request i is sent
    # about 2 ms * i late, and latency counts from the schedule.
    server = FakeServer(clock, submit_s=0.003)
    offsets = np.arange(1, 6) * 0.001
    loop = make_loop(clock, server, offsets)
    loop.run()
    late = loop.lateness_s()
    np.testing.assert_allclose(late, 0.002 * np.arange(5), atol=1e-4)
    assert np.all(loop.latency_s() >= late)


def test_shed_and_errors_count_as_misses():
    clock = FakeClock()
    server = FakeServer(clock, shed={1}, fail={2})
    loop = make_loop(clock, server, [0.001, 0.002, 0.003, 0.004])
    loop.run()
    assert loop.outcome.tolist() == [OK, SHED, ERROR, OK]
    latency = loop.latency_s()
    assert np.isinf(latency[1]) and np.isinf(latency[2])
    assert loop.within_pct(1.0) == pytest.approx(50.0)
    assert np.isnan(loop.done[1])


def test_keeps_only_sampled_results_and_no_futures():
    clock = FakeClock()
    server = FakeServer(clock)
    loop = make_loop(clock, server, np.arange(1, 21) * 0.001, sample=[3, 7])
    loop.run()
    assert sorted(loop.results) == [3, 7]
    gc.collect()
    assert all(ref() is None for ref in server.futures)


def test_unanswered_requests_time_out():
    clock = FakeClock()
    server = FakeServer(clock, answer=False)
    loop = make_loop(clock, server, [0.001, 0.002])
    with pytest.raises(TimeoutError):
        loop.run(timeout_s=0.05)


def test_poisson_offsets_are_seeded_and_at_the_rate():
    a = OpenLoop.poisson_offsets(np.random.default_rng(5), 2000.0, 20000)
    b = OpenLoop.poisson_offsets(np.random.default_rng(5), 2000.0, 20000)
    np.testing.assert_array_equal(a, b)
    assert np.all(np.diff(a) > 0)
    assert a[-1] / a.size == pytest.approx(1 / 2000.0, rel=0.03)
