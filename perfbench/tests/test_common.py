"""Operation accounting, timed rounds, per-layer metrics, GC watching and
host-speed scaling."""

import gc

from perfbench.common import GcWatch, Ledger, layer_metrics, timed_rounds
from perfbench.hostspeed import REFERENCE_S, at_reference, probe


def test_timed_rounds_runs_whole_rounds_and_checks_outside_the_clock():
    ledger = Ledger()
    calls = []
    checked = []

    def op():
        calls.append("op")
        return lambda: checked.append(len(calls))

    def broken():
        raise RuntimeError("no")

    samples = timed_rounds(ledger, [("a", op), ("b", broken), ("a", op)], 0.0)
    assert calls == ["op", "op"] and checked == [1, 2]
    assert len(samples["a"]) == 2 and samples["b"] == []
    # two ops, two output checks, one failed op
    assert (ledger.attempted, ledger.failed) == (5, 1)
    assert not ledger.correct and "RuntimeError" in ledger.errors[0]


def test_ledger_counts_misses_without_marking_the_run_wrong():
    ledger = Ledger()
    ledger.count(100, 3)
    assert (ledger.attempted, ledger.failed, ledger.correct) == (100, 3, True)
    assert ledger.check("holds", True) and not ledger.check("breaks", False, "(x)")
    assert ledger.errors == ["check breaks failed (x)"]


def test_layer_metrics_are_per_round_and_default_to_zero():
    summary = {
        "server.engine": {"calls": 10.0, "amount": 40.0, "self_s": 2.0},
    }
    got = layer_metrics(
        summary,
        2,
        [
            "server.engine.calls",
            "server.engine.requests",
            "server.engine.self_s",
            "x.calls",
        ],
    )
    assert got == {
        "server.engine.calls": (5.0, "count"),
        "server.engine.requests": (20.0, "count"),
        "server.engine.self_s": (1.0, "s"),
        "x.calls": (0.0, "count"),
    }


def test_gc_watch_leaves_out_its_own_collections():
    with GcWatch() as watch:
        watch.collect()
        assert watch.gen2 == 0 and watch.pauses == []
        gc.collect()
    assert watch.gen2 == 1 and len(watch.pauses) == 1
    gc.collect()  # detached: not counted
    assert watch.gen2 == 1
    assert watch.metrics(2)["py.gc.gen2_collections"] == (0.5, "count")


def test_timings_scale_to_the_reference_host_speed():
    # a host twice as fast as the reference halves the probe and the op
    assert at_reference(0.5, REFERENCE_S / 2) == 1.0
    assert at_reference(3.0, REFERENCE_S) == 3.0
    assert probe() > 0.0
