"""Span recording, self times and function patching."""

import threading

import numpy as np
import pytest

from perfbench.tracing import Patcher, SpanLog, layer_summary, self_times


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    # 0: root [0, 10]; 1, 2 overlap inside it; 3 runs past its end;
    # 4 is a grandchild inside 1; 5 is an unrelated root.
    start = np.array([0.0, 1.0, 2.0, 8.0, 1.5, 20.0])
    end = np.array([10.0, 3.0, 5.0, 12.0, 2.0, 21.0])
    parent = np.array([-1, 0, 0, 0, 1, -1])
    got = self_times(start, end, parent)
    # root: children cover [1, 5] and [8, 10] -> 6 of 10.
    np.testing.assert_allclose(got, [4.0, 1.5, 3.0, 4.0, 0.5, 1.0])


def test_self_time_of_disjoint_children_and_leaves():
    start = np.array([0.0, 1.0, 4.0, 6.0])
    end = np.array([10.0, 2.0, 5.0, 9.0])
    parent = np.array([-1, 0, 0, 0])
    np.testing.assert_allclose(self_times(start, end, parent), [5.0, 1.0, 1.0, 3.0])


def test_self_time_without_spans_or_children():
    assert self_times(np.empty(0), np.empty(0), np.empty(0, dtype=int)).size == 0
    np.testing.assert_allclose(self_times([1.0], [3.0], [-1]), [2.0])


def test_spans_nest_per_thread_and_merge_with_global_parents():
    log = SpanLog()
    outer, inner = log.name_id("outer"), log.name_id("inner")

    def work():
        i = log.open(outer)
        j = log.open(inner, amount=7)
        log.close(j)
        log.close(i)

    threads = [threading.Thread(target=work) for _ in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    work()
    spans = log.merged()
    assert spans["start"].size == 8
    names = spans["name"]
    for k in np.flatnonzero(names == inner):
        p = spans["parent"][k]
        assert names[p] == outer
        assert spans["start"][p] <= spans["start"][k]
        assert spans["end"][k] <= spans["end"][p]
    assert np.all(spans["parent"][names == outer] == -1)
    summary = layer_summary(log)
    assert summary["inner"]["calls"] == 4
    assert summary["inner"]["amount"] == 28
    assert 0 <= summary["outer"]["self_s"]


def test_add_records_explicit_root_spans_with_request_ids():
    log = SpanLog()
    nid = log.name_id("queue")
    log.add(nid, 1.0, 1.5, rid=42)
    spans = log.merged()
    assert spans["rid"].tolist() == [42]
    assert spans["parent"].tolist() == [-1]
    assert layer_summary(log)["queue"]["self_s"] == pytest.approx(0.5)


class _Target:
    def method(self, x):
        return x + 1

    @classmethod
    def build(cls, n):
        return [cls() for _ in range(n)]

    @staticmethod
    def helper(xs):
        return len(xs)


def module_function(x):
    return _Target().method(x) * 2


def test_patcher_wraps_where_looked_up_and_restores():
    import sys

    module = sys.modules[__name__]
    originals = (vars(_Target)["method"], vars(_Target)["build"], module_function)
    patcher = Patcher(SpanLog())
    patcher.wrap(_Target, "method", "t.method")
    patcher.wrap(_Target, "build", "t.build", amount=lambda cls, n: n)
    patcher.wrap(_Target, "helper", lambda xs: f"t.helper{len(xs)}")
    patcher.wrap(module, "module_function", "t.function")
    with patcher.active() as log:
        assert module.module_function(1) == 4
        assert len(_Target.build(3)) == 3
        assert _Target.helper([1, 2]) == 2
    restored = (vars(_Target)["method"], vars(_Target)["build"], module.module_function)
    assert restored == originals
    module_function(5)  # untraced after exit
    summary = layer_summary(log)
    assert summary["t.function"]["calls"] == 1
    assert summary["t.method"]["calls"] == 1
    assert summary["t.build"]["amount"] == 3
    assert summary["t.helper2"]["calls"] == 1
    spans = log.merged()
    method = log.names.index("t.method")
    function = log.names.index("t.function")
    k = int(np.flatnonzero(spans["name"] == method)[0])
    assert spans["name"][spans["parent"][k]] == function


def test_patcher_records_a_span_when_the_call_raises():
    class Boom:
        def go(self):
            raise ValueError("boom")

    patcher = Patcher(SpanLog())
    patcher.wrap(Boom, "go", "boom.go")
    with patcher.active() as log:
        with pytest.raises(ValueError):
            Boom().go()
        # The stack unwound: a new span is a root again.
        i = log.open(log.name_id("after"))
        log.close(i)
    spans = log.merged()
    assert spans["parent"].tolist() == [-1, -1]
    assert np.all(spans["end"] >= spans["start"])

