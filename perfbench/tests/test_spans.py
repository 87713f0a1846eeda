import threading
import types

import numpy as np
import pytest

from spans import Span, Tracer, covered, mean_over, per_op_totals, self_times


def _span(sid, name, parent, start, end, op=0, thread=0, **counts):
    return Span(sid, name, op, parent, thread, start, end, counts=counts)


def test_covered_merges_overlaps_and_clips():
    assert covered([], 0.0, 1.0) == 0.0
    assert covered([(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)], 0.0, 10.0) == pytest.approx(4.0)
    assert covered([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(3.0)
    assert covered([(3.0, 3.0)], 0.0, 10.0) == 0.0


def test_self_time_on_synthetic_nested_trace():
    # op [0, 10] holds a [1, 4] with child a1 [2, 3], and b [5, 9] and c [6, 10]
    # running concurrently on two threads; b holds b1 [5, 6].
    spans = [
        _span(0, "op", None, 0.0, 10.0),
        _span(1, "a", 0, 1.0, 4.0),
        _span(2, "a1", 1, 2.0, 3.0),
        _span(3, "b", 0, 5.0, 9.0, thread=1),
        _span(4, "c", 0, 6.0, 10.0, thread=2),
        _span(5, "b1", 3, 5.0, 6.0, thread=1),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 3.0 - 5.0)  # children cover [1,4] and [5,10]
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(4.0)
    assert own[5] == pytest.approx(1.0)


def test_per_op_totals_sums_names_counts_and_takes_peak_alloc():
    spans = [
        _span(0, "op", None, 0.0, 1.0, op=7),
        _span(1, "x", 0, 0.0, 0.25, op=7, edges=3),
        _span(2, "x", 0, 0.5, 0.75, op=7, edges=4),
        _span(3, "op", None, 2.0, 3.0, op=8),
    ]
    spans[1].alloc_bytes = 2 << 20
    spans[2].alloc_bytes = 1 << 20
    rows = per_op_totals(spans)
    assert rows[7]["x_ms"] == pytest.approx(500.0)
    assert rows[7]["op_ms"] == pytest.approx(500.0)
    assert rows[7]["edges"] == 7
    assert rows[7]["x_alloc_mib"] == pytest.approx(2.0)
    assert rows[8]["op_ms"] == pytest.approx(1000.0)
    means = mean_over([rows[7], rows[8]], ["x_ms", "edges", "missing"])
    assert means == {"x_ms": pytest.approx(250.0), "edges": 3.5, "missing": 0.0}


def test_tracer_wraps_nests_counts_and_restores():
    mod = types.SimpleNamespace()

    def inner(n):
        return np.ones(n)

    def outer(n):
        return mod.inner(n).sum()

    mod.inner, mod.outer = inner, outer
    tracer = Tracer()
    tracer.install([
        (mod, "inner", "layer.inner", lambda r, a: {"rows": a[0]}, True),
        (mod, "outer", "layer.outer", None, True),
    ])
    with tracer.op_span(3, memory=True):
        assert mod.outer(1 << 20) == float(1 << 20)
    tracer.close()
    assert mod.inner is inner and mod.outer is outer

    root, out_span, in_span = tracer.spans
    assert (root.name, out_span.name, in_span.name) == ("op", "layer.outer", "layer.inner")
    assert out_span.parent == root.sid and in_span.parent == out_span.sid
    assert {s.op for s in tracer.spans} == {3}
    assert in_span.counts == {"rows": 1 << 20}
    # 8 MiB of float64 ones, seen by both nested memory spans.
    assert in_span.alloc_bytes >= 8 << 20
    assert out_span.alloc_bytes >= in_span.alloc_bytes
    assert root.alloc_bytes is None


def test_span_on_worker_thread_is_child_of_open_main_span():
    tracer = Tracer()

    def work():
        with tracer.span("reduce"):
            pass

    with tracer.op_span(0):
        with tracer.span("group") as group:
            worker = threading.Thread(target=work)
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()
    reduce_span = tracer.spans[-1]
    assert reduce_span.name == "reduce"
    assert reduce_span.parent == group.sid
    assert reduce_span.thread != group.thread
