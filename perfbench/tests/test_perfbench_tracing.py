"""Self-tests of the benchmark's tracing and statistics helpers.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
They need no trained model and finish in about a second.
"""

from __future__ import annotations

import os
import sys
import threading
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import tracing  # noqa: E402


def _span(span_id, parent, start, end, name="x"):
    return {"id": span_id, "parent": parent, "name": name, "start": start, "end": end}


def test_self_time_subtracts_nested_children():
    spans = [
        _span("root", None, 0, 100),
        _span("a", "root", 10, 30),
        _span("b", "root", 40, 70),
        _span("a1", "a", 12, 20),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == {"root": 50, "a": 12, "b": 30, "a1": 8}
    assert sum(selfs.values()) == 100


def test_self_time_counts_overlapping_children_from_two_threads_once():
    # Two client threads run children of one root concurrently: their
    # intervals overlap, and a child running past its parent is clipped.
    spans = [
        _span("root", None, 0, 100),
        _span("t1", "root", 10, 60),
        _span("t2", "root", 40, 90),
        _span("late", "root", 95, 120),
    ]
    assert tracing.self_times(spans)["root"] == 100 - (80 + 5)
    assert tracing.nesting_violations(spans) == 1


def test_union_length():
    assert tracing.union_length([]) == 0
    assert tracing.union_length([(0, 10), (5, 15), (20, 25)]) == 20
    assert tracing.union_length([(0, 10), (2, 3)]) == 10


def test_tracer_links_cross_thread_children_to_an_explicit_parent():
    tracer = tracing.Tracer()
    root = tracer.open("served.run")

    def client():
        with tracer.span("client.job", parent=root["id"]):
            with tracer.span("http.request"):
                time.sleep(0.005)

    threads = [threading.Thread(target=client) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    tracer.close(root)

    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span["name"], []).append(span)
    assert {s["parent"] for s in by_name["client.job"]} == {root["id"]}
    jobs = {s["id"] for s in by_name["client.job"]}
    assert {s["parent"] for s in by_name["http.request"]} == jobs
    assert tracing.nesting_violations(tracer.spans) == 0
    selfs = tracing.self_times(tracer.spans)
    assert 0 <= selfs[root["id"]] <= root["end"] - root["start"]


@pytest.mark.parametrize(
    "count, fraction, beyond",
    [(200, 0.95, 10), (199, 0.95, 9), (100, 0.9, 10), (99, 0.9, 9), (20, 0.5, 10), (1, 0.5, 0)],
)
def test_samples_beyond_percentile(count, fraction, beyond):
    assert tracing.samples_beyond(count, fraction) == beyond


def test_percentile_is_nearest_rank():
    values = list(range(1, 201))
    assert tracing.percentile(values, 0.5) == 100
    assert tracing.percentile(values, 0.95) == 190
    assert len([v for v in values if v > tracing.percentile(values, 0.95)]) == 10


def test_untraced_imports_install_no_wrapper():
    import passes  # noqa: F401  (the pass runner imports tracing lazily)
    import repro.simulation  # noqa: F401
    import repro.runtime.jobs  # noqa: F401
    import run  # noqa: F401

    assert tracing.installed_wrappers() == []


def test_install_wraps_every_hook_and_uninstall_restores():
    from repro.nn.layers import BatchNorm

    original = BatchNorm.__dict__["forward"]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        wrapped = tracing.installed_wrappers()
        assert len(wrapped) == len(tracing.HOOKS) + len(tracing.JOB_EVENTS)
        assert BatchNorm.__dict__["forward"] is not original
    finally:
        tracing.uninstall()
    assert tracing.installed_wrappers() == []
    assert BatchNorm.__dict__["forward"] is original


def test_layer_metrics_on_a_synthetic_trace():
    spans = [
        _span("p", None, 0, 1_000_000_000, "service.wait"),
        _span("k", "p", 0, 400_000_000, "core.kernel"),
        _span("q", "p", 500_000_000, 600_000_000, "quant.output_real"),
    ]
    spans[1].update(macs=10, bytes=20)
    metrics = tracing.layer_metrics(spans, [], passes=2)
    assert metrics["service.wait_s"] == pytest.approx(0.25)
    assert metrics["core.kernel_s"] == pytest.approx(0.2)
    assert metrics["core.kernel_calls"] == 0.5
    assert metrics["core.macs"] == 5
    assert metrics["trace.nesting_violations"] == 0
