"""Span self time, wrapper installation, and the per-layer metric set."""

import json
import pathlib

import pytest
import tracer as tracer_module
from tracer import Tracer

BENCHMARK = json.loads(
    (pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)


def test_self_time_subtracts_children():
    tracer = Tracer()
    tracer.spans = [
        (1, 0, "outer", 0.0, 10.0, None),
        (2, 1, "inner", 1.0, 4.0, None),
        (3, 1, "inner", 5.0, 6.0, None),
        (4, 3, "leaf", 5.2, 5.7, None),
    ]
    selfs = tracer.self_times()
    assert selfs["outer"] == pytest.approx(6.0)
    assert selfs["inner"] == pytest.approx(3.5)
    assert selfs["leaf"] == pytest.approx(0.5)


def test_nested_calls_record_parents():
    tracer = Tracer()
    tracer.call("outer", lambda: tracer.call("inner", lambda: 7, (), {}), (), {})
    (inner, outer) = tracer.spans
    assert inner[2] == "inner" and outer[2] == "outer"
    assert inner[1] == outer[0] and outer[1] == 0


def test_install_wraps_every_module_reference_and_uninstall_restores():
    import repro.service.api as api
    from repro.store import digest_of

    original = api.etag_of
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert api.etag_of is not original
        assert api.etag_of({"a": 1}) == f'"sha256:{digest_of({"a": 1})}"'
        assert [span[2] for span in tracer.spans] == ["service.api.etag"]
    finally:
        tracer.uninstall()
    assert api.etag_of is original


def test_missing_targets_are_skipped(monkeypatch):
    monkeypatch.setattr(
        tracer_module, "SPAN_TARGETS", (("gone", "repro.worldbuild:no_such_function"),)
    )
    monkeypatch.setattr(tracer_module, "COUNT_TARGETS", ())
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.missing == ["repro.worldbuild:no_such_function"]
    finally:
        tracer.uninstall()


def test_layer_metrics_cover_the_declared_per_layer_set():
    metrics = set(tracer_module.layer_metrics([], [], {}))
    metrics |= {"loadgen.queue_ms", "loadgen.late_ms", "trace.overhead_frac"}
    assert metrics == {metric["name"] for metric in BENCHMARK["per_layer"]}


def handle_span(span_id, path, status, start, end, request_id, size=10):
    attrs = {"path": path, "request_id": request_id, "status": status, "bytes": size}
    return (span_id, 0, "service.api.handle", start, end, attrs)


def test_traces_of_several_processes_reduce_together(tmp_path):
    cold, restart = Tracer(), Tracer()
    cold.spans = [
        handle_span(1, "/v1/epochs/0/ranking", 200, 0.0, 0.004, "0/0", size=300),
        (2, 1, "service.api.etag", 0.001, 0.002, None),
        handle_span(3, "/v1/epochs/0/ranking", 304, 1.0, 1.002, "0/1", size=0),
        (4, 0, "population.generate", 2.0, 3.0, None),
    ]
    cold.counts.update({"store.misses": 14, "store.bytes_written": 1000})
    restart.spans = [(1, 0, "population.generate", 0.0, 0.5, None)]
    restart.counts.update({"store.hits": 14, "store.bytes_read": 1000})
    for name, trace in (("cold", cold), ("restart", restart)):
        trace.write(str(tmp_path / name))
    traces = [Tracer.read(str(tmp_path / name)) for name in ("cold", "restart")]
    assert traces[0].spans == cold.spans and traces[0].counts == cold.counts

    metrics = tracer_module.layer_metrics(traces, traces[1:], {"0/0": 5.0, "0/1": 3.0})
    assert metrics["population.generate_s"] == pytest.approx(1.5)
    assert metrics["store.restart_hit_ratio"] == 1.0
    assert metrics["store.misses"] == 14 and metrics["store.hits"] == 14
    assert metrics["service.api.handle_ms.view"] == pytest.approx(4.0)
    assert metrics["service.api.etag_ms.view"] == pytest.approx(1.0)
    assert metrics["service.api.body_bytes.view"] == 300
    assert metrics["service.http.overhead_ms.view"] == pytest.approx(1.0)
    assert metrics["service.http.overhead_ms.not_modified"] == pytest.approx(1.0)
    assert metrics["service.api.handle_ms.dossier"] == 0.0
