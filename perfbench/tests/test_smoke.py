"""Tiny-scale smoke runs of both workload drivers and of the entry point.

Each face runs at scale 0.01, so the whole file takes about two
minutes on a 2-core machine.
"""

import json
import shutil
import subprocess
import sys

import pytest
import workloads

BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
END_TO_END = {metric["name"] for metric in BENCHMARK["end_to_end"]}
PER_LAYER = {metric["name"] for metric in BENCHMARK["per_layer"]}
TINY = {
    "batch_all": workloads.Workload(
        "batch", batch_scale=0.01, service_scale=0.01, steps=("cold", "restart", "batch", "restart"),
    ),
    "service_cycle": workloads.Workload(
        "service", batch_scale=0.01, service_scale=0.01, steps=("batch", "cold", "restart", "batch"),
    ),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_untraced_run_reports_every_end_to_end_metric(name, tmp_path):
    outcome = workloads.run_workload(
        name, seed=0, seconds=2.0, trace=False, work=tmp_path,
        workload=TINY[name],
    )
    assert outcome.failures == []
    assert outcome.attempted > 50
    assert set(outcome.metrics) == END_TO_END
    assert all(value > 0 for value, _ in outcome.metrics.values())


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    work = tmp_path / "work"
    outcome = workloads.run_workload(
        "service_cycle", seed=0, seconds=2.0, trace=True, work=work,
        workload=TINY["service_cycle"],
    )
    assert outcome.failures == []
    assert set(outcome.metrics) == PER_LAYER
    metrics = {name: value for name, (value, _) in outcome.metrics.items()}
    assert metrics["store.restart_hit_ratio"] == 1.0
    assert metrics["supervise.restarts"] == 0
    assert metrics["trawl.sweeps"] >= 1
    assert metrics["store.bytes_written"] > 0 and metrics["store.bytes_read"] > 0
    for route in ("dossier", "view", "not_modified", "listing"):
        assert metrics[f"service.api.handle_ms.{route}"] > 0
        assert metrics[f"service.api.etag_ms.{route}"] > 0
        assert metrics[f"service.http.overhead_ms.{route}"] > 0
    traces = sorted(path.name for path in (tmp_path / "trace-service_cycle-seed0").iterdir())
    assert traces == ["batch-1.jsonl", "cold-0.jsonl", "restart-2.jsonl"]
    assert metrics["detection.sec7_s"] > 0


def test_samples_of_each_metric_are_spread_over_the_run():
    for workload in workloads.WORKLOADS.values():
        steps = workload.steps
        assert steps.index("cold") < steps.index("restart")
        for kind in ("batch", "restart"):
            positions = [index for index, step in enumerate(steps) if step == kind]
            assert len(positions) >= 2
            assert positions[-1] - positions[0] >= len(steps) // 2
