"""Serial ≡ parallel: every experiment's artifact is worker-count-invariant.

Each small-world experiment renders its full report text at ``workers=1``
and at genuinely parallel worker counts; the strings must be **identical
bytes**.  This is the acceptance gate for ``repro.parallel``: stable
shards, per-item RNG streams keyed on global index, and shard-order merges
mean the worker count can change throughput but never output.
"""

import random

import pytest

from repro.crypto.onion import onion_address_from_key
from repro.popularity.resolver import DescriptorResolver
from repro.sim.clock import parse_date
from tests.goldens.cases import (
    build_sec7_world,
    faulted_pipeline_artifacts,
    pipeline_artifacts,
    sec7_artifact,
    table2_artifact,
)

#: The acceptance criterion's worker counts: serial, small pool, oversubscribed.
WORKER_COUNTS = (1, 2, 8)


class TestResolverEquivalence:
    """Index build over the real batch API, pooled vs serial."""

    @pytest.fixture(scope="class")
    def onions(self):
        rng = random.Random(5)
        return [onion_address_from_key(rng.randbytes(140)) for _ in range(120)]

    def test_index_identical_at_every_worker_count(self, onions):
        start = parse_date("2013-01-28")
        end = parse_date("2013-02-08")
        resolvers = [
            DescriptorResolver(onions, start, end, workers=workers)
            for workers in WORKER_COUNTS
        ]
        baseline = resolvers[0]
        assert baseline.index_size > 0
        for other in resolvers[1:]:
            assert other._index == baseline._index
            assert other._validity == baseline._validity
            assert other.collisions == baseline.collisions

    def test_env_variable_is_equivalent_to_argument(self, onions, monkeypatch):
        start = parse_date("2013-01-28")
        end = parse_date("2013-02-08")
        explicit = DescriptorResolver(onions, start, end, workers=2)
        monkeypatch.setenv("REPRO_WORKERS", "2")
        from_env = DescriptorResolver(onions, start, end)
        assert from_env._index == explicit._index


class TestExperimentEquivalence:
    """fig1, fig2, table2 and sec7 report text at workers = 1, 2, 8."""

    def test_fig1_and_fig2_byte_identical(self):
        runs = [pipeline_artifacts(workers=workers) for workers in WORKER_COUNTS]
        for name in ("fig1_small", "fig2_small", "metrics_small", "store_payloads"):
            assert all(run[name] == runs[0][name] for run in runs), (
                f"{name} differs across worker counts"
            )

    def test_table2_byte_identical(self):
        runs = [table2_artifact(workers=workers) for workers in WORKER_COUNTS]
        for name in ("table2_small", "store_payload"):
            assert all(run[name] == runs[0][name] for run in runs), (
                f"table2 {name} differs across worker counts"
            )

    def test_sec7_byte_identical(self):
        world = build_sec7_world()
        texts = {
            sec7_artifact(workers=workers, world=world)
            for workers in WORKER_COUNTS
        }
        assert len(texts) == 1, "sec7 report differs across worker counts"


class TestFaultedEquivalence:
    """Determinism survives fault injection: every injected timeout, flap
    and truncation is drawn from a stream keyed on (onion, port, attempt),
    so a faulted run is just as worker-count-invariant as a clean one."""

    def test_faulted_fig1_and_fig2_byte_identical(self):
        runs = [
            faulted_pipeline_artifacts(workers=workers)
            for workers in WORKER_COUNTS
        ]
        for name in ("fig1_small", "fig2_small", "metrics_small"):
            texts = {run[name] for run in runs}
            assert len(texts) == 1, (
                f"faulted {name} differs across worker counts"
            )

    def test_faulted_run_is_repeatable(self):
        first = faulted_pipeline_artifacts(workers=2)
        second = faulted_pipeline_artifacts(workers=2)
        assert first == second, "same seed + profile must replay identically"

    def test_faults_actually_fired(self):
        clean = pipeline_artifacts(workers=1)["fig1_small"]
        faulted = faulted_pipeline_artifacts(workers=1)["fig1_small"]
        assert clean != faulted, "moderate profile should perturb the artifact"
        assert "transient recovered" in faulted
        assert "fault profile 'moderate' active" in faulted
