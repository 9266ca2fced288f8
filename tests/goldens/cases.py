"""Small-world experiment artifacts used by goldens and equivalence tests.

Every builder takes a ``workers`` argument and must return **byte-identical
text for any value of it** — that is the contract ``repro.parallel.pmap``
provides and the one thing these cases exist to pin down.  The golden files
in this directory are the ``workers=1`` renderings; ``regenerate.py``
rewrites them after an intentional behaviour change.

Keep the worlds tiny: these run inside tier-1.
"""

from __future__ import annotations

from typing import Optional

# Small-world parameters shared by the goldens and the serial≡parallel
# equivalence tests, so the two suites cross-check the same artifacts.
PIPELINE_SEED = 11
PIPELINE_SCALE = 0.02
#: Named profile pinned by the faulted golden/equivalence cases.
FAULTED_PROFILE = "moderate"
TABLE2_SEED = 2
TABLE2_SCALE = 0.02
TABLE2_SWEEP_HOURS = 4
SEC7_SEED = 6
SEC7_SCALE = 0.1


def pipeline_artifacts(
    workers: Optional[int] = None, fault_profile: str = "none"
) -> dict:
    """Fig 1 and Fig 2 artifact text off one shared scan/crawl/classify run.

    The profile is pinned explicitly (never read from ``REPRO_FAULTS``) so
    the goldens mean the same bytes no matter what environment CI exports.
    """
    from repro import io as repro_io
    from repro.experiments import run_fig1, run_fig2
    from repro.experiments.pipeline import MeasurementPipeline
    from repro.obs import render_text
    from repro.store import digest_of

    pipeline = MeasurementPipeline(
        seed=PIPELINE_SEED,
        scale=PIPELINE_SCALE,
        workers=workers,
        fault_profile=fault_profile,
    )
    fig1 = run_fig1(pipeline=pipeline)
    fig2 = run_fig2(pipeline=pipeline)
    return {
        "fig1_small": fig1.report.format() + "\n\n" + fig1.format_figure(),
        "fig2_small": fig2.report.format() + "\n\n" + fig2.format_figure(),
        # The full observability snapshot of the shared run: counters,
        # gauges, histograms, spans and events, rendered canonically.
        # Pinning it as a golden makes the snapshot itself subject to the
        # byte-identical-at-any-worker-count contract.
        "metrics_small": render_text(pipeline.observer),
        # Content addresses of the four checkpointed stage artifacts: the
        # store's encoding of each, pinned byte-for-byte through its digest.
        "store_payloads": {
            "scan": digest_of(repro_io.encode(pipeline.scan())),
            "certificates": digest_of(repro_io.encode(pipeline.certificates())),
            "crawl": digest_of(repro_io.encode(pipeline.crawl())),
            "classify": digest_of(repro_io.encode(pipeline.classify())),
        },
    }


def faulted_pipeline_artifacts(workers: Optional[int] = None) -> dict:
    """The same artifacts with the ``moderate`` fault profile and retries on."""
    return pipeline_artifacts(workers=workers, fault_profile=FAULTED_PROFILE)


def table2_artifact(workers: Optional[int] = None) -> dict:
    """Table II report + ranking text for the tiny sweep, plus the digest
    of the store payload the same run would checkpoint."""
    from repro import io as repro_io
    from repro.experiments import run_table2
    from repro.store import digest_of

    result = run_table2(
        seed=TABLE2_SEED,
        scale=TABLE2_SCALE,
        sweep_hours=TABLE2_SWEEP_HOURS,
        rotation_interval_hours=1,
        relays_per_ip=16,
        workers=workers,
    )
    return {
        "table2_small": (
            result.report.format() + "\n\n" + result.ranking.format_table(limit=20)
        ),
        "store_payload": digest_of(repro_io.encode(result)),
    }


def build_sec7_world():
    """The Silk Road consensus history; independent of the worker count."""
    from repro.detection import SilkroadStudy, SilkroadStudyConfig

    return SilkroadStudy(
        SilkroadStudyConfig(seed=SEC7_SEED, scale=SEC7_SCALE)
    ).build()


def sec7_artifact(workers: Optional[int] = None, world=None) -> str:
    """Section VII report text; pass ``world`` to amortise the build."""
    from repro.experiments import run_sec7

    if world is None:
        world = build_sec7_world()
    return run_sec7(world=world, workers=workers).report.format()


#: name -> zero-argument builder for each pinned golden file.
def _golden_fig1() -> str:
    return pipeline_artifacts(workers=1)["fig1_small"]


def _golden_fig1_faulted() -> str:
    return faulted_pipeline_artifacts(workers=1)["fig1_small"]


def _golden_table2() -> str:
    return table2_artifact(workers=1)["table2_small"]


def _golden_metrics() -> str:
    return pipeline_artifacts(workers=1)["metrics_small"]


def _golden_store_payloads() -> str:
    """``stage digest`` lines for every checkpointed small-world artifact."""
    digests = dict(pipeline_artifacts(workers=1)["store_payloads"])
    digests["table2"] = table2_artifact(workers=1)["store_payload"]
    return "\n".join(f"{stage} {digest}" for stage, digest in digests.items())


def _golden_bench_schema() -> str:
    """The BENCH_*.json document shape, timing fields stripped.

    Runs the ``toy`` workload through the real runner for both kernels and
    pins the canonical JSON with ``strip_timing`` applied: everything left
    (field names, ordering, schema stamp, checksum, parameters) must be
    byte-identical on every machine, which is the contract that makes
    committed trajectories diffable.
    """
    from repro import io as repro_io
    from repro.bench import Trajectory, canonical_json, run_workload, strip_timing

    trajectory = Trajectory(name="toy")
    for kernel in ("scalar", "batch"):
        trajectory.points.append(
            run_workload("toy", "smoke", kernel, repeats=1, warmup=0, label="golden")
        )
    return canonical_json(strip_timing(repro_io.encode(trajectory))).rstrip("\n")


GOLDEN_CASES = {
    "bench_toy_smoke": _golden_bench_schema,
    "fig1_small": _golden_fig1,
    "fig1_small_faulted": _golden_fig1_faulted,
    "metrics_small": _golden_metrics,
    "store_payloads_small": _golden_store_payloads,
    "table2_small": _golden_table2,
}
