"""Machine-checkable performance trajectories (``repro bench``).

The bench plane turns the repo's human-readable ``benchmarks/reports/*.txt``
story into a regression system: deterministic workload specs exercise the
hot-path kernels (descriptor-window derivation, SHA-1 ring placement,
consensus generation, request-time-series aggregation) plus the end-to-end
``pipeline`` chain that strings them together, a shared runner
applies one warmup/repeat policy and captures wall time plus workload
checksums, every run appends a schema-versioned point to a ``BENCH_<name>.json``
trajectory, and ``repro bench compare`` diffs two trajectories and fails on
a regression past the threshold — or on a checksum drift, which would mean a
kernel stopped being byte-equivalent to its scalar reference.

Layering: like :mod:`repro.experiments`, this package sits *above* the
measurement layers it drives; nothing below may import it.
"""

from repro.bench.compare import (
    EXIT_NOT_COMPARABLE,
    EXIT_OK,
    EXIT_REGRESSION,
    CompareResult,
    ComparedPoint,
    compare_trajectories,
    compare_within,
)
from repro.bench.runner import run_workload
from repro.bench.schema import (
    SCHEMA_VERSION,
    BenchRecord,
    Trajectory,
    WallStats,
    canonical_json,
    strip_timing,
)
from repro.bench.trajectory import (
    append_point,
    load_trajectory,
    render_trajectory_text,
    trajectory_path,
    write_trajectory,
)
from repro.bench.workloads import (
    HOT_PATH_WORKLOADS,
    WORKLOADS,
    Workload,
    WorkloadResult,
    get_workload,
)

__all__ = [
    "EXIT_NOT_COMPARABLE",
    "EXIT_OK",
    "EXIT_REGRESSION",
    "CompareResult",
    "ComparedPoint",
    "compare_trajectories",
    "compare_within",
    "run_workload",
    "SCHEMA_VERSION",
    "BenchRecord",
    "Trajectory",
    "WallStats",
    "canonical_json",
    "strip_timing",
    "append_point",
    "load_trajectory",
    "render_trajectory_text",
    "trajectory_path",
    "write_trajectory",
    "HOT_PATH_WORKLOADS",
    "WORKLOADS",
    "Workload",
    "WorkloadResult",
    "get_workload",
]
