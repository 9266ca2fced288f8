"""The ``BENCH_*.json`` trajectory schema.

A *trajectory* is the perf history of one named workload: an ordered list of
*points*, each one run of the workload on some machine.  Everything in a
point except the ``wall`` timing block is deterministic — workload identity,
parameters, item count, and the result checksum that anchors the kernels'
byte-equivalence — so two trajectories are diffable with ``strip_timing``
and a golden can pin the format byte-for-byte.

Records and trajectories go through the one artifact codec,
:func:`repro.io.encode` / :func:`repro.io.decode`: each carries a
``schema`` stamp but no ``kind``, and a missing field, a wrong type or an
unknown schema version raises :class:`~repro.errors.BenchSchemaError`
instead of guessing (schema drift must fail loudly, not skew a comparison
silently).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Tuple

from repro.errors import BenchSchemaError
from repro.io import Header

#: Version stamped into every record and trajectory; bump on layout change.
SCHEMA_VERSION = 1

#: Top-level record keys that hold run-to-run-varying timings.  Everything
#: else must be byte-stable for a fixed workload spec.
TIMING_FIELDS = ("wall",)


@dataclass(frozen=True)
class WallStats:
    """Wall-clock statistics over a run's timed repeats (seconds)."""

    mean_seconds: float
    min_seconds: float
    max_seconds: float
    per_repeat_seconds: Tuple[float, ...]


@dataclass(frozen=True)
class BenchRecord:
    """One trajectory point: one measured run of one workload spec."""

    codec_header = Header(schema=SCHEMA_VERSION, error=BenchSchemaError)

    name: str
    hot_path: str
    tier: str
    kernel: str
    label: str
    workers: int
    warmup: int
    repeats: int
    items: int
    checksum: str
    sim_seconds: int
    wall: WallStats


@dataclass
class Trajectory:
    """The ordered perf history stored in one ``BENCH_<name>.json``."""

    codec_header = Header(schema=SCHEMA_VERSION, error=BenchSchemaError)

    name: str
    points: List[BenchRecord] = field(default_factory=list)

    @property
    def last(self) -> BenchRecord:
        if not self.points:
            raise BenchSchemaError(f"trajectory {self.name!r} has no points")
        return self.points[-1]


def canonical_json(data: Mapping[str, Any]) -> str:
    """The one rendering every BENCH artifact uses: sorted, indented, LF-final.

    Key order, indentation, and the trailing newline are all pinned so that
    identical content is identical bytes — which is what makes trajectories
    diffable and the schema golden meaningful.
    """
    return json.dumps(data, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def strip_timing(data: Mapping[str, Any]) -> Dict[str, Any]:
    """A copy of a record/trajectory dict with the timing blocks removed.

    Applied to every point of a trajectory dict (or to a single record),
    what remains must be byte-identical run-to-run for a fixed workload —
    the contract the golden regression test pins.
    """
    cleaned = {k: v for k, v in data.items() if k not in TIMING_FIELDS}
    if "points" in cleaned and isinstance(cleaned["points"], list):
        cleaned["points"] = [
            strip_timing(point) if isinstance(point, Mapping) else point
            for point in cleaned["points"]
        ]
    return cleaned
