"""Reading, writing, and rendering ``BENCH_<name>.json`` trajectories.

The JSON file at the repo root is the artifact of record; the text table is
a *view* over it (never the other way round), so tooling that diffs or
gates on perf always works from the structured document.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Union

from repro import io as repro_io
from repro.bench.schema import BenchRecord, Trajectory, canonical_json
from repro.errors import BenchError, BenchSchemaError

_NAME_RE = re.compile(r"^[A-Za-z0-9_]+$")


def trajectory_path(name: str, root: Union[str, Path] = ".") -> Path:
    """Where workload ``name``'s trajectory lives under ``root``."""
    if not _NAME_RE.match(name):
        raise BenchError(f"workload name not filesystem-safe: {name!r}")
    return Path(root) / f"BENCH_{name}.json"


def load_trajectory(path: Union[str, Path]) -> Trajectory:
    """Strictly decode the trajectory document at ``path``."""
    path = Path(path)
    if not path.exists():
        raise BenchSchemaError(f"no trajectory at {path}")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise BenchSchemaError(f"{path} is not valid JSON: {error}") from error
    return repro_io.decode(Trajectory, data)


def write_trajectory(path: Union[str, Path], trajectory: Trajectory) -> None:
    """Write ``trajectory`` canonically (stable bytes for stable content)."""
    Path(path).write_text(
        canonical_json(repro_io.encode(trajectory)), encoding="utf-8"
    )


def append_point(path: Union[str, Path], record: BenchRecord) -> Trajectory:
    """Append one run to the trajectory at ``path``, creating it if absent."""
    path = Path(path)
    if path.exists():
        trajectory = load_trajectory(path)
        if trajectory.name != record.name:
            raise BenchSchemaError(
                f"{path} tracks workload {trajectory.name!r}, "
                f"not {record.name!r}"
            )
    else:
        trajectory = Trajectory(name=record.name)
    trajectory.points.append(record)
    write_trajectory(path, trajectory)
    return trajectory


def render_trajectory_text(trajectory: Trajectory) -> str:
    """The human-readable table view of a trajectory."""
    lines = [f"== bench trajectory: {trajectory.name} =="]
    header = (
        f"{'#':>3}  {'tier':<6} {'kernel':<7} {'workers':>7} {'items':>9} "
        f"{'min(s)':>10} {'mean(s)':>10} {'checksum':<14} label"
    )
    lines.append(header)
    for index, point in enumerate(trajectory.points):
        lines.append(
            f"{index:>3}  {point.tier:<6} {point.kernel:<7} "
            f"{point.workers:>7} {point.items:>9} "
            f"{point.wall.min_seconds:>10.4f} {point.wall.mean_seconds:>10.4f} "
            f"{point.checksum[:12] + '…':<14} {point.label}"
        )
    if not trajectory.points:
        lines.append("(no points)")
    return "\n".join(lines)
