"""The BENCH_*.json schema, runner policy, and trajectory file round-trip."""

import pytest

from repro.bench import (
    SCHEMA_VERSION,
    BenchRecord,
    Trajectory,
    WallStats,
    append_point,
    canonical_json,
    load_trajectory,
    render_trajectory_text,
    run_workload,
    strip_timing,
    trajectory_path,
    write_trajectory,
)
from repro.errors import BenchError, BenchSchemaError
from repro.io import decode, encode
from repro.obs import Observer


def make_record(**overrides) -> BenchRecord:
    fields = dict(
        name="toy",
        hot_path="repro.bench.workloads._toy_run",
        tier="smoke",
        kernel="batch",
        label="test",
        workers=1,
        warmup=1,
        repeats=2,
        items=64,
        checksum="ab" * 32,
        sim_seconds=0,
        wall=WallStats(
            mean_seconds=0.02,
            min_seconds=0.01,
            max_seconds=0.03,
            per_repeat_seconds=(0.01, 0.03),
        ),
    )
    fields.update(overrides)
    return BenchRecord(**fields)


class TestSchemaRoundTrip:
    def test_record_round_trips(self):
        record = make_record()
        assert decode(BenchRecord, encode(record)) == record

    def test_trajectory_round_trips(self):
        trajectory = Trajectory(
            name="toy", points=[make_record(), make_record(kernel="scalar")]
        )
        decoded = decode(Trajectory, encode(trajectory))
        assert decoded.name == "toy"
        assert decoded.points == trajectory.points

    def test_missing_field_rejected(self):
        data = encode(make_record())
        del data["checksum"]
        with pytest.raises(BenchSchemaError, match="checksum"):
            decode(BenchRecord, data)

    def test_wrong_type_rejected(self):
        data = encode(make_record())
        data["items"] = "sixty-four"
        with pytest.raises(BenchSchemaError, match="items"):
            decode(BenchRecord, data)

    def test_schema_version_mismatch_rejected(self):
        data = encode(Trajectory(name="toy", points=[make_record()]))
        data["schema"] = SCHEMA_VERSION + 1
        with pytest.raises(BenchSchemaError, match="schema version"):
            decode(Trajectory, data)

    def test_empty_trajectory_has_no_last(self):
        with pytest.raises(BenchSchemaError, match="no points"):
            Trajectory(name="toy").last

    def test_strip_timing_removes_every_wall_block(self):
        data = encode(
            Trajectory(name="toy", points=[make_record(), make_record()])
        )
        cleaned = strip_timing(data)
        assert "wall" in data["points"][0]  # original untouched
        assert all("wall" not in point for point in cleaned["points"])

    def test_canonical_json_is_sorted_and_newline_terminated(self):
        text = canonical_json({"b": 1, "a": 2})
        assert text == '{\n  "a": 2,\n  "b": 1\n}\n'


class TestRunnerPolicy:
    def test_run_produces_schema_valid_record(self):
        record = run_workload("toy", "smoke", "batch", repeats=2, warmup=0)
        assert decode(BenchRecord, encode(record)) == record
        assert len(record.wall.per_repeat_seconds) == 2
        assert record.wall.min_seconds <= record.wall.mean_seconds
        assert record.wall.mean_seconds <= record.wall.max_seconds

    def test_checksum_is_kernel_independent(self):
        scalar = run_workload("toy", "smoke", "scalar", repeats=1, warmup=0)
        batch = run_workload("toy", "smoke", "batch", repeats=1, warmup=0)
        assert scalar.checksum == batch.checksum
        assert scalar.items == batch.items

    def test_observer_sees_runs(self):
        observer = Observer()
        run_workload("toy", "smoke", "batch", repeats=3, warmup=0, observer=observer)
        counter = observer.registry.counter(
            "bench_runs_total", workload="toy", kernel="batch"
        )
        assert counter.value == 3

    def test_unknown_workload_rejected(self):
        with pytest.raises(BenchError, match="unknown workload"):
            run_workload("nonsense", "smoke", "batch")

    def test_unknown_tier_rejected(self):
        with pytest.raises(BenchError, match="no tier"):
            run_workload("toy", "galactic", "batch")

    def test_unknown_kernel_rejected(self):
        with pytest.raises(BenchError, match="unknown kernel"):
            run_workload("toy", "smoke", "simd")

    def test_bad_policy_rejected(self):
        with pytest.raises(BenchError, match="repeats"):
            run_workload("toy", "smoke", "batch", repeats=0)
        with pytest.raises(BenchError, match="warmup"):
            run_workload("toy", "smoke", "batch", warmup=-1)


class TestTrajectoryFiles:
    def test_path_shape_and_safety(self, tmp_path):
        assert trajectory_path("toy", tmp_path).name == "BENCH_toy.json"
        with pytest.raises(BenchError, match="filesystem-safe"):
            trajectory_path("../evil", tmp_path)

    def test_append_creates_then_extends(self, tmp_path):
        path = trajectory_path("toy", tmp_path)
        append_point(path, make_record(label="one"))
        trajectory = append_point(path, make_record(label="two"))
        assert [point.label for point in trajectory.points] == ["one", "two"]
        assert load_trajectory(path).points == trajectory.points

    def test_append_refuses_foreign_workload(self, tmp_path):
        path = trajectory_path("toy", tmp_path)
        append_point(path, make_record())
        with pytest.raises(BenchSchemaError, match="tracks workload"):
            append_point(path, make_record(name="other"))

    def test_write_is_byte_stable(self, tmp_path):
        trajectory = Trajectory(name="toy", points=[make_record()])
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        write_trajectory(first, trajectory)
        write_trajectory(second, trajectory)
        assert first.read_bytes() == second.read_bytes()

    def test_load_missing_and_corrupt(self, tmp_path):
        with pytest.raises(BenchSchemaError, match="no trajectory"):
            load_trajectory(tmp_path / "BENCH_toy.json")
        bad = tmp_path / "BENCH_bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(BenchSchemaError, match="not valid JSON"):
            load_trajectory(bad)

    def test_text_render_is_a_view(self):
        trajectory = Trajectory(name="toy", points=[make_record(label="seed")])
        text = render_trajectory_text(trajectory)
        assert "bench trajectory: toy" in text
        assert "seed" in text
        assert render_trajectory_text(Trajectory(name="toy")).endswith("(no points)")
