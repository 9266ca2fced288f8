"""Tests for repro.store checkpointing, the ledger and store admin."""

import json

import pytest

from repro.errors import StoreError
from repro.obs import Observer
from repro.store import ArtifactStore, Stage, StateCursor, open_store
from repro.cli import main as cli_main
from repro.store.admin import fingerprint_drift, gc, iter_index, ls_lines, verify
from repro.store.config import STORE_ENV, resolve_store_dir
from repro.store.ledger import Ledger


def make_stage(name="double"):
    """A stage whose artifact is a plain dict (identity encode/decode)."""
    return Stage(
        name=name,
        encode=lambda artifact: dict(artifact),
        decode=lambda payload: dict(payload),
    )


class CountingCompute:
    def __init__(self, value):
        self.value = value
        self.calls = 0

    def __call__(self):
        self.calls += 1
        return {"value": self.value}


class DictCursor(StateCursor):
    """A fake mutable stream: one counter the stage advances."""

    def __init__(self):
        self.state = {"draws": 0}

    def capture(self):
        return dict(self.state)

    def restore(self, state):
        self.state = dict(state)


class TestCheckpoint:
    def test_miss_then_hit(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        compute = CountingCompute(7)
        first = store.run(make_stage(), {"seed": 1}, compute)
        second = store.run(make_stage(), {"seed": 1}, compute)
        assert first == second == {"value": 7}
        assert compute.calls == 1
        events = [e["event"] for e in store.ledger.entries()]
        assert events == ["miss", "hit"]

    def test_config_change_recomputes(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        compute = CountingCompute(7)
        store.run(make_stage(), {"seed": 1}, compute)
        store.run(make_stage(), {"seed": 2}, compute)
        assert compute.calls == 2

    def test_hit_survives_process_restart(self, tmp_path):
        cold = ArtifactStore(tmp_path / "s")
        cold.run(make_stage(), {"seed": 1}, CountingCompute(7))
        warm = ArtifactStore(tmp_path / "s")
        compute = CountingCompute(99)
        assert warm.run(make_stage(), {"seed": 1}, compute) == {"value": 7}
        assert compute.calls == 0
        assert warm.run_id != cold.run_id

    def test_counters_land_on_the_observer(self, tmp_path):
        observer = Observer()
        store = ArtifactStore(tmp_path / "s", observer=observer)
        compute = CountingCompute(7)
        store.run(make_stage(), {"seed": 1}, compute)
        store.run(make_stage(), {"seed": 1}, compute)
        registry = observer.registry
        assert registry.counter("store_misses_total", stage="double").value == 1
        assert registry.counter("store_hits_total", stage="double").value == 1
        assert registry.counter("store_bytes_written_total").value > 0

    def test_cursor_restored_on_hit(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        cursor = DictCursor()

        def compute():
            cursor.state["draws"] += 5
            return {"value": 1}

        store.run(make_stage(), {"seed": 1}, compute, cursor=cursor)
        assert cursor.state == {"draws": 5}

        # A replay must leave the stream exactly where the compute did.
        replay_cursor = DictCursor()
        replay = ArtifactStore(tmp_path / "s")
        replay.run(
            make_stage(), {"seed": 1}, compute, cursor=replay_cursor
        )
        assert replay_cursor.state == {"draws": 5}

    def test_different_start_cursor_is_a_different_key(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        cursor = DictCursor()
        compute = CountingCompute(1)
        store.run(make_stage(), {"seed": 1}, compute, cursor=cursor)
        cursor.state["draws"] = 42  # the stream moved between stages
        store.run(make_stage(), {"seed": 1}, compute, cursor=cursor)
        assert compute.calls == 2

    def test_upstream_chains_content_digests(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        downstream = CountingCompute(2)
        store.run(make_stage("a"), {"seed": 1}, CountingCompute(1))
        store.run(
            make_stage("b"), {"seed": 1}, downstream, upstream=("a",)
        )
        assert downstream.calls == 1

        # Same downstream config, different upstream artifact → recompute.
        other = ArtifactStore(tmp_path / "s")
        other_downstream = CountingCompute(2)
        other.run(make_stage("a"), {"seed": 9}, CountingCompute(5))
        other.run(
            make_stage("b"), {"seed": 1}, other_downstream, upstream=("a",)
        )
        assert other_downstream.calls == 1  # a miss, not a stale hit

    def test_upstream_must_have_run_first(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        with pytest.raises(StoreError, match="dependency order"):
            store.run(
                make_stage("b"), {}, CountingCompute(1), upstream=("a",)
            )


class TestCorruption:
    def _corrupt_only_object(self, store):
        digest = next(store.cas.iter_digests())
        path = store.cas.path_of(digest)
        path.write_bytes(path.read_bytes()[:-6])
        return digest

    def test_corrupt_object_recomputes_and_heals(self, tmp_path):
        observer = Observer()
        cold = ArtifactStore(tmp_path / "s")
        cold.run(make_stage(), {"seed": 1}, CountingCompute(7))
        self._corrupt_only_object(cold)

        warm = ArtifactStore(tmp_path / "s", observer=observer)
        compute = CountingCompute(7)
        assert warm.run(make_stage(), {"seed": 1}, compute) == {"value": 7}
        assert compute.calls == 1
        assert (
            observer.registry.counter("store_corrupt_total", stage="double").value
            == 1
        )
        events = [e["event"] for e in warm.ledger.entries()]
        assert events == ["miss", "corrupt", "miss"]

        # The recompute overwrote the damage: a third run hits cleanly.
        healed = ArtifactStore(tmp_path / "s")
        compute_again = CountingCompute(7)
        healed.run(make_stage(), {"seed": 1}, compute_again)
        assert compute_again.calls == 0

    def test_undecodable_artifact_counts_as_corrupt(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        store.run(make_stage(), {"seed": 1}, CountingCompute(7))

        exploding = Stage(
            name="double",
            encode=lambda artifact: dict(artifact),
            decode=lambda payload: (_ for _ in ()).throw(KeyError("gone")),
        )
        compute = CountingCompute(7)
        assert store.run(exploding, {"seed": 1}, compute) == {"value": 7}
        assert compute.calls == 1
        assert "corrupt" in [e["event"] for e in store.ledger.entries()]


class TestLedger:
    def test_run_ids_are_deterministic(self, tmp_path):
        ledger = Ledger(tmp_path / "ledger.jsonl")
        assert ledger.next_run_id() == "run-000001"
        ledger.append("run-000001", "scan", "miss", "k")
        assert ledger.next_run_id() == "run-000002"

    def test_unknown_event_rejected(self, tmp_path):
        with pytest.raises(StoreError, match="unknown ledger event"):
            Ledger(tmp_path / "l.jsonl").append("run-000001", "scan", "boom", "k")

    def test_truncated_final_line_tolerated(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = Ledger(path)
        ledger.append("run-000001", "scan", "miss", "k")
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"run": "run-0000')  # writer killed mid-append
        assert len(list(ledger.entries())) == 1
        assert ledger.next_run_id() == "run-000002"

    def test_corrupt_interior_line_raises(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = Ledger(path)
        ledger.append("run-000001", "scan", "miss", "k")
        with path.open("a", encoding="utf-8") as handle:
            handle.write("garbage\n")
        ledger.append("run-000002", "scan", "hit", "k")
        with pytest.raises(StoreError, match="corrupt"):
            list(ledger.entries())

    def test_run_summaries_aggregate(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        store.run(make_stage("a"), {}, CountingCompute(1))
        store.run(make_stage("b"), {}, CountingCompute(2))
        store.run(make_stage("a"), {}, CountingCompute(1))
        (summary,) = store.ledger.run_summaries()
        assert summary["hits"] == 1
        assert summary["misses"] == 2
        assert summary["stages"] == ["a", "b"]
        assert summary["bytes_written"] > 0


class TestAdmin:
    def _seeded_store(self, tmp_path):
        store = ArtifactStore(tmp_path / "s")
        store.run(make_stage("a"), {"seed": 1}, CountingCompute(1))
        store.run(make_stage("b"), {"seed": 1}, CountingCompute(2))
        return store

    def test_ls_renders_runs_and_artifacts(self, tmp_path):
        store = self._seeded_store(tmp_path)
        text = "\n".join(ls_lines(store))
        assert "run-000001" in text
        assert "misses=2" in text
        assert "artifacts: 2" in text

    def test_gc_reclaims_unreferenced_objects(self, tmp_path):
        store = self._seeded_store(tmp_path)
        # Re-key stage a: its old object loses its only index reference.
        store.run(make_stage("a"), {"seed": 2}, CountingCompute(3))
        entry = next(e for e in iter_index(store) if e.stage == "a")
        entry.path.unlink()
        removed, freed = gc(store)
        assert removed >= 1
        assert freed > 0
        assert verify(store) == []

    def test_gc_keeps_referenced_objects(self, tmp_path):
        store = self._seeded_store(tmp_path)
        assert gc(store) == (0, 0)
        assert len(list(store.cas.iter_digests())) == 2

    def test_verify_reports_corruption(self, tmp_path):
        store = self._seeded_store(tmp_path)
        assert verify(store) == []
        digest = next(store.cas.iter_digests())
        path = store.cas.path_of(digest)
        path.write_bytes(b'{"tampered": true}')
        problems = verify(store)
        assert len(problems) == 1
        assert "corrupt object" in problems[0]

    def test_verify_reports_missing_objects(self, tmp_path):
        store = self._seeded_store(tmp_path)
        digest = next(store.cas.iter_digests())
        store.cas.delete(digest)
        problems = verify(store)
        assert any("missing object" in problem for problem in problems)

    def test_index_entries_are_canonical_json(self, tmp_path):
        store = self._seeded_store(tmp_path)
        for entry in iter_index(store):
            parsed = json.loads(entry.path.read_text(encoding="utf-8"))
            assert parsed["kind"] == "store-index"
            assert parsed["object"] == entry.object_digest


class TestStoreDrift:
    """``repro store verify`` reports artifacts computed under other code."""

    def test_clean_store_reports_no_drift(self, tmp_path, capsys):
        root = tmp_path / "s"
        store = ArtifactStore(root)
        store.run(make_stage("a"), {"seed": 1}, CountingCompute(1))
        assert fingerprint_drift(store) == []
        assert cli_main(["store", "verify", "--store", str(root)]) == 0
        assert "[verify: 0 problem(s), 0 drifted]" in capsys.readouterr().out

    def test_stale_fingerprint_reports_drift(self, tmp_path, capsys, monkeypatch):
        root = tmp_path / "s"
        store = ArtifactStore(root)
        store.run(make_stage("a"), {"seed": 1}, CountingCompute(1))
        # Stage b's artifact is recorded under an older code state.
        monkeypatch.setattr(
            "repro.store.checkpoint.code_fingerprint", lambda: "0" * 64
        )
        store.run(make_stage("b"), {"seed": 1}, CountingCompute(2))
        monkeypatch.undo()
        (line,) = fingerprint_drift(store)
        assert line.startswith("drift b key=")
        assert "000000000000" in line
        assert cli_main(["store", "verify", "--store", str(root)]) == 0
        out = capsys.readouterr().out
        assert out.count("drift b key=") == 1
        assert "[verify: 0 problem(s), 1 drifted]" in out


class TestConfig:
    def test_explicit_wins_over_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv(STORE_ENV, str(tmp_path / "env"))
        assert resolve_store_dir(str(tmp_path / "cli")) == str(tmp_path / "cli")

    def test_environment_is_the_ambient_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv(STORE_ENV, str(tmp_path / "env"))
        store = open_store(None)
        assert store is not None
        assert store.root == tmp_path / "env"

    def test_unset_means_off(self, monkeypatch):
        monkeypatch.delenv(STORE_ENV, raising=False)
        assert resolve_store_dir(None) is None
        assert open_store(None) is None

    def test_blank_environment_means_off(self, monkeypatch):
        monkeypatch.setenv(STORE_ENV, "   ")
        assert open_store(None) is None
