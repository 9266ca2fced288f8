"""Ledger-aware retention: ``repro store gc --keep-epochs N``."""

import pytest

from repro.cli import main as cli_main
from repro.errors import StoreError
from repro.store import ArtifactStore, Stage
from repro.store.admin import iter_index, retain_recent_runs


def make_stage(name):
    return Stage(
        name=name,
        encode=lambda value: {"value": value},
        decode=lambda data: data["value"],
    )


def seed_epoch_store(root, epochs=3):
    """A store where each epoch ledgers one run under a pinned id.

    Every epoch misses its own ``sweep`` artifact (epoch-keyed), while
    the epoch-independent ``world`` artifact misses once and hits in
    every later epoch — the shape a real service store has.
    """
    for epoch in range(epochs):
        store = ArtifactStore(root, run_id=f"epoch-{epoch:06d}")
        store.run(make_stage("world"), {"shared": True}, lambda: {"relays": 9})
        store.run(
            make_stage("sweep"),
            {"epoch": epoch},
            lambda: {"observed": [epoch] * 3},
        )


def index_keys(root):
    store = ArtifactStore(root)
    return {(entry.stage, entry.key_digest) for entry in iter_index(store)}


class TestRetainRecentRuns:
    def test_keeps_only_the_newest_runs_artifacts(self, tmp_path):
        root = tmp_path / "store"
        seed_epoch_store(str(root), epochs=3)
        before = index_keys(str(root))
        assert len(before) == 4  # one shared world + three epoch sweeps

        store = ArtifactStore(str(root))
        index_removed, objects_removed, bytes_freed = retain_recent_runs(
            store, keep=1
        )

        assert index_removed == 2  # the two older epochs' sweeps
        assert objects_removed == 2
        assert bytes_freed > 0
        after = index_keys(str(root))
        assert len(after) == 2
        assert {stage for stage, _ in after} == {"world", "sweep"}

    def test_kept_runs_hits_protect_shared_artifacts(self, tmp_path):
        root = tmp_path / "store"
        seed_epoch_store(str(root), epochs=3)
        store = ArtifactStore(str(root))
        retain_recent_runs(store, keep=1)

        # The kept epoch only ever *hit* the shared world artifact, yet
        # retention must keep it: a warm epoch still depends on it.
        warm = ArtifactStore(str(root), run_id="epoch-000003")
        calls = []
        warm.run(
            make_stage("world"),
            {"shared": True},
            lambda: calls.append("miss") or {"relays": 9},
        )
        assert calls == []  # still a hit, nothing recomputed

    def test_keep_wider_than_history_removes_nothing(self, tmp_path):
        root = tmp_path / "store"
        seed_epoch_store(str(root), epochs=2)
        store = ArtifactStore(str(root))
        index_removed, objects_removed, _freed = retain_recent_runs(
            store, keep=10
        )
        assert index_removed == 0
        assert objects_removed == 0

    def test_keep_below_one_is_a_store_error(self, tmp_path):
        root = tmp_path / "store"
        seed_epoch_store(str(root), epochs=1)
        with pytest.raises(StoreError, match="--keep-epochs must be >= 1"):
            retain_recent_runs(ArtifactStore(str(root)), keep=0)


class TestCli:
    def test_gc_keep_epochs_prints_the_retention_summary(
        self, tmp_path, capsys
    ):
        root = tmp_path / "store"
        seed_epoch_store(str(root), epochs=3)

        exit_code = cli_main(
            ["store", "gc", "--keep-epochs", "2", "--store", str(root)]
        )

        assert exit_code == 0
        out = capsys.readouterr().out
        assert "retired 1 index entr(ies)" in out
        assert "kept newest 2 run(s)" in out
        assert len(index_keys(str(root))) == 3

    def test_gc_keep_epochs_rejects_zero_with_exit_2(self, tmp_path, capsys):
        root = tmp_path / "store"
        seed_epoch_store(str(root), epochs=1)

        exit_code = cli_main(
            ["store", "gc", "--keep-epochs", "0", "--store", str(root)]
        )

        assert exit_code == 2
        assert "--keep-epochs must be >= 1" in capsys.readouterr().err

    def test_plain_gc_is_unchanged_by_the_new_flag(self, tmp_path, capsys):
        root = tmp_path / "store"
        seed_epoch_store(str(root), epochs=2)

        exit_code = cli_main(["store", "gc", "--store", str(root)])

        assert exit_code == 0
        assert "[gc: removed 0 object(s), freed 0 bytes]" in (
            capsys.readouterr().out
        )
