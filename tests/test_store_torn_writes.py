"""Torn-write hardening of the store: ledger tails and commit crash points.

A process killed mid-append must never corrupt the audit trail for
everyone after it: a final line with no trailing newline is an append
that *never committed* — loaded ledgers skip it (the run id stays
monotonic) and the next append truncates it before writing, so the torn
fragment can never concatenate into mid-file corruption.  The store's
commit-point hooks are also covered here: a death between CAS put and
index write, or between index write and ledger append, must leave the
directory in a state the next run heals by itself.
"""

import json

import pytest

from repro.errors import StoreError
from repro.store import (
    LEDGER_APPEND_POINT,
    STORE_COMMIT_POINT,
    ArtifactStore,
    Ledger,
    Stage,
)

VALID_LINE = (
    '{"bytes":0,"event":"miss","key":"k1","object":"o1","run":"run-000001",'
    '"sim_seconds":3,"stage":"scan"}'
)


def make_stage(name="demo"):
    return Stage(
        name=name,
        encode=lambda value: {"value": value},
        decode=lambda payload: payload["value"],
    )


class TestTornTail:
    def test_torn_tail_is_skipped_with_a_warning(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text(VALID_LINE + "\n" + '{"run": "run-0000')
        ledger = Ledger(path)
        with pytest.warns(UserWarning, match="torn line"):
            entries = list(ledger.entries())
        assert [e["run"] for e in entries] == ["run-000001"]

    def test_torn_tail_that_parses_is_still_skipped(self, tmp_path):
        # No trailing newline = the append never committed, even when the
        # fragment happens to be complete JSON: counting it would make the
        # next run id non-monotonic against the healed file.
        path = tmp_path / "ledger.jsonl"
        torn = VALID_LINE.replace("run-000001", "run-000007")
        path.write_text(VALID_LINE + "\n" + torn)
        ledger = Ledger(path)
        with pytest.warns(UserWarning, match="torn line"):
            assert len(list(ledger.entries())) == 1
        with pytest.warns(UserWarning):
            assert ledger.next_run_id() == "run-000002"

    def test_append_heals_the_torn_tail_first(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text(VALID_LINE + "\n" + '{"torn": ')
        ledger = Ledger(path)
        with pytest.warns(UserWarning, match="truncating"):
            ledger.append("run-000002", "scan", "hit", "k2")
        text = path.read_text()
        assert '{"torn"' not in text
        lines = [json.loads(line) for line in text.splitlines()]
        assert [entry["run"] for entry in lines] == ["run-000001", "run-000002"]
        # The healed file parses cleanly — no warning this time.
        assert len(list(ledger.entries())) == 2

    def test_wholly_torn_single_line_file_heals_to_empty(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text('{"never": "committed"')
        ledger = Ledger(path)
        with pytest.warns(UserWarning):
            assert list(ledger.entries()) == []
        with pytest.warns(UserWarning):
            assert ledger.next_run_id() == "run-000001"

    def test_midfile_corruption_still_raises(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text("not json at all\n" + VALID_LINE + "\n")
        with pytest.raises(StoreError):
            list(Ledger(path).entries())

    def test_newline_terminated_garbage_is_corruption_not_torn(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text(VALID_LINE + "\n" + "half a reco\n")
        with pytest.raises(StoreError):
            list(Ledger(path).entries())

    def test_clean_ledger_round_trip_is_warning_free(self, tmp_path, recwarn):
        ledger = Ledger(tmp_path / "ledger.jsonl")
        ledger.append("run-000001", "scan", "miss", "k1", sim_seconds=2)
        ledger.append("run-000001", "crawl", "hit", "k2")
        assert [e["stage"] for e in ledger.entries()] == ["scan", "crawl"]
        assert ledger.next_run_id() == "run-000002"
        assert not [w for w in recwarn if "torn" in str(w.message)]


class TestCommitCrashPoints:
    def run_once(self, root, crash_point=None, value="artifact"):
        store = ArtifactStore(root)
        store.crash_point = crash_point
        result = store.run(make_stage(), {"cfg": 1}, lambda: value)
        return store, result

    def test_labels_fire_in_commit_order(self, tmp_path):
        labels = []
        self.run_once(tmp_path / "store", crash_point=labels.append)
        assert labels == [STORE_COMMIT_POINT, LEDGER_APPEND_POINT]

    def test_death_at_store_commit_recovers_as_a_recompute(self, tmp_path):
        root = tmp_path / "store"

        class Die(Exception):
            pass

        def die_at_commit(label):
            if label == STORE_COMMIT_POINT:
                raise Die(label)

        with pytest.raises(Die):
            self.run_once(root, crash_point=die_at_commit)
        # The object landed in the CAS but no index entry names it; the
        # next incarnation misses, recomputes, and re-puts idempotently.
        store, result = self.run_once(root)
        assert result == "artifact"
        events = [e["event"] for e in store.ledger.entries()]
        assert events == ["miss"]

    def test_death_at_ledger_append_recovers_as_a_hit(self, tmp_path):
        root = tmp_path / "store"

        class Die(Exception):
            pass

        def die_at_append(label):
            if label == LEDGER_APPEND_POINT:
                raise Die(label)

        with pytest.raises(Die):
            self.run_once(root, crash_point=die_at_append)
        # The index entry committed before the death, so the restart is a
        # hit — consistent with the artifact already being trustworthy.
        compute_calls = []
        store = ArtifactStore(root)
        result = store.run(
            make_stage(),
            {"cfg": 1},
            lambda: compute_calls.append(1) or "artifact",
        )
        assert result == "artifact"
        assert compute_calls == []
        events = [e["event"] for e in store.ledger.entries()]
        assert events == ["hit"]
