"""Store maintenance: the queries behind ``repro store ls|gc|verify``.

Pure functions over an :class:`~repro.store.checkpoint.ArtifactStore`;
the CLI only formats what these return.  Everything iterates in sorted
order, so the renderings are deterministic and diffable.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from typing import Iterator, List, Tuple

from repro.errors import ReproError, StoreError
from repro.store.checkpoint import ArtifactStore
from repro.store.keys import code_fingerprint


@dataclass(frozen=True)
class IndexEntry:
    """One cache-key → object binding in the store's index."""

    stage: str
    key_digest: str
    object_digest: str
    path: pathlib.Path


def iter_index(store: ArtifactStore) -> Iterator[IndexEntry]:
    """Every index entry, ordered by (stage, key digest).

    An unreadable entry raises :class:`StoreError` — ``verify`` reports
    it; ``ls``/``gc`` must not silently skip references.
    """
    if not store.index_dir.is_dir():
        return
    for path in sorted(store.index_dir.glob("*/*.json")):
        try:
            entry = json.loads(path.read_text(encoding="utf-8"))
            yield IndexEntry(
                stage=str(entry["stage"]),
                key_digest=str(entry["key_digest"]),
                object_digest=str(entry["object"]),
                path=path,
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise StoreError(f"unreadable index entry {path}: {exc}") from exc


def ls_lines(store: ArtifactStore) -> List[str]:
    """The ``repro store ls`` rendering: runs, then indexed artifacts."""
    lines: List[str] = [f"store: {store.root}"]
    summaries = store.ledger.run_summaries()
    if summaries:
        lines.append("runs:")
        for summary in summaries:
            lines.append(
                f"  {summary['run']}  hits={summary['hits']} "
                f"misses={summary['misses']} corrupt={summary['corrupt']} "
                f"sim_seconds={summary['sim_seconds']} "
                f"bytes_written={summary['bytes_written']}"
            )
    else:
        lines.append("runs: (none ledgered)")
    entries = list(iter_index(store))
    lines.append(f"artifacts: {len(entries)}")
    for entry in entries:
        size = store.cas.size_of(entry.object_digest)
        lines.append(
            f"  {entry.stage}  key={entry.key_digest[:12]} "
            f"object={entry.object_digest[:12]} bytes={size}"
        )
    return lines


def gc(store: ArtifactStore) -> Tuple[int, int]:
    """Delete objects no index entry references; (count, bytes) removed.

    The ledger is an audit log, not a root set: a re-keyed stage (code
    change, config change) leaves its old object unreferenced, and gc
    reclaims it.
    """
    referenced = {entry.object_digest for entry in iter_index(store)}
    removed = 0
    freed = 0
    for digest in list(store.cas.iter_digests()):
        if digest in referenced:
            continue
        freed += store.cas.size_of(digest)
        if store.cas.delete(digest):
            removed += 1
    return removed, freed


def retain_recent_runs(store: ArtifactStore, keep: int) -> Tuple[int, int, int]:
    """Ledger-aware retention: keep the last ``keep`` runs' artifacts.

    The ledger orders runs by first appearance; every (stage, key) the
    kept runs touched — hit or miss — stays indexed, everything older is
    unindexed, then a normal :func:`gc` sweeps the newly unreferenced
    objects.  Returns ``(index_removed, objects_removed, bytes_freed)``.

    A long-running service ledgers each epoch as one run
    (``epoch-NNNNNN``), so ``keep`` is effectively "keep the last N
    epochs"; crash restarts and warm replays share the epoch's run id and
    never widen the root set.
    """
    if keep < 1:
        raise StoreError(f"--keep-epochs must be >= 1, got {keep}")
    summaries = store.ledger.run_summaries()
    kept_runs = {summary["run"] for summary in summaries[-keep:]}
    keep_keys = set()
    for record in store.ledger.entries():
        if record["run"] in kept_runs and record["event"] in ("hit", "miss"):
            keep_keys.add((record["stage"], record["key"]))
    index_removed = 0
    for entry in list(iter_index(store)):
        if (entry.stage, entry.key_digest) in keep_keys:
            continue
        entry.path.unlink()
        index_removed += 1
    objects_removed, bytes_freed = gc(store)
    return index_removed, objects_removed, bytes_freed


def verify(store: ArtifactStore) -> List[str]:
    """Problems found re-hashing every referenced and stored object.

    Empty means healthy: every index entry resolves to an object whose
    bytes hash back to its address, and no orphan object is bit-rotted.
    """
    problems: List[str] = []
    try:
        entries = list(iter_index(store))
    except StoreError as exc:
        return [str(exc)]
    referenced = set()
    for entry in entries:
        referenced.add(entry.object_digest)
        if not store.cas.has(entry.object_digest):
            problems.append(
                f"{entry.stage} key={entry.key_digest[:12]}: "
                f"missing object {entry.object_digest}"
            )
        elif not store.cas.verify(entry.object_digest):
            problems.append(
                f"{entry.stage} key={entry.key_digest[:12]}: "
                f"corrupt object {entry.object_digest}"
            )
    for digest in store.cas.iter_digests():
        if digest not in referenced and not store.cas.verify(digest):
            problems.append(f"orphan object {digest} is corrupt")
    return problems


def fingerprint_drift(store: ArtifactStore) -> List[str]:
    """Index entries whose artifact was computed under different code.

    Drift is not corruption: the artifact is intact but its recorded
    :func:`~repro.store.keys.code_fingerprint` no longer matches the
    current source, so the next run recomputes it.  Unreadable entries
    and objects are :func:`verify`'s to report, not drift.
    """
    current = code_fingerprint()
    lines: List[str] = []
    try:
        entries = list(iter_index(store))
    except StoreError:
        return lines
    for entry in entries:
        try:
            recorded = str(store.cas.get(entry.object_digest)["key"]["fingerprint"])
        except (ReproError, ValueError, KeyError, TypeError):
            continue
        if recorded != current:
            lines.append(
                f"drift {entry.stage} key={entry.key_digest[:12]}: artifact "
                f"fingerprint {recorded[:12]} != current {current[:12]}; it "
                "will recompute on the next run"
            )
    return lines
