"""Stage checkpointing: the miss→compute→put / hit→load→restore wrapper.

A :class:`Stage` names one pipeline step and the encode/decode pair that
round-trips its artifact through JSON (the :mod:`repro.io` codec, or one
supplied by the caller — the store never imports measurement code).
:meth:`ArtifactStore.run` then keys an execution on
the full :class:`~repro.store.keys.CacheKey` — configuration, code
fingerprint, upstream artifact digests, and the pre-stage RNG cursor —
and either replays the cached artifact or computes and records it.

The cursor is what makes mixed warm/cold runs byte-identical to cold
ones: stages share stateful RNG streams (the transport's circuit noise,
the fault plane's attempt counters), so each checkpoint stores the
post-stage cursor alongside the artifact and a cache hit *restores* it,
leaving the world exactly as if the stage had run.
"""

from __future__ import annotations

import functools
import json
import pathlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence, Tuple, Union

from repro import io as repro_io
from repro.errors import ReproError, StoreError
from repro.obs.scope import Observer, ensure_observer
from repro.store.cas import ContentStore, atomic_write_bytes, canonical_json_bytes, digest_of
from repro.store.keys import CacheKey, code_fingerprint
from repro.store.ledger import Ledger

PathLike = Union[str, pathlib.Path]

_PAYLOAD_SCHEMA = 1

#: Crash-point labels the store hits on every miss commit (spelled here,
#: not imported from ``repro.supervise`` — the dependency points up).
#: ``store:commit`` fires after the object lands in the CAS but before
#: the index entry names it: a death there leaves an unindexed object the
#: recompute re-puts idempotently.  ``store:ledger:append`` fires after
#: the index write but before the audit line: a death there makes the
#: next run a hit whose ledger line simply records the hit.
STORE_COMMIT_POINT = "store:commit"
LEDGER_APPEND_POINT = "store:ledger:append"


class StateCursor:
    """Capture/restore hooks for the mutable state a stage advances.

    Subclasses (defined next to the state they snapshot — e.g. the
    pipeline's transport cursor) return a JSON-compatible dict from
    :meth:`capture` and accept it back in :meth:`restore`.
    """

    def capture(self) -> Dict[str, Any]:
        raise NotImplementedError

    def restore(self, state: Dict[str, Any]) -> None:
        raise NotImplementedError


@dataclass(frozen=True)
class Stage:
    """One checkpointable pipeline step.

    ``encode``/``decode`` round-trip the artifact through plain JSON —
    for a dataclass artifact, the one :mod:`repro.io` codec
    (:meth:`of`).  Every stage keys on the same package-wide
    :func:`~repro.store.keys.code_fingerprint`.
    """

    name: str
    encode: Callable[[Any], Dict[str, Any]]
    decode: Callable[[Dict[str, Any]], Any]

    @classmethod
    def of(cls, name: str, artifact: type) -> "Stage":
        """The stage checkpointing dataclass ``artifact`` via :mod:`repro.io`."""
        decode = functools.partial(repro_io.decode, artifact)
        return cls(name=name, encode=repro_io.encode, decode=decode)


class ArtifactStore:
    """A store directory: content objects + per-stage index + run ledger.

    Layout::

        <root>/objects/<aa>/<sha256>.json   content-addressed artifacts
        <root>/index/<stage>/<key>.json     cache key → object digest
        <root>/ledger.jsonl                 append-only hit/miss audit log

    ``observer`` (assignable after construction) receives
    ``store_hits_total`` / ``store_misses_total`` / ``store_corrupt_total``
    per stage plus byte counters, so cache behaviour lands in the same
    deterministic snapshot as everything else.
    """

    def __init__(
        self,
        root: PathLike,
        observer: Optional[Observer] = None,
        run_id: Optional[str] = None,
    ) -> None:
        self.root = pathlib.Path(root)
        self.cas = ContentStore(self.root)
        self.ledger = Ledger(self.root / "ledger.jsonl")
        self.index_dir = self.root / "index"
        self.observer = ensure_observer(observer)
        #: Assignable crash hook (``repro.supervise`` threads its
        #: :class:`~repro.supervise.crashplan.CrashPoints` in here); called
        #: with a label at each commit point, may raise to simulate death.
        self.crash_point: Optional[Callable[[str], None]] = None
        #: Ledger run id.  Auto-allocated (``run-NNNNNN``) unless the caller
        #: pins one — the service plane pins ``epoch-NNNNNN`` so every
        #: incarnation of an epoch (crash restarts, warm re-runs) shares one
        #: ledgered run and retention can reason per epoch.
        self.run_id = run_id if run_id is not None else self.ledger.next_run_id()
        #: stage name → content digest of its most recent artifact (this
        #: process), which is how downstream stages chain upstream digests
        #: into their keys.
        self.last_digests: Dict[str, str] = {}

    # -- key assembly ------------------------------------------------------ #

    def _resolve_upstream(self, upstream: Sequence[str]) -> Tuple[str, ...]:
        digests = []
        for name in upstream:
            digest = self.last_digests.get(name)
            if digest is None:
                raise StoreError(
                    f"upstream stage {name!r} has not run through this store; "
                    "run stages in dependency order"
                )
            digests.append(f"{name}={digest}")
        return tuple(digests)

    def index_path(self, stage_name: str, key_digest: str) -> pathlib.Path:
        """Where the index entry for (stage, key) lives."""
        return self.index_dir / stage_name / f"{key_digest}.json"

    # -- the checkpoint protocol ------------------------------------------- #

    def run(
        self,
        stage: Stage,
        config: Dict[str, Any],
        compute: Callable[[], Any],
        cursor: Optional[StateCursor] = None,
        upstream: Sequence[str] = (),
    ) -> Any:
        """Return the stage artifact, from cache when the key matches.

        On a hit the artifact is decoded, the post-stage cursor restored,
        and the hit ledgered.  On a miss (or on detected corruption, which
        is counted and then treated as a miss) ``compute()`` runs, the
        artifact and post-cursor are stored atomically, and the miss is
        ledgered with the simulated seconds the compute took.
        """
        cursor_digest = ""
        if cursor is not None:
            cursor_digest = digest_of({"cursor": cursor.capture()})
        key = CacheKey(
            stage=stage.name,
            config=config,
            fingerprint=code_fingerprint(),
            upstream=self._resolve_upstream(upstream),
            cursor=cursor_digest,
        )
        key_digest = key.digest()

        loaded = self._load(stage, key_digest)
        if loaded is not None:
            try:
                obj_digest, payload = loaded
                artifact = stage.decode(payload["artifact"])
                if cursor is not None and payload.get("cursor_after") is not None:
                    cursor.restore(payload["cursor_after"])
            except (ReproError, ValueError, KeyError, TypeError):
                # The object decoded as JSON but no longer round-trips as
                # this stage's artifact (e.g. an io schema bump): corrupt.
                self.observer.count("store_corrupt_total", stage=stage.name)
                self.ledger.append(self.run_id, stage.name, "corrupt", key_digest)
                loaded = None
        if loaded is not None:
            size = self.cas.size_of(obj_digest)
            self.observer.count("store_hits_total", stage=stage.name)
            self.observer.count("store_bytes_read_total", amount=size)
            self.ledger.append(
                self.run_id, stage.name, "hit", key_digest, obj_digest, size=size
            )
            self.last_digests[stage.name] = obj_digest
            return artifact

        sim_before = self._sim_seconds()
        artifact = compute()
        sim_spent = max(0, self._sim_seconds() - sim_before)
        payload = {
            "schema": _PAYLOAD_SCHEMA,
            "kind": "stage-artifact",
            "stage": stage.name,
            "key": key.canonical(),
            "artifact": stage.encode(artifact),
            "cursor_after": cursor.capture() if cursor is not None else None,
        }
        obj_digest = self.cas.put(payload)
        if self.crash_point is not None:
            self.crash_point(STORE_COMMIT_POINT)
        entry = {
            "schema": _PAYLOAD_SCHEMA,
            "kind": "store-index",
            "stage": stage.name,
            "key_digest": key_digest,
            "object": obj_digest,
        }
        atomic_write_bytes(
            self.index_path(stage.name, key_digest), canonical_json_bytes(entry)
        )
        if self.crash_point is not None:
            self.crash_point(LEDGER_APPEND_POINT)
        size = self.cas.size_of(obj_digest)
        self.observer.count("store_misses_total", stage=stage.name)
        self.observer.count("store_bytes_written_total", amount=size)
        self.ledger.append(
            self.run_id,
            stage.name,
            "miss",
            key_digest,
            obj_digest,
            sim_seconds=sim_spent,
            size=size,
        )
        self.last_digests[stage.name] = obj_digest
        return artifact

    def _load(
        self, stage: Stage, key_digest: str
    ) -> Optional[Tuple[str, Dict[str, Any]]]:
        """The (object digest, payload) for a key, or None on miss/corruption.

        Corruption anywhere on the load path — unreadable index entry,
        missing or bit-rotted object, a payload that no longer matches the
        stage — is *counted and ledgered*, then reported as a miss so the
        stage recomputes and overwrites the damage.
        """
        index_path = self.index_path(stage.name, key_digest)
        if not index_path.exists():
            return None
        obj_digest = ""
        try:
            entry = json.loads(index_path.read_text(encoding="utf-8"))
            obj_digest = entry["object"]
            payload = self.cas.get(obj_digest)
            if payload.get("stage") != stage.name or "artifact" not in payload:
                raise StoreError(
                    f"object {obj_digest} is not a {stage.name!r} stage artifact"
                )
            return obj_digest, payload
        except (ReproError, ValueError, KeyError, TypeError):
            self.observer.count("store_corrupt_total", stage=stage.name)
            self.ledger.append(self.run_id, stage.name, "corrupt", key_digest)
            # Drop the damaged object: ``put`` skips writing when a file
            # already sits at the digest path, so leaving the bad bytes in
            # place would make the recompute's store a silent no-op.  A
            # digest that is not well-formed names no file to drop.
            if (
                isinstance(obj_digest, str)
                and len(obj_digest) == 64
                and set(obj_digest) <= set("0123456789abcdef")
            ):
                self.cas.delete(obj_digest)
            return None

    def _sim_seconds(self) -> int:
        """Simulated seconds visible on the observer right now."""
        observer = self.observer
        if not observer.enabled:
            return 0
        current = observer.current_span
        if current is not None:
            return current.duration
        return sum(span.duration for span in observer.spans)
