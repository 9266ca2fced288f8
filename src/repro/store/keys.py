"""Cache-key derivation: configuration + code → a stable digest.

A :class:`CacheKey` answers "may this cached artifact stand in for a
recompute?".  It must change whenever anything that could change the
artifact changes — the seed, any population/scan/fault/worker setting,
the upstream artifacts feeding the stage, the RNG cursor the stage starts
from, or the code implementing it — and must *not* change under
irrelevant permutations such as dict insertion order.

Code is folded in as one fingerprint of the whole package: the SHA-256
of the source bytes of every module outside the exempt infrastructure
layers.  Editing any of those modules silently invalidates every cached
artifact, which is the only safe default for a cache that feeds
published numbers.
"""

from __future__ import annotations

import enum
import hashlib
import pathlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.errors import StoreError
from repro.store.cas import canonical_json_bytes


def canonicalize(value: Any) -> Any:
    """Reduce ``value`` to plain JSON types with deterministic ordering.

    Mappings are key-sorted (insertion order never matters), tuples become
    lists, sets/frozensets become sorted lists, and enums collapse to
    their ``value``.  Anything else that is not a JSON scalar is rejected
    — a key must never depend on an object's ``repr`` or identity.
    """
    if isinstance(value, enum.Enum):
        return canonicalize(value.value)
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float, str)):
        return value
    if isinstance(value, Mapping):
        return {str(key): canonicalize(value[key]) for key in sorted(value, key=str)}
    if isinstance(value, (list, tuple)):
        return [canonicalize(item) for item in value]
    if isinstance(value, (set, frozenset)):
        items = [canonicalize(item) for item in value]
        return sorted(items, key=lambda item: canonical_json_bytes({"k": item}))
    raise StoreError(
        f"cache-key field of type {type(value).__name__} is not canonicalizable"
    )


#: Second-level subpackages (and top-level modules) of ``repro`` left out
#: of the code fingerprint: they carry artifacts and telemetry but never
#: shape artifact *content*, so hashing them would churn every cache key
#: on infra-only changes.  ``supervise`` qualifies by the crashtest
#: invariant itself: a crashed-and-resumed run is byte-identical to a
#: clean one, so supervision can never shape bytes.
EXEMPT_LAYERS = frozenset({"cli", "devtools", "errors", "obs", "store", "supervise"})

#: The ``repro`` package directory the fingerprint hashes.
_PACKAGE_ROOT = pathlib.Path(__file__).resolve().parent.parent


@lru_cache(maxsize=None)
def code_fingerprint(root: Optional[pathlib.Path] = None) -> str:
    """SHA-256 over the source of every artifact-shaping ``repro`` module.

    Hashes each ``*.py`` file under the package directory in sorted
    relative-path order, path and bytes ``\x00``-separated, skipping the
    :data:`EXEMPT_LAYERS`.  Every stage shares this one fingerprint, so
    coverage holds by construction: editing any non-exempt module
    invalidates every cached artifact, the safe direction to err for a
    cache that feeds published numbers.  Only files are read — nothing is
    imported.  ``root`` exists for tests that fingerprint a copy of the
    package.  Cached per process.
    """
    package = _PACKAGE_ROOT if root is None else pathlib.Path(root)
    hasher = hashlib.sha256()
    for relative in sorted(
        path.relative_to(package).as_posix() for path in package.rglob("*.py")
    ):
        if relative.split("/")[0].removesuffix(".py") in EXEMPT_LAYERS:
            continue
        hasher.update(relative.encode("utf-8"))
        hasher.update(b"\x00")
        hasher.update((package / relative).read_bytes())
        hasher.update(b"\x00")
    return hasher.hexdigest()


@dataclass(frozen=True)
class CacheKey:
    """Everything that decides whether a cached stage artifact is reusable."""

    stage: str
    config: Mapping[str, Any]
    fingerprint: str
    #: Content digests of the upstream artifacts this stage consumed.
    upstream: Tuple[str, ...] = ()
    #: Digest of the RNG/attempt cursor the stage starts from (or "").
    cursor: str = ""
    _canonical: Dict[str, Any] = field(
        default=None, init=False, repr=False, compare=False  # type: ignore[assignment]
    )

    def canonical(self) -> Dict[str, Any]:
        """The key's canonical JSON form (what gets hashed and ledgered)."""
        if self._canonical is None:
            object.__setattr__(
                self,
                "_canonical",
                {
                    "stage": self.stage,
                    "config": canonicalize(self.config),
                    "fingerprint": self.fingerprint,
                    "upstream": list(self.upstream),
                    "cursor": self.cursor,
                },
            )
        return self._canonical

    def digest(self) -> str:
        """SHA-256 hex digest identifying this key."""
        return hashlib.sha256(canonical_json_bytes(self.canonical())).hexdigest()
