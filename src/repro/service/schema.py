"""Versioned response framing for the measurement service.

Every body the service emits — query views, epoch listings, health and
error responses — is wrapped in a schema-stamped envelope, exactly like
the ``BENCH_*.json`` trajectories in :mod:`repro.bench.schema`: the
version is the first thing a reader checks, and the strict loaders — the
one field/schema check of :mod:`repro.io` — raise
:class:`~repro.errors.ServiceSchemaError` on drift instead of guessing.

The envelope is also the service's unit of caching: a view envelope's
content digest (:func:`repro.store.digest_of` over the whole envelope)
is both its CAS address and its HTTP ETag, so "the bytes changed" and
"the cache key changed" are the same fact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Tuple

from repro.errors import ServiceSchemaError
from repro.io import check_field, check_schema

#: Version stamped into every envelope; bump on layout change.
SCHEMA_VERSION = 1

#: The per-epoch query views the results layer materializes.
VIEW_KINDS: Tuple[str, ...] = ("ranking", "ports", "topics", "dossiers", "delta")


def view_envelope(
    kind: str, epoch: int, seed: int, scale: float, body: Dict[str, Any]
) -> Dict[str, Any]:
    """Wrap one query view's body in the versioned envelope."""
    if kind not in VIEW_KINDS:
        raise ServiceSchemaError(
            f"unknown view kind {kind!r}; expected one of {VIEW_KINDS}"
        )
    return {
        "schema": SCHEMA_VERSION,
        "kind": kind,
        "epoch": epoch,
        "seed": seed,
        "scale": scale,
        "body": body,
    }


def check_view(data: Mapping[str, Any], where: str = "service view") -> Dict[str, Any]:
    """Strict decode of a view envelope (shape only, not body semantics)."""
    check_schema(data, SCHEMA_VERSION, where, ServiceSchemaError)
    kind = check_field(data, "kind", (str,), where, ServiceSchemaError)
    if kind not in VIEW_KINDS:
        raise ServiceSchemaError(f"{where}: unknown view kind {kind!r}")
    check_field(data, "epoch", (int,), where, ServiceSchemaError)
    check_field(data, "seed", (int,), where, ServiceSchemaError)
    check_field(data, "scale", (int, float), where, ServiceSchemaError)
    check_field(data, "body", (dict,), where, ServiceSchemaError)
    return dict(data)


def check_views(
    views: Mapping[str, Any], where: str = "service views"
) -> Dict[str, Dict[str, Any]]:
    """Strict decode of a full per-epoch view set (every kind present)."""
    checked: Dict[str, Dict[str, Any]] = {}
    for kind in VIEW_KINDS:
        entry = check_field(views, kind, (dict,), where, ServiceSchemaError)
        view = check_view(entry, f"{where}[{kind}]")
        if view["kind"] != kind:
            raise ServiceSchemaError(
                f"{where}: entry {kind!r} holds a {view['kind']!r} view"
            )
        checked[kind] = view
    return checked


@dataclass
class EpochViews:
    """The ``views`` stage checkpoint; :func:`check_views` runs on construction."""

    views: Dict[str, Dict[str, Any]]

    def __post_init__(self) -> None:
        self.views = check_views(self.views, where="views checkpoint")


def error_envelope(status: int, error: BaseException) -> Dict[str, Any]:
    """The 4xx/5xx response body: error type + message, schema-stamped."""
    return {
        "schema": SCHEMA_VERSION,
        "kind": "error",
        "status": status,
        "error": {
            "type": type(error).__name__,
            "message": str(error),
        },
    }
