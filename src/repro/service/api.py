"""The query API: routing, ETags, and the 4xx/5xx error taxonomy.

The router is transport-agnostic — it maps ``(method, path, headers)``
to a :class:`Response` and never touches a socket.  The HTTP front-end
(:mod:`repro.service.http`) and the in-process test client
(:mod:`repro.service.client`) are both thin adapters over
:meth:`ServiceRouter.handle`, so every route, header, and error body is
testable without binding a port.

Caching: a view's ETag is its content digest, quoted per RFC 9110.  A
conditional ``If-None-Match`` request that matches returns 304 with an
empty body — concurrent readers of an unchanged epoch cost one digest
comparison, not a serialization.

``HEAD`` is routed exactly like ``GET``; the HTTP front-end drops the
body.  Any other method gets a 405 with ``Allow: GET, HEAD``.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from typing import Any, List, Mapping, Optional

from repro.errors import (
    ConfigError,
    ReproError,
    ServiceError,
    ServiceSchemaError,
)
from repro.obs.export import render_json
from repro.obs.scope import Observer, ensure_observer
from repro.service.controller import EpochRecord
from repro.service.results import dossier_envelope
from repro.service.schema import SCHEMA_VERSION, VIEW_KINDS, error_envelope
from repro.store import digest_of

JSON_CONTENT_TYPE = "application/json; charset=utf-8"

#: The methods every route serves (RFC 9110 §15.5.6 ``Allow`` value).
ALLOWED_METHODS = ("GET", "HEAD")


@dataclass(frozen=True)
class Response:
    """One framed response: status, headers, body bytes."""

    status: int
    body: bytes = b""
    headers: Mapping[str, str] = field(default_factory=dict)


def _encode(document: Mapping[str, Any]) -> bytes:
    """The service wire encoding: sorted keys, two-space indent, newline.

    Sorting makes the bytes independent of dict construction order, so a
    live-computed envelope and its store-replayed twin serialize
    identically — the property the ETag tests pin.
    """
    return (
        json.dumps(document, indent=2, sort_keys=True, allow_nan=False).encode(
            "utf-8"
        )
        + b"\n"
    )


def etag_of(document: Mapping[str, Any]) -> str:
    """The quoted ETag for an envelope: its CAS content digest."""
    return f'"sha256:{digest_of(dict(document))}"'


def status_of(error: ReproError) -> int:
    """Map a library error onto the 4xx/5xx taxonomy."""
    if isinstance(error, (ConfigError, ServiceSchemaError)):
        return 400
    return 500


class ServiceRouter:
    """Routes queries over the controller's epoch records.

    Thread-safe for concurrent reads: the records list only ever grows
    (append-only, from one controller thread), and the shared observer —
    which is *not* thread-safe — is only touched under ``_lock``.
    """

    def __init__(
        self,
        records: Optional[List[EpochRecord]] = None,
        observer: Optional[Observer] = None,
    ) -> None:
        self.records = records if records is not None else []
        self.observer = ensure_observer(observer)
        self._lock = threading.Lock()

    # -- observability ----------------------------------------------------- #

    def _count(self, name: str, **labels: object) -> None:
        with self._lock:
            self.observer.count(name, **labels)

    # -- epoch resolution -------------------------------------------------- #

    def _resolve_epoch(self, selector: str) -> Optional[EpochRecord]:
        if selector == "latest":
            return self.records[-1] if self.records else None
        if not selector.isdigit():
            return None
        epoch = int(selector)
        if epoch >= len(self.records):
            return None
        return self.records[epoch]

    # -- responses --------------------------------------------------------- #

    def _json_response(
        self,
        document: Mapping[str, Any],
        headers: Mapping[str, str],
        route: str,
    ) -> Response:
        """200 with body — or 304 without, when If-None-Match hits."""
        etag = etag_of(document)
        if headers.get("If-None-Match") == etag:
            self._count("service_cache_hits_total", route=route)
            return Response(
                status=304,
                headers={"ETag": etag, "Content-Type": JSON_CONTENT_TYPE},
            )
        return Response(
            status=200,
            body=_encode(document),
            headers={"ETag": etag, "Content-Type": JSON_CONTENT_TYPE},
        )

    def _error(
        self, status: int, error: ReproError, **headers: str
    ) -> Response:
        self._count("service_errors_total", status=status)
        return Response(
            status=status,
            body=_encode(error_envelope(status, error)),
            headers={"Content-Type": JSON_CONTENT_TYPE, **headers},
        )

    # -- routes ------------------------------------------------------------ #

    def _health(self) -> Mapping[str, Any]:
        return {
            "schema": SCHEMA_VERSION,
            "kind": "health",
            "status": "ok",
            "epochs": len(self.records),
        }

    def _epochs(self) -> Mapping[str, Any]:
        return {
            "schema": SCHEMA_VERSION,
            "kind": "epochs",
            "epochs": [record.summary() for record in self.records],
        }

    def _metrics(self) -> Response:
        with self._lock:
            body = render_json(self.observer).encode("utf-8")
        return Response(
            status=200, body=body, headers={"Content-Type": JSON_CONTENT_TYPE}
        )

    def _route_epoch(
        self, parts: List[str], headers: Mapping[str, str]
    ) -> Response:
        record = self._resolve_epoch(parts[0])
        if record is None:
            return self._error(
                404, ServiceError(f"no such epoch: {parts[0]!r}")
            )
        if len(parts) == 2 and parts[1] in VIEW_KINDS:
            return self._json_response(
                record.views[parts[1]], headers, route=f"view:{parts[1]}"
            )
        if len(parts) == 3 and parts[1] == "dossier":
            envelope = dossier_envelope(record.views, parts[2])
            if envelope is None:
                return self._error(
                    404,
                    ServiceError(
                        f"epoch {record.epoch} never observed {parts[2]!r}"
                    ),
                )
            return self._json_response(envelope, headers, route="dossier")
        return self._error(
            404, ServiceError(f"unknown epoch query: {'/'.join(parts[1:])!r}")
        )

    def handle(
        self, method: str, path: str, headers: Optional[Mapping[str, str]] = None
    ) -> Response:
        """Serve one request; never raises (errors become envelopes)."""
        headers = headers if headers is not None else {}
        self._count("service_requests_total", method=method)
        if method not in ALLOWED_METHODS:
            allowed = ", ".join(ALLOWED_METHODS)
            return self._error(
                405,
                ServiceError(f"method {method} not allowed; use {allowed}"),
                Allow=allowed,
            )
        try:
            path = path.split("?", 1)[0].rstrip("/") or "/"
            if path == "/healthz":
                return self._json_response(self._health(), headers, "healthz")
            if path == "/v1/metrics":
                return self._metrics()
            if path == "/v1/epochs":
                return self._json_response(self._epochs(), headers, "epochs")
            parts = [part for part in path.split("/") if part]
            if len(parts) >= 3 and parts[:2] == ["v1", "epochs"]:
                return self._route_epoch(parts[2:], headers)
            return self._error(404, ServiceError(f"no route for {path!r}"))
        except ReproError as exc:
            return self._error(status_of(exc), exc)
