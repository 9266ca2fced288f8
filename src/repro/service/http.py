"""The HTTP front-end: a bounded ThreadingHTTPServer over the router.

Raw socket handling for the whole project lives here and only here —
rule REP015 of ``repro lint`` forbids ``socket``/``http.server`` imports
anywhere outside ``repro/service``.  The handler is deliberately thin:
parse nothing, decide nothing, hand ``(method, path, headers)`` to
:meth:`repro.service.api.ServiceRouter.handle` and write the framed
response back.

Determinism: the handler pins ``protocol_version``, the ``Server``
header, and the ``Date`` header (to the epoch constant — the sim clock
is the only clock in this codebase, REP003) so two identical queries
produce byte-identical responses on the wire, not just identical bodies.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Tuple

from repro.service.api import ServiceRouter

#: The pinned Date header: the service has no wall clock (REP003).
FIXED_DATE = "Thu, 01 Jan 1970 00:00:00 GMT"

#: Seconds a connection may sit without sending a complete request line
#: and headers (or reading its response) before the handler drops it.
READ_TIMEOUT_SECONDS = 10


class _ServiceRequestHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    timeout = READ_TIMEOUT_SECONDS

    def version_string(self) -> str:
        return "repro-service"

    def date_time_string(self, timestamp=None) -> str:
        return FIXED_DATE

    def log_message(self, format: str, *args) -> None:
        # Request logging belongs to the observer (the router counts
        # every request); stderr chatter would also break REP009.
        pass

    def _respond(self, method: str) -> None:
        # The permit covers only routing: a client still sending its
        # request (or an idle keep-alive connection) holds no slot.
        with self.server.slots:
            response = self.server.router.handle(method, self.path, self.headers)
        self.send_response(response.status)
        for name, value in response.headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(response.body)))
        self.end_headers()
        # HEAD: the GET response's status and headers, never its body.
        if response.body and method != "HEAD":
            self.wfile.write(response.body)

    def do_GET(self) -> None:
        self._respond("GET")

    def do_HEAD(self) -> None:
        self._respond("HEAD")

    def do_POST(self) -> None:
        self._respond("POST")

    def do_PUT(self) -> None:
        self._respond("PUT")

    def do_DELETE(self) -> None:
        self._respond("DELETE")


class ServiceHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server with a bounded handler pool.

    ``ThreadingHTTPServer`` spawns one thread per connection; the
    semaphore bounds how many parsed requests the router handles
    *concurrently*, so a traffic burst queues instead of unboundedly
    fanning out over the router lock.  Connections that have not yet
    sent a request take no permit, and the handler's read timeout drops
    them, so idle sockets cannot starve ``/healthz``.
    """

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        router: ServiceRouter,
        workers: int = 8,
    ) -> None:
        self.router = router
        self.slots = threading.BoundedSemaphore(max(1, workers))
        super().__init__(address, _ServiceRequestHandler)


def serve(
    router: ServiceRouter,
    host: str = "127.0.0.1",
    port: int = 8750,
    workers: int = 8,
) -> ServiceHTTPServer:
    """Bind the server (without starting it; call ``serve_forever``)."""
    return ServiceHTTPServer((host, port), router, workers=workers)
