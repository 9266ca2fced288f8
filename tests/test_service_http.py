"""The HTTP front-end: a real server on an ephemeral port.

tests/ is exempt from REP015, so this file may use ``http.client``
directly; production code outside ``repro/service`` may not.
"""

import http.client
import json
import socket
import threading

import pytest

from repro.obs.scope import Observer
from repro.service import ServiceRouter, serve


@pytest.fixture(scope="module")
def live_server(service_controller):
    """A serving ServiceHTTPServer on port 0, torn down after the module."""
    router = ServiceRouter(
        service_controller.records, observer=Observer(name="http-test")
    )
    server = serve(router, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


def fetch(server, path, headers=None, method="GET"):
    host, port = server.server_address[:2]
    connection = http.client.HTTPConnection(host, port, timeout=10)
    try:
        connection.request(method, path, headers=headers or {})
        response = connection.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        connection.close()


class TestLiveServer:
    def test_healthz_over_the_wire(self, live_server):
        status, headers, body = fetch(live_server, "/healthz")
        assert status == 200
        assert headers["Content-Type"] == "application/json; charset=utf-8"
        document = json.loads(body.decode("utf-8"))
        assert document["status"] == "ok"
        assert document["epochs"] == 3

    def test_response_framing_is_pinned(self, live_server):
        _status, headers, _body = fetch(live_server, "/healthz")
        assert headers["Server"] == "repro-service"
        assert headers["Date"] == "Thu, 01 Jan 1970 00:00:00 GMT"

    def test_ranking_200_then_304_on_conditional_refetch(self, live_server):
        status, headers, body = fetch(live_server, "/v1/epochs/0/ranking")
        assert status == 200
        assert body
        etag = headers["ETag"]
        assert etag.startswith('"sha256:')

        status, headers, body = fetch(
            live_server,
            "/v1/epochs/0/ranking",
            headers={"If-None-Match": etag},
        )
        assert status == 304
        assert body == b""
        assert headers["ETag"] == etag

    def test_wire_body_matches_in_process_router(
        self, live_server, service_controller
    ):
        _status, _headers, body = fetch(live_server, "/v1/epochs/latest/delta")
        in_process = live_server.router.handle(
            "GET", "/v1/epochs/latest/delta"
        )
        assert body == in_process.body

    @pytest.mark.parametrize("path", ["/healthz", "/v1/epochs/0/ranking"])
    def test_head_sends_get_headers_without_a_body(self, live_server, path):
        get_status, get_headers, get_body = fetch(live_server, path)
        status, headers, body = fetch(live_server, path, method="HEAD")
        assert (status, headers) == (get_status, get_headers)
        assert int(headers["Content-Length"]) == len(get_body) > 0
        assert body == b""

    def test_concurrent_requests_all_succeed(self, live_server):
        results = []
        lock = threading.Lock()

        def worker():
            status, _headers, _body = fetch(live_server, "/v1/epochs")
            with lock:
                results.append(status)

        threads = [threading.Thread(target=worker) for _ in range(12)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert results == [200] * 12


class TestIdleConnections:
    def test_idle_sockets_do_not_starve_healthz(self, service_controller):
        """Connections that never send a request hold no handler permit."""
        router = ServiceRouter(
            service_controller.records, observer=Observer(name="idle-test")
        )
        server = serve(router, port=0, workers=2)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        idle = []
        try:
            host, port = server.server_address[:2]
            for _ in range(2):
                idle.append(socket.create_connection((host, port), timeout=5))
            status, _headers, _body = fetch(server, "/healthz")
            assert status == 200
        finally:
            for sock in idle:
                sock.close()
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)
        assert not thread.is_alive()
