"""The query API: routes, conditional caching, and the determinism matrix."""

import json

import pytest

from repro.obs.scope import Observer
from repro.service import (
    SCHEMA_VERSION,
    VIEW_KINDS,
    EpochController,
    InProcessClient,
    ServiceRouter,
)

from tests.conftest import make_service_config

#: The query surface the determinism matrix pins, one path per view kind.
VIEW_PATHS = tuple(f"/v1/epochs/0/{kind}" for kind in VIEW_KINDS)

#: workers × fault-profile cells of the determinism matrix (satellite:
#: byte-identical body and ETag at workers 1/2/8, clean and faulted).
WORKER_COUNTS = (1, 2, 8)
FAULT_PROFILES = ("none", "moderate")


@pytest.fixture(scope="module")
def matrix_responses(tmp_path_factory):
    """Every (profile, workers) cell's responses over a fresh store."""
    responses = {}
    for profile in FAULT_PROFILES:
        for workers in WORKER_COUNTS:
            root = tmp_path_factory.mktemp(f"api-{profile}-{workers}")
            controller = EpochController(
                make_service_config(
                    epochs=1,
                    workers=workers,
                    fault_profile=profile,
                    crash_profile="none",
                ),
                str(root),
            )
            controller.run()
            client = InProcessClient(ServiceRouter(controller.records))
            responses[(profile, workers)] = {
                path: client.get(path) for path in VIEW_PATHS
            }
    return responses


class TestDeterminismMatrix:
    @pytest.mark.parametrize("profile", FAULT_PROFILES)
    @pytest.mark.parametrize("path", VIEW_PATHS)
    def test_body_and_etag_identical_across_worker_counts(
        self, matrix_responses, profile, path
    ):
        baseline = matrix_responses[(profile, WORKER_COUNTS[0])][path]
        assert baseline.status == 200
        for workers in WORKER_COUNTS[1:]:
            response = matrix_responses[(profile, workers)][path]
            assert response.body == baseline.body, (
                f"{path} body diverged at workers={workers} "
                f"under profile {profile!r}"
            )
            assert response.etag == baseline.etag

    @pytest.mark.parametrize("path", VIEW_PATHS)
    def test_etag_is_the_quoted_content_digest(self, matrix_responses, path):
        response = matrix_responses[("none", 1)][path]
        assert response.etag.startswith('"sha256:')
        assert response.etag.endswith('"')


@pytest.fixture(scope="module")
def client(service_controller):
    router = ServiceRouter(
        service_controller.records, observer=Observer(name="api-test")
    )
    return InProcessClient(router)


class TestRoutes:
    def test_healthz_reports_epoch_count(self, client):
        response = client.get("/healthz")
        assert response.status == 200
        assert response.json() == {
            "schema": SCHEMA_VERSION,
            "kind": "health",
            "status": "ok",
            "epochs": 3,
        }

    def test_epoch_listing_carries_run_ids_and_digests(self, client):
        document = client.get("/v1/epochs").json()
        assert document["kind"] == "epochs"
        rows = document["epochs"]
        assert [row["epoch"] for row in rows] == [0, 1, 2]
        assert rows[0]["run_id"] == "epoch-000000"
        assert rows[0]["complete"] is True
        assert set(rows[0]["views"]) == set(VIEW_KINDS)

    def test_latest_selector_resolves_newest_epoch(self, client):
        latest = client.get("/v1/epochs/latest/ranking")
        explicit = client.get("/v1/epochs/2/ranking")
        assert latest.body == explicit.body
        assert latest.etag == explicit.etag

    def test_view_response_is_the_stored_envelope(
        self, client, service_controller
    ):
        response = client.get("/v1/epochs/1/topics")
        assert response.json() == service_controller.records[1].views["topics"]

    def test_query_string_and_trailing_slash_are_ignored(self, client):
        plain = client.get("/v1/epochs/0/ports")
        decorated = client.get("/v1/epochs/0/ports/?verbose=1")
        assert decorated.body == plain.body
        assert decorated.etag == plain.etag

    def test_dossier_route_serves_single_onions(
        self, client, service_controller
    ):
        views = service_controller.records[0].views
        onion = next(iter(views["dossiers"]["body"]["onions"]))
        response = client.get(f"/v1/epochs/0/dossier/{onion}")
        assert response.status == 200
        document = response.json()
        assert document["kind"] == "dossier"
        assert document["onion"] == onion

    def test_metrics_route_exports_the_observer_snapshot(self, client):
        response = client.get("/v1/metrics")
        assert response.status == 200
        snapshot = json.loads(response.body.decode("utf-8"))
        assert set(snapshot) >= {"metrics", "events", "dropped_events"}
        names = {entry["name"] for entry in snapshot["metrics"]}
        assert "service_requests_total" in names


class TestConditionalCaching:
    def test_matching_etag_turns_into_304_with_empty_body(self, client):
        first = client.get("/v1/epochs/0/ranking")
        assert first.status == 200
        second = client.get_conditional("/v1/epochs/0/ranking", first.etag)
        assert second.status == 304
        assert second.body == b""
        assert second.etag == first.etag

    def test_stale_etag_returns_full_body(self, client):
        response = client.get_conditional(
            "/v1/epochs/0/ranking", '"sha256:stale"'
        )
        assert response.status == 200
        assert response.body

    def test_cache_hits_are_counted_per_route(self, service_controller):
        router = ServiceRouter(
            service_controller.records, observer=Observer(name="cache-test")
        )
        local = InProcessClient(router)
        etag = local.get("/v1/epochs/0/ranking").etag
        local.get_conditional("/v1/epochs/0/ranking", etag)
        hits = [
            (dict(labels), metric.value)
            for name, labels, metric in router.observer.registry.items()
            if name == "service_cache_hits_total"
        ]
        assert hits == [({"route": "view:ranking"}, 1)]


class TestErrorTaxonomy:
    def test_unknown_epoch_is_a_schema_stamped_404(self, client):
        response = client.get("/v1/epochs/99/ranking")
        assert response.status == 404
        document = response.json()
        assert document["kind"] == "error"
        assert document["status"] == 404
        assert document["error"]["type"] == "ServiceError"

    def test_unknown_route_is_404(self, client):
        assert client.get("/v1/nonsense").status == 404

    def test_unknown_view_kind_is_404(self, client):
        assert client.get("/v1/epochs/0/sparklines").status == 404

    def test_unknown_dossier_onion_is_404(self, client):
        response = client.get("/v1/epochs/0/dossier/" + "z" * 16)
        assert response.status == 404

    def test_non_get_method_is_405(self, service_controller):
        router = ServiceRouter(service_controller.records)
        response = router.handle("POST", "/v1/epochs")
        assert response.status == 405
        body = json.loads(response.body.decode("utf-8"))
        assert body["error"]["type"] == "ServiceError"

    def test_405_names_the_allowed_methods(self, service_controller):
        router = ServiceRouter(service_controller.records)
        response = router.handle("DELETE", "/healthz")
        assert response.status == 405
        assert response.headers["Allow"] == "GET, HEAD"
        etag = router.handle("GET", "/v1/epochs/0/ranking").headers["ETag"]
        head = router.handle("HEAD", "/v1/epochs/0/ranking", {"If-None-Match": etag})
        assert head.status == 304
