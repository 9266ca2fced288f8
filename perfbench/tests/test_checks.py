"""The correctness checks count every kind of wrong answer as a failure."""

import json
import random
from types import SimpleNamespace

import checks
import loadgen
import pytest
import workloads
from checks import Request, ResponseChecker, canonical_digest, etag_for

VIEW = {"schema": 1, "kind": "ranking", "epoch": 0, "body": {"rows": [1, 2, 3]}}
DIGEST = canonical_digest(VIEW)


def listing(digest=DIGEST, complete=True):
    return {
        "schema": 1,
        "kind": "epochs",
        "epochs": [
            {"epoch": 0, "complete": complete, "views": {"ranking": digest}},
        ],
    }


def wire(document):
    """The service's wire encoding (indented, sorted) of ``document``."""
    return (json.dumps(document, indent=2, sort_keys=True) + "\n").encode()


@pytest.fixture
def checker():
    return ResponseChecker(listing())


class TestResponses:
    def test_correct_view_passes(self, checker):
        for path in ("/v1/epochs/0/ranking", "/v1/epochs/latest/ranking"):
            request = Request(path, None, 200)
            assert checker.check(request, 200, {"ETag": etag_for(DIGEST)}, wire(VIEW)) is None

    def test_wrong_etag_is_a_failure(self, checker):
        wrong = etag_for("0" * 64)
        problem = checker.check(Request("/v1/epochs/0/ranking", None, 200), 200, {"ETag": wrong}, wire(VIEW))
        assert "not the body digest" in problem

    def test_body_that_differs_from_the_listing_is_a_failure(self, checker):
        other = dict(VIEW, epoch=1)
        headers = {"ETag": etag_for(canonical_digest(other))}
        problem = checker.check(Request("/v1/epochs/0/ranking", None, 200), 200, headers, wire(other))
        assert "listed digest" in problem

    def test_server_error_is_a_failure(self, checker):
        problem = checker.check(Request("/healthz", None, 200), 500, {}, b"{}")
        assert "server error 500" in problem

    def test_unexpected_status_is_a_failure(self, checker):
        assert checker.check(Request("/v1/epochs/0/dossier/x", None, 404), 200, {}, b"{}")

    def test_not_modified_must_be_empty_and_echo_the_etag(self, checker):
        etag = etag_for(DIGEST)
        request = Request("/v1/epochs/0/ranking", etag, 304)
        assert checker.check(request, 304, {"ETag": etag}, b"") is None
        assert "body" in checker.check(request, 304, {"ETag": etag}, b"x")
        assert checker.check(request, 304, {"ETag": etag_for("1" * 64)}, b"")

    def test_not_found_must_be_an_error_envelope(self, checker):
        request = Request("/v1/epochs/0/dossier/unknown0unknown0.onion", None, 404)
        assert checker.check(request, 404, {}, wire({"status": 404, "kind": "error"})) is None
        assert checker.check(request, 404, {}, b"nope")


class TestListings:
    def test_digest_mismatch_between_cold_and_warm_is_a_failure(self):
        problems = checks.compare_listings(listing(), listing(digest="f" * 64))
        assert problems == ["restart: epoch 0 view digests differ from cold start"]

    def test_identical_listings_pass(self):
        assert checks.compare_listings(listing(), listing()) == []

    def test_incomplete_epoch_is_a_failure(self):
        assert checks.check_listing(listing(complete=False), 1)
        assert checks.check_listing(listing(), 1) == []

    def test_fewer_epochs_than_the_server_was_asked_for_is_a_failure(self):
        assert workloads.EPOCHS > 1
        assert checks.check_listing(listing(), workloads.EPOCHS) == [
            f"listing: 1 epoch(s), expected {workloads.EPOCHS}"
        ]


class TestCleanService:
    LAYERS = {"store.restart_hit_ratio": 1.0, "supervise.restarts": 0}

    def test_clean_run_passes(self):
        assert checks.check_clean_service(self.LAYERS) == []

    def test_store_miss_on_restart_is_a_failure(self):
        layers = dict(self.LAYERS, **{"store.restart_hit_ratio": 13 / 14})
        assert checks.check_clean_service(layers) == [
            "restart: store hit ratio 0.929, not 1.0"
        ]

    def test_supervised_restart_is_a_failure(self):
        layers = dict(self.LAYERS, **{"supervise.restarts": 1})
        assert checks.check_clean_service(layers) == [
            "supervise: 1 restart(s) on a clean run"
        ]


class TestMix:
    def test_route_classes_get_equal_shares(self):
        catalog = loadgen.Catalog(
            etags={"/v1/epochs/0/ranking": etag_for(DIGEST)},
            onions={"0": ["a.onion", "b.onion"], "latest": ["a.onion"]},
        )
        requests = loadgen.make_requests(random.Random(0), catalog, 4000)
        shares = {
            route: sum(request.route == route for request in requests) / 4000
            for route in checks.ROUTE_CLASSES
        }
        assert all(abs(share - 0.25) < 0.03 for share in shares.values()), shares
        unknown = [r for r in requests if loadgen.UNKNOWN_ONION in r.path]
        assert unknown and all(r.expect == 404 and r.route == "dossier" for r in unknown)


class TestStageCounting:
    """Failures found while streaming are counted and miss the latency limit."""

    def stage(self, respond):
        requests = [Request("/v1/epochs/0/ranking", None, 200)] * 20
        return loadgen.run_stage(
            lambda request, request_id: respond(),
            ResponseChecker(listing()),
            requests,
            rate=2000.0,
            rng=random.Random(0),
        )

    def test_correct_stream_has_no_failures(self):
        result = self.stage(lambda: (200, {"ETag": etag_for(DIGEST)}, wire(VIEW)))
        assert result.failures == [] and result.attempted == 20
        assert result.p(0.99) < float("inf")

    @pytest.mark.parametrize(
        "response",
        [
            (500, {}, b"{}"),
            (200, {"ETag": etag_for("0" * 64)}, wire(VIEW)),
        ],
        ids=["server-error", "wrong-etag"],
    )
    def test_every_wrong_response_is_counted(self, response):
        result = self.stage(lambda: response)
        assert len(result.failures) == 20
        assert result.p(0.50) == float("inf")

    def test_refused_connection_is_counted(self):
        def refuse():
            raise ConnectionRefusedError("refused")

        result = self.stage(refuse)
        assert len(result.failures) == 20


class TestFindings:
    def test_table2_rank_one_must_be_goldnet(self):
        def table2(description):
            row = SimpleNamespace(description=description)
            return SimpleNamespace(ranking=SimpleNamespace(top=lambda n: [row]))

        assert checks.check_table2(table2("Goldnet")) == []
        assert checks.check_table2(table2("Silk Road"))

    def test_harvest_coverage_floor(self):
        assert checks.check_harvest(SimpleNamespace(harvest_fraction=0.95)) == []
        assert checks.check_harvest(SimpleNamespace(harvest_fraction=0.5))

    def test_sec7_missed_episode_and_false_positive(self):
        truth = {"our-trackers": {1}, "may-episode": {2}, "aug-episode": {3}}

        def sec7(detected, false_positives):
            return SimpleNamespace(
                world=SimpleNamespace(ground_truth=truth),
                likely_by_year={"year1": {}, "year2": {}, "year3": {}},
                detected_entities=lambda year: detected.get(year, set()),
                honest_false_positives=lambda year: false_positives.get(year, 0),
            )

        everything = {"year2": {"our-trackers"}, "year3": {"may-episode", "aug-episode"}}
        assert checks.check_sec7(sec7(everything, {})) == []
        del truth["may-episode"]
        assert checks.check_sec7(sec7(everything, {})) == [
            "sec7: episode 'may-episode' was never injected"
        ]
        truth["may-episode"] = {2}
        missed = {"year2": {"our-trackers"}, "year3": {"may-episode"}}
        assert checks.check_sec7(sec7(missed, {})) == [
            "sec7: injected episode 'aug-episode' not detected in year3"
        ]
        assert checks.check_sec7(sec7(everything, {"year1": 1, "year3": 1})) == []
        assert checks.check_sec7(sec7(everything, {"year1": 2, "year3": 1})) == [
            "sec7: honest servers convicted per year window: "
            "{'year1': 2, 'year2': 0, 'year3': 1}"
        ]
