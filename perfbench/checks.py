"""Correctness checks that hold for any correct version, whatever the seed.

Every function returns a list of failure messages (empty when the check
passes); the drivers count each message as one failed operation.  The
checks read only what the program publishes — experiment results and
HTTP responses — never its internals.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Tuple

#: Minimum share of published onions the shadow-relay harvest must collect.
MIN_HARVEST_COVERAGE = 0.9
#: Section VII's injected tracking episodes and the year window the paper
#: detected each in.  (The year-one oddity is injected too, but the paper
#: found "no clear indication of tracking" that year, so it is not
#: required to be detected.)
TRACKING_EPISODES = (
    ("our-trackers", "year2"),
    ("may-episode", "year3"),
    ("aug-episode", "year3"),
)
#: Honest servers sec7 may convict over its three year windows.  The
#: paper's "ratio > 10,000" rule convicts any server that lands that close
#: to a descriptor ID, and an honest relay does so by chance with
#: probability about 1e-4 per responsible slot: about 0.08 convictions per
#: year window, so a correct detector shows one in roughly a quarter of
#: seeds (seeds 1, 2 of 0-9 at sec7 scale 0.2; 1, 4, 9 at 0.1).  Three or
#: more in one run (p < 0.3%) means the detector itself is wrong.
HONEST_FALSE_POSITIVE_BUDGET = 2


def canonical_digest(document: Any) -> str:
    """SHA-256 of the canonical JSON encoding (sorted keys, no spaces).

    This is the service's published ETag contract: a view's ETag is
    ``"sha256:<digest>"`` of its envelope, and ``/v1/epochs`` lists the
    same digest per view.
    """
    text = json.dumps(document, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def etag_for(digest: str) -> str:
    return f'"sha256:{digest}"'


# -- batch_all: the paper's findings ------------------------------------------ #


def check_table2(table2: Any) -> List[str]:
    """Table II's rank-1 service is a Goldnet botnet front (Section V)."""
    top = table2.ranking.top(1)
    if not top:
        return ["table2: empty popularity ranking"]
    if top[0].description != "Goldnet":
        return [f"table2: rank-1 service is {top[0].description!r}, not a Goldnet front"]
    return []


def check_sec7(sec7: Any) -> List[str]:
    """Section VII detects every injected tracking episode in the year the
    paper did, and convicts honest servers no more often than chance."""
    if sec7.world is None:
        return ["sec7: no ground truth to score against"]
    failures = []
    for entity, year in TRACKING_EPISODES:
        if entity not in sec7.world.ground_truth:
            failures.append(f"sec7: episode {entity!r} was never injected")
        elif entity not in sec7.detected_entities(year):
            failures.append(f"sec7: injected episode {entity!r} not detected in {year}")
    false_positives = {
        year: sec7.honest_false_positives(year) for year in sorted(sec7.likely_by_year)
    }
    if sum(false_positives.values()) > HONEST_FALSE_POSITIVE_BUDGET:
        failures.append(f"sec7: honest servers convicted per year window: {false_positives}")
    return failures


def check_harvest(harvest: Any) -> List[str]:
    """The shadow-relay harvest collects at least 90% of published onions."""
    if harvest.harvest_fraction < MIN_HARVEST_COVERAGE:
        return [
            f"harvest: coverage {harvest.harvest_fraction:.3f} < {MIN_HARVEST_COVERAGE}"
        ]
    return []


# -- service_cycle: the epoch listing ------------------------------------------ #


def listing_digests(listing: Mapping[str, Any]) -> Dict[int, Dict[str, str]]:
    """epoch → view kind → digest, from a ``/v1/epochs`` body."""
    return {row["epoch"]: dict(row["views"]) for row in listing["epochs"]}


def check_listing(listing: Mapping[str, Any], epochs: int) -> List[str]:
    """The listing has ``epochs`` rows and every epoch is complete."""
    rows = listing.get("epochs", [])
    failures = []
    if len(rows) != epochs:
        failures.append(f"listing: {len(rows)} epoch(s), expected {epochs}")
    failures += [
        f"listing: epoch {row.get('epoch')} is not complete"
        for row in rows
        if row.get("complete") is not True
    ]
    return failures


def compare_listings(cold: Mapping[str, Any], warm: Mapping[str, Any]) -> List[str]:
    """The restarted server serves the cold start's view digests."""
    cold_views, warm_views = listing_digests(cold), listing_digests(warm)
    failures = []
    for epoch in sorted(set(cold_views) | set(warm_views)):
        if cold_views.get(epoch) != warm_views.get(epoch):
            failures.append(f"restart: epoch {epoch} view digests differ from cold start")
    return failures


def check_clean_service(layers: Mapping[str, float]) -> List[str]:
    """On a clean run (no faults, no crash profile) no epoch restarts, and
    a restart over the warm store finds every stage in it."""
    failures = []
    if layers["store.restart_hit_ratio"] != 1.0:
        failures.append(
            f"restart: store hit ratio {layers['store.restart_hit_ratio']:.3f}, not 1.0"
        )
    if layers["supervise.restarts"] != 0:
        failures.append(f"supervise: {layers['supervise.restarts']:g} restart(s) on a clean run")
    return failures


# -- service_cycle: individual responses --------------------------------------- #

#: The request classes of the query stream, named as the router's route
#: classes: per-onion dossier lookups, full views, ``If-None-Match``
#: revalidations (answered 304), and the epoch listing or health check.
ROUTE_CLASSES: Tuple[str, ...] = ("dossier", "view", "not_modified", "listing")


def route_class(path: str, status: int) -> str:
    """The route class of a request for ``path`` answered with ``status``."""
    if status == 304:
        return "not_modified"
    if "/dossier/" in path:
        return "dossier"
    if path.startswith("/v1/epochs/"):
        return "view"
    return "listing"


class Request(NamedTuple):
    """One query: path, optional If-None-Match ETag, expected status."""

    path: str
    etag: Optional[str]
    expect: int

    @property
    def route(self) -> str:
        return route_class(self.path, self.expect)


class ResponseChecker:
    """Checks responses against the cold start's epoch listing.

    A 200 body's canonical digest must equal its ETag and, for a view,
    the listing's digest; a conditional request whose ETag matches must
    get a 304 with an empty body; no response may be a 5xx.  A body seen
    before under the same path and ETag is not re-parsed.
    """

    def __init__(self, listing: Mapping[str, Any]) -> None:
        self.digests = listing_digests(listing)
        self.latest = max(self.digests) if self.digests else None
        self._verified: Dict[Tuple[str, str], str] = {}

    def expected_view_digest(self, path: str) -> Optional[str]:
        parts = [part for part in path.split("/") if part]
        if len(parts) != 4 or parts[:2] != ["v1", "epochs"]:
            return None
        selector, kind = parts[2], parts[3]
        epoch = self.latest if selector == "latest" else int(selector)
        return self.digests.get(epoch, {}).get(kind)

    def check(
        self, request: Request, status: int, headers: Mapping[str, str], body: bytes
    ) -> Optional[str]:
        """None when the response is correct, else why it is not."""
        where = request.path
        if status >= 500:
            return f"{where}: server error {status}"
        if status != request.expect:
            return f"{where}: status {status}, expected {request.expect}"
        etag = headers.get("ETag")
        if status == 304:
            if body:
                return f"{where}: 304 with a {len(body)}-byte body"
            if etag != request.etag:
                return f"{where}: 304 ETag {etag} does not match {request.etag}"
            return None
        if status == 404:
            try:
                document = json.loads(body)
            except ValueError:
                return f"{where}: 404 body is not JSON"
            if document.get("status") != 404:
                return f"{where}: 404 body does not carry its status"
            return None
        if etag is None:
            return f"{where}: 200 without an ETag"
        key = (where, hashlib.sha256(body).hexdigest())
        if self._verified.get(key) != etag:
            try:
                digest = canonical_digest(json.loads(body))
            except ValueError:
                return f"{where}: body is not JSON"
            if etag != etag_for(digest):
                return f"{where}: ETag {etag} is not the body digest {digest}"
            self._verified[key] = etag
        expected = self.expected_view_digest(where)
        if expected is not None and etag != etag_for(expected):
            return f"{where}: ETag {etag} is not the listed digest {expected}"
        return None
