"""Open-loop HTTP query stream against the service, from one process.

Requests arrive on a schedule drawn from the workload seed, whatever the
server's speed: ``n`` arrival times placed uniformly at random over the
stage (a Poisson stream conditioned on its count).  At most two requests
are in flight; a request that falls due while both slots are busy waits
in the generator's queue.  Latency is timed from each request's *due*
time, so a stall is charged to every request queued behind it, and the
generator reports how late it ran against its own schedule.
"""

from __future__ import annotations

import http.client
import json
import math
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from checks import ROUTE_CLASSES, Request, ResponseChecker

#: Requests in flight at once.
IN_FLIGHT = 2
#: The latency limit on p99; a failed request counts as missing it.
LATENCY_LIMIT_MS = 100.0
#: Per-request socket timeout.
TIMEOUT_S = 5.0
#: The offered rate of the query stage: below the knee (about 250/s for
#: the scale-0.05 service on a 2-core machine, 130-200/s while the host
#: is busy).
FIXED_RATE = 100.0
#: A name that is not base32, so no epoch can ever have observed it.
UNKNOWN_ONION = "unknown0unknown0.onion"
VIEW_KINDS = ("ranking", "ports", "topics", "dossiers", "delta")
SELECTORS = ("0", "1", "latest")

Send = Callable[[Request, Optional[str]], Tuple[int, Mapping[str, str], bytes]]


def http_sender(port: int, host: str = "127.0.0.1", id_header: Optional[str] = None) -> Send:
    """GET over a fresh connection per request (``Connection: close``)."""

    def send(request: Request, request_id: Optional[str] = None):
        headers = {"Connection": "close"}
        if request.etag is not None:
            headers["If-None-Match"] = request.etag
        if id_header is not None and request_id is not None:
            headers[id_header] = request_id
        connection = http.client.HTTPConnection(host, port, timeout=TIMEOUT_S)
        try:
            connection.request("GET", request.path, headers=headers)
            response = connection.getresponse()
            body = response.read()
            return response.status, dict(response.getheaders()), body
        finally:
            connection.close()

    return send


def nearest_rank(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile by nearest rank (``values`` need not be sorted)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


@dataclass
class Catalog:
    """What the warm-up pass learnt: ETags seen and onions per epoch."""

    etags: Dict[str, str] = field(default_factory=dict)
    onions: Dict[str, List[str]] = field(default_factory=dict)


def warm_up(
    send: Send, checker: ResponseChecker, failures: List[str], rng: random.Random
) -> Tuple[Catalog, int]:
    """Fetch every listing and view once, look up one dossier drawn from
    ``rng`` and the unknown onion per epoch selector, and revalidate
    every view once.

    Returns the catalog and the number of requests made; every failed
    check is appended to ``failures``.
    """
    catalog = Catalog()
    made = 0

    def get(request: Request) -> Optional[bytes]:
        nonlocal made
        made += 1
        try:
            status, headers, body = send(request, None)
        except (OSError, http.client.HTTPException) as exc:
            failures.append(f"{request.path}: {type(exc).__name__}: {exc}")
            return None
        problem = checker.check(request, status, headers, body)
        if problem is not None:
            failures.append(problem)
            return None
        if status == 200:
            catalog.etags[request.path] = headers["ETag"]
        return body

    paths = ["/healthz", "/v1/epochs"] + [
        f"/v1/epochs/{selector}/{kind}" for selector in SELECTORS for kind in VIEW_KINDS
    ]
    for path in paths:
        body = get(Request(path, None, 200))
        if body is not None and path.endswith("/dossiers"):
            selector = path.split("/")[3]
            catalog.onions[selector] = sorted(json.loads(body)["body"]["onions"])
    for selector, onions in sorted(catalog.onions.items()):
        if onions:
            get(Request(f"/v1/epochs/{selector}/dossier/{rng.choice(onions)}", None, 200))
        get(Request(f"/v1/epochs/{selector}/dossier/{UNKNOWN_ONION}", None, 404))
    for path, etag in sorted(catalog.etags.items()):
        get(Request(path, etag, 304))
    return catalog, made


def make_requests(rng: random.Random, catalog: Catalog, count: int) -> List[Request]:
    """``count`` requests of the query mix, drawn from ``rng``.

    Each request's class is drawn with equal shares over the four route
    classes: there is no recorded traffic to weight them by.  A dossier
    lookup draws its onion from the epoch's own dossier list plus one
    onion no epoch observed (which must 404); a view names a kind and an
    epoch selector; a revalidation re-fetches, with ``If-None-Match``, a
    path whose ETag the warm-up saw; a listing request is ``/v1/epochs``
    or ``/healthz``.
    """
    selectors = sorted(catalog.onions)
    revalidate = sorted(catalog.etags.items())
    requests = []
    for _ in range(count):
        route = rng.choice(ROUTE_CLASSES)
        if route == "dossier":
            selector = rng.choice(selectors)
            onions = catalog.onions[selector]
            index = rng.randrange(len(onions) + 1)
            if index == len(onions):
                requests.append(
                    Request(f"/v1/epochs/{selector}/dossier/{UNKNOWN_ONION}", None, 404)
                )
            else:
                requests.append(
                    Request(f"/v1/epochs/{selector}/dossier/{onions[index]}", None, 200)
                )
        elif route == "view":
            path = f"/v1/epochs/{rng.choice(SELECTORS)}/{rng.choice(VIEW_KINDS)}"
            requests.append(Request(path, None, 200))
        elif route == "not_modified":
            path, etag = rng.choice(revalidate)
            requests.append(Request(path, etag, 304))
        else:
            requests.append(Request(rng.choice(("/v1/epochs", "/healthz")), None, 200))
    return requests


@dataclass
class StageResult:
    """One open-loop stage at one offered rate."""

    rate: float
    requests: Sequence[Request]
    latency_ms: List[float]
    queue_ms: List[float]
    late_ms: List[float]
    failures: List[str]
    #: request id → client-side ms from sending to the last body byte.
    service_ms: Dict[str, float]

    @property
    def attempted(self) -> int:
        return len(self.latency_ms)

    def latencies(self, route: Optional[str] = None) -> List[float]:
        """Latency of every request, or of those of one route class."""
        return [
            latency
            for request, latency in zip(self.requests, self.latency_ms)
            if route is None or request.route == route
        ]

    def p(self, q: float, route: Optional[str] = None) -> float:
        return nearest_rank(self.latencies(route), q)


def run_stage(
    send: Send,
    checker: ResponseChecker,
    requests: Sequence[Request],
    rate: float,
    rng: random.Random,
    id_prefix: str = "",
) -> StageResult:
    """Offer ``requests`` at ``rate`` per second, open loop."""
    count = len(requests)
    duration = count / rate
    offsets = sorted(rng.uniform(0.0, duration) for _ in range(count))
    latency = [0.0] * count
    queue = [0.0] * count
    late = [0.0] * count
    service: Dict[str, float] = {}
    failures: List[str] = []
    lock = threading.Lock()

    def work(index: int, due: float) -> None:
        begin = time.monotonic()
        request = requests[index]
        request_id = f"{id_prefix}{index}"
        problem: Optional[str]
        try:
            status, headers, body = send(request, request_id)
        except (OSError, http.client.HTTPException) as exc:
            status, problem = 0, f"{request.path}: {type(exc).__name__}: {exc}"
        end = time.monotonic()
        if status:
            problem = checker.check(request, status, headers, body)
        queue[index] = (begin - due) * 1e3
        # A failed request misses the latency limit, whatever its timing.
        latency[index] = (end - due) * 1e3 if problem is None else math.inf
        with lock:
            service[request_id] = (end - begin) * 1e3
            if problem is not None:
                failures.append(problem)

    origin = time.monotonic() + 0.01
    with ThreadPoolExecutor(max_workers=IN_FLIGHT) as pool:
        futures = []
        for index, offset in enumerate(offsets):
            due = origin + offset
            wait = due - time.monotonic()
            if wait > 0:
                time.sleep(wait)
            late[index] = max(0.0, time.monotonic() - due) * 1e3
            futures.append(pool.submit(work, index, due))
        for future in futures:
            future.result()
    return StageResult(
        rate=rate,
        requests=requests,
        latency_ms=latency,
        queue_ms=queue,
        late_ms=late,
        failures=failures,
        service_ms=service,
    )


def describe(stage: StageResult) -> List[str]:
    """Printed lines: the stage's latency, per route class and overall.

    Per-class figures do not depend on the mix's shares; the overall p99
    does, and is what the latency limit is stated on.
    """
    lines = [
        f"query at {stage.rate:g}/s, {stage.attempted} requests, equal shares per "
        f"route class: p99 {stage.p(0.99):.3f} ms overall (limit {LATENCY_LIMIT_MS:g} ms)"
    ]
    for route in ROUTE_CLASSES:
        values = stage.latencies(route)
        if values:
            lines.append(
                f"query {route}: {len(values)} requests, p50 "
                f"{nearest_rank(values, 0.50):.3f} ms, p99 {nearest_rank(values, 0.99):.3f} ms"
            )
    return lines


def summarize(stages: Sequence[StageResult]) -> Dict[str, float]:
    """Pooled generator validity numbers over ``stages``."""
    queue = [value for stage in stages for value in stage.queue_ms]
    late = [value for stage in stages for value in stage.late_ms]
    return {
        "loadgen.queue_ms": nearest_rank(queue, 0.99) if queue else 0.0,
        "loadgen.late_ms": nearest_rank(late, 0.99) if late else 0.0,
    }

