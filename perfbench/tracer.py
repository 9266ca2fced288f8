"""Span tracing of the system's layers, installed from outside ``src/``.

The traced run wraps public entry points of each ``repro`` package.  A
span records its name, its parent span, and monotonic start and end
times; spans stay in memory and are written out once, when the run ends.
A layer's *self time* is its spans' total duration minus the time their
child spans cover, so nested layers are never counted twice.

Hot leaf calls (HSDir fetches and stores, descriptor-ID derivations) get
count-only wrappers: a span per call would cost more than the call.

Wrappers replace the target everywhere the process holds a reference to
it: on its class (methods) or on every loaded ``repro`` module that bound
the function by name.  A target missing from the tree (renamed or
removed) is skipped and listed in the trace file, so the benchmark keeps
running against any version of the program.

Each traced process writes its own trace file when it ends;
:func:`layer_metrics` reduces the files of one run.  Work done inside
``repro.parallel`` pool processes is not traced; it is part of the
parent's ``parallel.pmap`` span.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from checks import ROUTE_CLASSES, route_class

#: (span name, "module:qualname") for every timed wrapper.
SPAN_TARGETS: Tuple[Tuple[str, str], ...] = (
    ("population.generate", "repro.population.generator:generate_population"),
    ("worldbuild.network", "repro.worldbuild:build_honest_network"),
    ("worldbuild.network", "repro.experiments.table2_popularity:_build_honest_network"),
    ("dirauth.consensus", "repro.tornet:TorNetwork.rebuild_consensus"),
    ("hs.publish", "repro.hs.publisher:PublishScheduler.publish_initial"),
    ("hs.maintain", "repro.hs.publisher:PublishScheduler.maintain"),
    ("trawl.sweep", "repro.trawl.attack:TrawlAttack.run"),
    ("client.workload", "repro.client.workload:PopularityWorkload.run_slice"),
    ("popularity.resolve", "repro.popularity.resolver:DescriptorResolver.__init__"),
    ("popularity.resolve", "repro.popularity.resolver:DescriptorResolver.resolve"),
    ("scan.scan", "repro.experiments.pipeline:MeasurementPipeline.scan"),
    ("crawl.crawl", "repro.experiments.pipeline:MeasurementPipeline.crawl"),
    ("classify.train", "repro.classify.training:build_language_detector"),
    ("classify.train", "repro.classify.training:build_topic_classifier"),
    ("classify.score", "repro.experiments.pipeline:MeasurementPipeline.classify"),
    ("parallel.pmap", "repro.parallel.executor:pmap"),
    ("detection.sec7", "repro.experiments.sec7_tracking:run_sec7"),
    ("tracking.fig3", "repro.experiments.fig3_geomap:run_fig3"),
    ("service.views", "repro.service.results:build_views"),
    ("service.api.etag", "repro.service.api:etag_of"),
)

#: (counter name, "module:qualname", depth) for count-only wrappers.  Depth
#: 0 counts calls; depth 1 adds ``len(result)``; depth 2 adds the lengths of
#: the result's rows (batch kernels return one row of IDs per onion).
COUNT_TARGETS: Tuple[Tuple[str, str, int], ...] = (
    ("hsdir.fetches", "repro.hsdir.directory:HSDirServer.fetch", 0),
    ("hsdir.stores", "repro.hsdir.directory:HSDirServer.store", 0),
    ("crypto.descriptor_ids", "repro.crypto.descriptor_id:descriptor_id", 0),
    ("crypto.descriptor_ids", "repro.crypto.descriptor_id:descriptor_ids_for_day_batch", 2),
    ("crypto.descriptor_ids", "repro.crypto.descriptor_id:descriptor_index_entries", 1),
    ("crypto.descriptor_ids", "repro.crypto.descriptor_id:descriptor_index_entries_batch", 2),
)

STORE_RUN = "repro.store.checkpoint:ArtifactStore.run"
SUPERVISE_RUN = "repro.supervise.supervisor:EpochSupervisor.run"
ROUTER_HANDLE = "repro.service.api:ServiceRouter.handle"

#: Header the load generator tags each request with, so a handle span
#: can be matched to the client-side latency of the same request.
REQUEST_ID_HEADER = "X-Perfbench-Id"

#: Span self times reported in seconds, as ``<metric>``: span names.
SELF_TIME_METRICS: Dict[str, Tuple[str, ...]] = {
    "population.generate_s": ("population.generate",),
    "worldbuild.network_s": ("worldbuild.network",),
    "dirauth.consensus_s": ("dirauth.consensus",),
    "hs.publish_s": ("hs.publish", "hs.maintain"),
    "trawl.sweep_s": ("trawl.sweep",),
    "client.workload_s": ("client.workload",),
    "popularity.resolve_s": ("popularity.resolve",),
    "scan.scan_s": ("scan.scan",),
    "crawl.crawl_s": ("crawl.crawl",),
    "classify.train_s": ("classify.train",),
    "classify.score_s": ("classify.score",),
    "parallel.pmap_s": ("parallel.pmap",),
    "detection.sec7_s": ("detection.sec7",),
    "tracking.fig3_s": ("tracking.fig3",),
    "store.run_overhead_s": ("store.run",),
    "service.views_s": ("service.views",),
}

#: Span call counts, as ``<metric>``: span name.
CALL_COUNT_METRICS: Dict[str, str] = {
    "dirauth.consensus_builds": "dirauth.consensus",
    "hs.maintain_calls": "hs.maintain",
    "trawl.sweeps": "trawl.sweep",
    "classify.trainings": "classify.train",
    "parallel.pmap_calls": "parallel.pmap",
}

#: Plain counters the wrappers keep, reported as they are.
COUNTER_METRICS: Tuple[str, ...] = (
    "hsdir.fetches",
    "hsdir.stores",
    "crypto.descriptor_ids",
    "store.hits",
    "store.misses",
    "store.bytes_written",
    "store.bytes_read",
    "supervise.restarts",
)

#: Route classes whose responses carry a body.
BODY_CLASSES: Tuple[str, ...] = tuple(cls for cls in ROUTE_CLASSES if cls != "not_modified")


def _resolve(target: str) -> Tuple[Any, str, Any]:
    """(owner, attribute, original) for ``module:Qual.name``; raises on miss."""
    module_name, qualname = target.split(":")
    owner: Any = importlib.import_module(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


class Tracer:
    """In-memory span and counter recorder with wrapper installation."""

    def __init__(self) -> None:
        #: (span id, parent id, name, start, end, attributes)
        self.spans: List[Tuple[int, int, str, float, float, Optional[dict]]] = []
        self.counts: Counter = Counter()
        self.missing: List[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed: List[Tuple[Any, str, Any]] = []

    # -- recording --------------------------------------------------------- #

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(
        self,
        name: str,
        fn: Callable,
        args: tuple,
        kwargs: dict,
        attrs: Optional[dict] = None,
    ) -> Any:
        """Run ``fn`` inside a span named ``name``."""
        stack = self._stack()
        parent = stack[-1] if stack else 0
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, name, start, end, attrs))

    # -- wrappers ---------------------------------------------------------- #

    def _span_wrapper(self, name: str, original: Callable) -> Callable:
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.call(name, original, args, kwargs)

        return wrapper

    def _count_wrapper(self, name: str, original: Callable, *, depth: int) -> Callable:
        counts = self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            if depth == 0:
                counts[name] += 1
            elif depth == 1:
                counts[name] += len(result)
            else:
                counts[name] += sum(len(row) for row in result)
            return result

        return wrapper

    def _store_run_wrapper(self, original: Callable) -> Callable:
        tracer = self

        @functools.wraps(original)
        def wrapper(store, stage, config, *args, **kwargs):
            computed = []

            def traced(compute):
                def run_compute():
                    computed.append(True)
                    return tracer.call("store.compute", compute, (), {})

                return run_compute

            if "compute" in kwargs:
                kwargs["compute"] = traced(kwargs["compute"])
            else:
                args = (traced(args[0]),) + args[1:]
            result = tracer.call(
                "store.run", original, (store, stage, config) + args, kwargs
            )
            size = 0
            digest = getattr(store, "last_digests", {}).get(stage.name)
            if digest is not None:
                size = store.cas.path_of(digest).stat().st_size
            kind, direction = (
                ("misses", "written") if computed else ("hits", "read")
            )
            tracer.counts[f"store.{kind}"] += 1
            tracer.counts[f"store.bytes_{direction}"] += size
            return result

        return wrapper

    def _supervise_wrapper(self, original: Callable) -> Callable:
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            outcome = tracer.call("supervise.run", original, args, kwargs)
            tracer.counts["supervise.restarts"] += outcome.manifest.restarts_used
            return outcome

        return wrapper

    def _handle_wrapper(self, original: Callable) -> Callable:
        tracer = self

        @functools.wraps(original)
        def wrapper(router, method, path, headers=None):
            attrs: Dict[str, Any] = {"path": path}
            if headers is not None:
                attrs["request_id"] = headers.get(REQUEST_ID_HEADER)
            response = tracer.call(
                "service.api.handle", original, (router, method, path, headers), {}, attrs
            )
            attrs["status"] = response.status
            attrs["bytes"] = len(response.body)
            return response

        return wrapper

    def install(self) -> None:
        """Wrap every target; missing targets are skipped and recorded."""
        import repro  # noqa: F401  (loads the package tree before rebinding)
        import repro.cli  # noqa: F401
        import repro.experiments  # noqa: F401
        import repro.service  # noqa: F401

        plan: List[Tuple[str, Callable[[Callable], Callable]]] = [
            (target, functools.partial(self._span_wrapper, name))
            for name, target in SPAN_TARGETS
        ]
        plan += [
            (target, functools.partial(self._count_wrapper, name, depth=depth))
            for name, target, depth in COUNT_TARGETS
        ]
        plan += [
            (STORE_RUN, self._store_run_wrapper),
            (SUPERVISE_RUN, self._supervise_wrapper),
            (ROUTER_HANDLE, self._handle_wrapper),
        ]
        for target, make in plan:
            try:
                owner, attr, original = _resolve(target)
            except (ImportError, AttributeError):
                self.missing.append(target)
                continue
            self._rebind(owner, attr, original, make(original))

    def _rebind(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            self._installed.append((owner, attr, original))
            return
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapper)
                    self._installed.append((module, name, original))

    def uninstall(self) -> None:
        """Put every original back (tests install and remove wrappers)."""
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- reduction --------------------------------------------------------- #

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per span name."""
        child_time: Dict[int, float] = defaultdict(float)
        for _, parent, _, start, end, _ in self.spans:
            if parent:
                child_time[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for span_id, _, name, start, end, _ in self.spans:
            totals[name] += (end - start) - child_time.get(span_id, 0.0)
        return totals

    def handled_requests(self) -> List[Dict[str, Any]]:
        """Per-request router records: class, handle and ETag ms, body bytes, id."""
        etag_time: Dict[int, float] = defaultdict(float)
        for _, parent, name, start, end, _ in self.spans:
            if parent and name == "service.api.etag":
                etag_time[parent] += end - start
        records = []
        for span_id, _, name, start, end, attrs in self.spans:
            if name != "service.api.handle" or not attrs or "status" not in attrs:
                continue
            records.append(
                {
                    "class": route_class(attrs["path"], attrs["status"]),
                    "ms": (end - start) * 1e3,
                    "etag_ms": etag_time.get(span_id, 0.0) * 1e3,
                    "bytes": attrs["bytes"],
                    "request_id": attrs.get("request_id"),
                }
            )
        return records

    def write(self, path: str) -> None:
        """Write every counter and span as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(
                json.dumps({"counts": dict(self.counts), "missing": self.missing}) + "\n"
            )
            for span_id, parent, name, start, end, attrs in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "start": start,
                            "end": end,
                            "attrs": attrs,
                        }
                    )
                    + "\n"
                )

    @classmethod
    def read(cls, path: str) -> "Tracer":
        """The spans and counters :meth:`write` wrote to ``path``."""
        tracer = cls()
        with open(path, encoding="utf-8") as handle:
            head = json.loads(handle.readline())
            tracer.counts.update(head["counts"])
            tracer.missing = head["missing"]
            for line in handle:
                row = json.loads(line)
                tracer.spans.append(
                    (row["id"], row["parent"], row["name"], row["start"], row["end"], row["attrs"])
                )
        return tracer


def _mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_metrics(
    traces: Sequence[Tracer],
    restarts: Sequence[Tracer],
    client_service_ms: Mapping[str, float],
) -> Dict[str, float]:
    """Every per-layer metric except the load generator's and the overhead.

    ``traces`` are the trace files of every traced process of one run,
    ``restarts`` those of the servers restarted over a warm store (also
    in ``traces``).  ``client_service_ms`` maps a request id to the
    client-side time from sending the request to reading the last body
    byte; the HTTP overhead is that time minus the router's handle time.
    """
    selfs: Counter = Counter()
    calls: Counter = Counter()
    counts: Counter = Counter()
    requests: List[Dict[str, Any]] = []
    for trace in traces:
        selfs.update(trace.self_times())
        calls.update(name for _, _, name, _, _, _ in trace.spans)
        counts.update(trace.counts)
        requests += trace.handled_requests()
    metrics: Dict[str, float] = {}
    for metric, names in SELF_TIME_METRICS.items():
        metrics[metric] = sum(selfs.get(name, 0.0) for name in names)
    for metric, name in CALL_COUNT_METRICS.items():
        metrics[metric] = calls.get(name, 0)
    for metric in COUNTER_METRICS:
        metrics[metric] = counts.get(metric, 0)
    hits = sum(trace.counts.get("store.hits", 0) for trace in restarts)
    misses = sum(trace.counts.get("store.misses", 0) for trace in restarts)
    metrics["store.restart_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0

    for cls in ROUTE_CLASSES:
        handled = [r for r in requests if r["class"] == cls]
        metrics[f"service.api.handle_ms.{cls}"] = _mean([r["ms"] for r in handled])
        metrics[f"service.api.etag_ms.{cls}"] = _mean([r["etag_ms"] for r in handled])
        if cls in BODY_CLASSES:
            metrics[f"service.api.body_bytes.{cls}"] = _mean([r["bytes"] for r in handled])
        overheads = [
            client_service_ms[r["request_id"]] - r["ms"]
            for r in handled
            if r["request_id"] in client_service_ms
        ]
        metrics[f"service.http.overhead_ms.{cls}"] = (
            statistics.median(overheads) if overheads else 0.0
        )
    return metrics
