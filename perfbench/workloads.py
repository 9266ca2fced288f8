"""The two workload drivers: ``batch_all`` and ``service_cycle``.

The system has two faces, and every run measures both, each in fresh
processes started through ``perfbench/child.py``:

- the *batch* face: cold ``repro all`` runs (workers 1, no store);
- the *service* face: a cold ``repro serve --epochs 2 --workers 2`` over
  a fresh store, a warm-up pass over every route and (``service_cycle``
  only) an open-loop HTTP query stream against it, then restarts over
  the warm store.

The workloads differ in which face runs at the README/ROADMAP reference
scale 0.05 and which runs small (0.01): ``batch_all`` is the paper
reproduction at full reference size, ``service_cycle`` the daemon at full
reference size.  So every end-to-end metric is measured on both
workloads, at two working-set sizes.
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import checks
import loadgen
import tracer

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"



@dataclass(frozen=True)
class Workload:
    """The scale of each face, the steps of a run, and which face the
    workload is about."""

    primary: str
    batch_scale: float
    service_scale: float
    #: A run's steps in order (see :meth:`Run.steps`): ``batch`` is one
    #: cold ``repro all``, ``cold`` a cold service start over a fresh
    #: store, ``restart`` a restart over the latest cold start's store.
    #: ``batch_s`` and ``restart_s`` are the medians of their steps, and
    #: ``epoch_s`` that of every cold start's epochs.
    steps: Tuple[str, ...]


#: On a shared VM host, speed drifts by a third within seconds, so the
#: samples of each metric are spread over the whole run rather than
#: taken back to back: a run's median then follows the host's speed
#: over the run, not over one stretch of it.
WORKLOADS: Dict[str, Workload] = {
    "batch_all": Workload(
        "batch", batch_scale=0.05, service_scale=0.01,
        steps=(
            "cold", "restart", "batch", "restart", "restart",
            "restart", "batch", "restart", "restart",
        ),
    ),
    "service_cycle": Workload(
        "service", batch_scale=0.01, service_scale=0.05,
        steps=(
            "batch", "cold", "restart", "batch", "restart",
            "restart", "batch", "restart", "restart", "batch",
        ),
    ),
}
#: The world every run measures: the reference seed of README and ROADMAP.
#: ``--seed`` varies the HTTP requests, not the world.  Generating a world
#: grinds vanity onions, a search whose cost is heavy-tailed in the seed
#: (0.1 s to 3.3 s per scale-0.05 population across seeds 0-14, and the
#: service regenerates it per epoch, cold or warm), so varying the world
#: spread restart_s by 100% across five seeds: that measures the seed,
#: not the code.
WORLD_SEED = 0
#: Epochs each service face computes before it serves.
EPOCHS = 2
#: Seconds a child may take before it is killed and the run fails.
CHILD_TIMEOUT_S = 170.0
#: Share of ``--seconds`` the query stage lasts: 1,000 requests at the
#: declared 20 s, so the stage's p99 has 10 samples beyond it.
QUERY_SHARE = 1 / 2
#: The traced run's steps: one of each, so every layer is traced once.
TRACED_STEPS = ("cold", "batch", "restart")
#: The traced run's query stage, in seconds.
TRACED_QUERY_SECONDS = 5.0


@dataclass
class Outcome:
    """Metrics (name → value, unit) plus operation counts for one run."""

    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)

    def add(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (value, unit)

    def absorb(self, event: dict) -> None:
        self.attempted += event["attempted"]
        self.failures += event["failures"]


class Child:
    """One fresh ``child.py`` process, reaped with its resource usage."""

    def __init__(self, work: pathlib.Path, mode: str, *args: str) -> None:
        work.mkdir(parents=True, exist_ok=True)
        self.events_path = work / f"events-{mode}-{time.monotonic_ns()}.jsonl"
        self.log_path = self.events_path.with_suffix(".log")
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
        command = [sys.executable, str(CHILD), mode, "--events", str(self.events_path)]
        self._log = open(self.log_path, "wb")
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            command + list(args),
            stdout=self._log,
            stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL,
            cwd=str(ROOT),
            env=env,
            # Its own process group, so stop() also reaches pool workers.
            start_new_session=True,
        )
        self.peak_rss_mb = 0.0

    def events(self, kind: str) -> List[dict]:
        if not self.events_path.exists():
            return []
        rows = [json.loads(line) for line in self.events_path.read_text().splitlines()]
        return [row for row in rows if row["event"] == kind]

    def event(self, kind: str) -> dict:
        """The child's last ``kind`` event; raises if it ended without one."""
        rows = self.events(kind)
        if not rows:
            raise RuntimeError(
                f"child exited {self.proc.returncode} without a {kind!r} event; "
                f"log:\n{self.log_tail()}"
            )
        return rows[-1]

    def setup_s(self) -> float:
        return self.event("ready")["t"] - self.spawned

    def log_tail(self, lines: int = 20) -> str:
        text = self.log_path.read_text(errors="replace") if self.log_path.exists() else ""
        return "\n".join(text.splitlines()[-lines:])

    def _reap(self, block: bool) -> bool:
        pid, status, usage = os.wait4(self.proc.pid, 0 if block else os.WNOHANG)
        if pid == 0:
            return False
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        # ru_maxrss is in KiB on Linux and covers the child's reaped children.
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self._log.close()
        return True

    def alive(self) -> bool:
        return self.proc.returncode is None and not self._reap(block=False)

    def wait(self, timeout: float = CHILD_TIMEOUT_S) -> int:
        deadline = time.monotonic() + timeout
        try:
            while self.alive():
                if time.monotonic() > deadline:
                    raise RuntimeError(f"child timed out after {timeout:.0f}s")
                time.sleep(0.02)
        finally:
            self.stop()
        return self.proc.returncode

    def _signal_group(self, signum: int) -> None:
        try:
            os.killpg(self.proc.pid, signum)
        except ProcessLookupError:
            pass

    def stop(self) -> None:
        """SIGTERM to the child's process group, SIGKILL after 10 s; reaps."""
        if self.alive():
            self._signal_group(signal.SIGTERM)
            deadline = time.monotonic() + 10.0
            while self.alive():
                if time.monotonic() > deadline:
                    self._signal_group(signal.SIGKILL)
                    self._reap(block=True)
                    break
                time.sleep(0.01)
        # Anything the child left behind in its group goes too.
        self._signal_group(signal.SIGKILL)


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def wait_healthy(child: Child, port: int, timeout: float = CHILD_TIMEOUT_S) -> float:
    """Poll ``/healthz`` until 200; seconds from the child's spawn."""
    send = loadgen.http_sender(port)
    deadline = child.spawned + timeout
    while time.monotonic() < deadline:
        if not child.alive():
            raise RuntimeError(f"server exited early; log:\n{child.log_tail()}")
        try:
            status, _, _ = send(checks.Request("/healthz", None, 200), None)
            if status == 200:
                return time.monotonic() - child.spawned
        except OSError:
            pass
        time.sleep(0.005)
    raise RuntimeError("server never became healthy")


def _args(**extra: object) -> List[str]:
    args = ["--seed", str(WORLD_SEED)]
    for key, value in extra.items():
        args += [f"--{key}", str(value)]
    return args


class Run:
    """The faces of one run, each in fresh processes, and their metrics.

    A cold service start is queried and stopped; later steps restart it
    over its warm store; the batch runs are spread among these steps
    (:meth:`steps`).  ``query_seconds`` is the length of the query stage
    after each cold start (0: the warm-up pass only).  With ``trace_dir``
    set, every child wraps the system's layers and writes its spans
    there.
    """

    def __init__(
        self,
        seed: int,
        work: pathlib.Path,
        query_seconds: float,
        trace_dir: Optional[pathlib.Path] = None,
    ) -> None:
        self.rng = random.Random(seed)
        self.work = work
        self.query_seconds = query_seconds
        self.trace_dir = trace_dir
        self.outcome = Outcome()
        self.setups: List[float] = []
        self.rss: List[float] = []
        self.batch_times: List[float] = []
        self.epoch_times: List[float] = []
        self.cold_times: List[float] = []
        self.restart_times: List[float] = []
        #: (role, trace file) per traced child; role is "batch", "cold"
        #: or "restart".
        self.traces: List[Tuple[str, pathlib.Path]] = []
        self.stages: List[loadgen.StageResult] = []

    def child(self, mode: str, role: str, **extra: object) -> Child:
        if self.trace_dir is not None:
            path = self.trace_dir / f"{role}-{len(self.traces)}.jsonl"
            self.traces.append((role, path))
            extra["trace"] = path
        return Child(self.work, mode, *_args(**extra))

    def finished(self, child: Child) -> None:
        self.setups.append(child.setup_s())
        self.rss.append(child.peak_rss_mb)

    def write_bytecode_caches(self) -> None:
        """One unmeasured import-only process.

        It lets the interpreter write its bytecode caches, a one-time
        install cost no user pays per run.
        """
        child = Child(self.work, "probe")
        if child.wait() != 0:
            raise RuntimeError(f"probe failed; log:\n{child.log_tail()}")

    def steps(self, workload: Workload, steps: Sequence[str]) -> None:
        """Both faces, one step after another (see :class:`Workload`)."""
        stores = []
        try:
            for step in steps:
                if step == "batch":
                    self.batch(workload.batch_scale)
                elif step == "cold":
                    service = self.cold(workload.service_scale, len(stores))
                    stores.append(service.store)
                else:
                    self.restart(service, verify=not self.restart_times)
        finally:
            for store in stores:
                shutil.rmtree(store, ignore_errors=True)

    def batch(self, scale: float) -> None:
        child = self.child("all", "batch", scale=scale)
        child.wait()
        event = child.event("batch")
        self.finished(child)
        self.outcome.absorb(event)
        self.batch_times.append(event["batch_s"])

    def _server(self, role: str, service: "Service") -> Tuple[Child, float]:
        child = self.child(
            "serve", role, scale=service.scale, epochs=EPOCHS,
            store=service.store, port=service.port,
        )
        try:
            return child, wait_healthy(child, service.port)
        except BaseException:
            child.stop()
            raise

    def _listing(self, send: loadgen.Send) -> dict:
        self.outcome.attempted += 1
        status, _, body = send(checks.Request("/v1/epochs", None, 200), None)
        if status != 200:
            raise RuntimeError(f"/v1/epochs answered {status}")
        return json.loads(body)

    def cold(self, scale: float, index: int) -> "Service":
        """Cold start over a fresh store, the query stage, then stop."""
        port = free_port()
        service = Service(
            scale, self.work / f"store-{scale}-{index}", port,
            loadgen.http_sender(port, id_header=tracer.REQUEST_ID_HEADER),
        )
        child, ready = self._server("cold", service)
        try:
            self.cold_times.append(ready)
            self.epoch_times += [event["seconds"] for event in child.events("epoch")]
            service.listing = self._listing(service.send)
            self.outcome.failures += checks.check_listing(service.listing, EPOCHS)
            self.query(service.send, service.listing)
        finally:
            child.stop()
        self.finished(child)
        return service

    def restart(self, service: "Service", verify: bool) -> None:
        """A restart over the warm store; ``verify`` adds a warm-up pass."""
        child, ready = self._server("restart", service)
        try:
            self.restart_times.append(ready)
            listing = self._listing(service.send)
            self.outcome.failures += checks.compare_listings(service.listing, listing)
            if verify:
                checker = checks.ResponseChecker(listing)
                _, made = loadgen.warm_up(service.send, checker, self.outcome.failures, self.rng)
                self.outcome.attempted += made
        finally:
            child.stop()
        self.finished(child)

    def query(self, send: loadgen.Send, listing: dict) -> None:
        """The warm-up pass, then the fixed-rate query stage."""
        checker = checks.ResponseChecker(listing)
        outcome = self.outcome
        catalog, made = loadgen.warm_up(send, checker, outcome.failures, self.rng)
        outcome.attempted += made
        if not self.query_seconds:
            return
        count = max(1, round(loadgen.FIXED_RATE * self.query_seconds))
        requests = loadgen.make_requests(self.rng, catalog, count)
        stage = loadgen.run_stage(
            send, checker, requests, loadgen.FIXED_RATE, self.rng, id_prefix=f"{len(self.stages)}/"
        )
        outcome.attempted += stage.attempted
        outcome.failures += stage.failures
        self.stages.append(stage)
        # Printed, not reported as metrics: their run-to-run spread on a
        # shared 2-core VM exceeds the largest bound (see README).
        outcome.notes += loadgen.describe(stage)

    def face_seconds(self, face: str) -> float:
        """Wall seconds of system work of one face: the ``repro all``
        calls, or the cold start plus the restarts."""
        if face == "batch":
            return sum(self.batch_times)
        return sum(self.cold_times) + sum(self.restart_times)

    def result(self) -> Outcome:
        outcome = self.outcome
        for name, samples in (
            ("batch_s", self.batch_times),
            ("epoch_s", self.epoch_times),
            ("restart_s", self.restart_times),
        ):
            outcome.notes.append(f"{name} samples: " + " ".join(f"{v:.3f}" for v in samples))
        outcome.add("batch_s", statistics.median(self.batch_times), "s")
        outcome.add("epoch_s", statistics.median(self.epoch_times), "s")
        outcome.add("restart_s", statistics.median(self.restart_times), "s")
        outcome.add("setup_s", statistics.median(self.setups), "s")
        outcome.add("peak_rss_mb", max(self.rss), "MB")
        return outcome

    def layers(self) -> Dict[str, float]:
        """The per-layer metrics from the traced children's span files."""
        traces = [(role, tracer.Tracer.read(str(path))) for role, path in self.traces]
        client_ms: Dict[str, float] = {}
        for stage in self.stages:
            client_ms.update(stage.service_ms)
        layers = tracer.layer_metrics(
            [trace for _, trace in traces],
            [trace for role, trace in traces if role == "restart"],
            client_ms,
        )
        layers.update(loadgen.summarize(self.stages))
        return layers


@dataclass
class Service:
    """A service face's store, port and the cold start's epoch listing."""

    scale: float
    store: pathlib.Path
    port: int
    send: loadgen.Send
    listing: dict = field(default_factory=dict)


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    work: pathlib.Path,
    workload: Optional[Workload] = None,
) -> Outcome:
    """One run of workload ``name``; ``workload`` overrides its scales (tests)."""
    workload = workload or WORKLOADS[name]
    if trace:
        return traced(name, seed, work, workload)
    # The query stream belongs to the service workload; elsewhere each
    # cold start gets the warm-up pass, which checks every route once.
    query_seconds = seconds * QUERY_SHARE if workload.primary == "service" else 0.0
    run = Run(seed, work, query_seconds=query_seconds)
    run.write_bytecode_caches()
    run.steps(workload, workload.steps)
    return run.result()


def traced(name: str, seed: int, work: pathlib.Path, workload: Workload) -> Outcome:
    """The per-layer run: the primary face untraced as the reference, then
    both faces traced, through the same drivers as an untraced run."""
    reference = Run(seed, work / "reference", query_seconds=0)
    reference.steps(workload, ("batch",) if workload.primary == "batch" else ("cold", "restart"))
    trace_dir = work.parent / f"trace-{name}-seed{seed}"
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    run = Run(seed, work / "traced", query_seconds=TRACED_QUERY_SECONDS, trace_dir=trace_dir)
    run.steps(workload, TRACED_STEPS)
    layers = run.layers()
    layers["trace.overhead_frac"] = (
        run.face_seconds(workload.primary) / reference.face_seconds(workload.primary) - 1.0
    )
    outcome = run.outcome
    outcome.attempted += reference.outcome.attempted
    outcome.failures += reference.outcome.failures + checks.check_clean_service(layers)
    outcome.metrics = {metric: (value, layer_unit(metric)) for metric, value in layers.items()}
    outcome.notes.append(f"spans written to {trace_dir}")
    return outcome


def layer_unit(name: str) -> str:
    """The unit a per-layer metric's name implies."""
    if name.endswith("_s"):
        return "s"
    if "_ms" in name:
        return "ms"
    if "bytes" in name:
        return "bytes"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"
