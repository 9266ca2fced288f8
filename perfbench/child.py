"""Fresh-process entry point: every measured run of the system starts here.

    python3 perfbench/child.py probe --events F
    python3 perfbench/child.py all   --events F --seed N --scale S [--trace T]
    python3 perfbench/child.py serve --events F --seed N --scale S --epochs E
                                     --store D --port P [--trace T]

``--seed`` is the world seed passed to ``repro``.

Each mode first imports ``repro`` and writes a ``ready`` event stamped
with the monotonic clock, which the parent compares with its own clock
at spawn time to get the set-up time.  Events are JSON lines appended to
``--events``; the parent reads them while the child runs or after it ends.

- ``probe`` only imports.
- ``all`` runs ``repro all`` through ``repro.cli.main`` and checks the
  paper's findings on the results it returned.
- ``serve`` runs ``repro serve`` through ``repro.cli.main``, timing each
  epoch; the parent queries it over HTTP and stops it with SIGTERM.

With ``--trace`` the layers are wrapped (see ``tracer.py``) and the
spans are written to that file when the process ends; ``serve`` ends on
SIGTERM.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time

_START = time.monotonic()

import repro  # noqa: E402  (the import is what the set-up time measures)
import repro.cli  # noqa: E402
import repro.experiments  # noqa: E402
import repro.service  # noqa: E402

_READY = time.monotonic()

import checks  # noqa: E402
from tracer import Tracer  # noqa: E402

#: pmap pool size of the service face.
SERVE_WORKERS = 2


class Events:
    """Append-only JSON-lines event file, flushed per event."""

    def __init__(self, path: str) -> None:
        self._handle = open(path, "a", encoding="utf-8")

    def emit(self, event: str, **fields) -> None:
        self._handle.write(json.dumps({"event": event, **fields}) + "\n")
        self._handle.flush()


def batch_face(seed: int, scale: float) -> dict:
    """One ``repro all`` (workers 1, no store) with the findings checked."""
    results: dict = {}
    originals = {}
    for name in ("run_table2", "run_sec7", "run_harvest"):
        original = originals[name] = getattr(repro.experiments, name)

        def capturing(*args, _name=name, _original=original, **kwargs):
            results[_name] = _original(*args, **kwargs)
            return results[_name]

        setattr(repro.experiments, name, capturing)
    argv = ["all", "--seed", str(seed), "--scale", str(scale), "--workers", "1"]
    try:
        started = time.perf_counter()
        code = repro.cli.main(argv)
        seconds = time.perf_counter() - started
    finally:
        for name, original in originals.items():
            setattr(repro.experiments, name, original)
    failures = [] if code == 0 else [f"repro all exited {code}"]
    for name, check in (
        ("run_table2", checks.check_table2),
        ("run_sec7", checks.check_sec7),
        ("run_harvest", checks.check_harvest),
    ):
        failures += check(results[name]) if name in results else [f"{name} never ran"]
    return {"batch_s": seconds, "attempted": 4, "failures": failures}


def serve_argv(args) -> list:
    return [
        "serve",
        "--epochs", str(args.epochs),
        "--seed", str(args.seed),
        "--scale", str(args.scale),
        "--workers", str(SERVE_WORKERS),
        "--store", args.store,
        "--port", str(args.port),
    ]


def run_serve(args, events: Events) -> None:
    controller = repro.service.EpochController
    run_epoch = controller.run_epoch

    def timed_run_epoch(self):
        started = time.perf_counter()
        record = run_epoch(self)
        events.emit("epoch", epoch=record.epoch, seconds=time.perf_counter() - started)
        return record

    controller.run_epoch = timed_run_epoch
    # SIGTERM unwinds serve_forever like an exception, so a traced
    # server still writes its spans.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(0))
    repro.cli.main(serve_argv(args))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    parser.add_argument("mode", choices=("probe", "all", "serve"))
    parser.add_argument("--events", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--epochs", type=int)
    parser.add_argument("--store")
    parser.add_argument("--port", type=int)
    parser.add_argument("--trace")
    args = parser.parse_args(argv)
    events = Events(args.events)
    events.emit("ready", start=_START, t=_READY)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    try:
        if args.mode == "all":
            events.emit("batch", **batch_face(args.seed, args.scale))
        elif args.mode == "serve":
            run_serve(args, events)
    finally:
        if tracer is not None:
            tracer.write(args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
