"""Command-line interface: regenerate any of the paper's artifacts.

::

    python -m repro fig1   --scale 0.1
    python -m repro table1 --scale 0.1 --seed 3
    python -m repro fig2   --scale 0.1
    python -m repro table2 --scale 0.05 --sweep-hours 6
    python -m repro fig3   --clients 2000 --guards 12
    python -m repro sec7   --scale 0.3
    python -m repro harvest --scale 0.05 --ips 20
    python -m repro chaos  --scale 0.02 --rates 0,0.05,0.1
    python -m repro all    --scale 0.05 --fault-profile moderate
    python -m repro obs    --scale 0.02 --fault-profile moderate
    python -m repro all    --scale 0.05 --store .repro-store
    python -m repro store ls --store .repro-store
    python -m repro bench run --tier smoke --out /tmp/bench
    python -m repro bench compare baseline/ . --threshold 20
    python -m repro crashtest --scale 0.02 --crash-profile moderate

``--json PATH`` archives the paper-vs-measured report via :mod:`repro.io`.
``--metrics-out PATH`` (or ``$REPRO_METRICS``) additionally archives the
run's deterministic metrics/span snapshot (see :mod:`repro.obs`).
``--store DIR`` (or ``$REPRO_STORE``) checkpoints stage artifacts through
:mod:`repro.store`; a warm re-run replays every cached stage and emits
byte-identical reports.
Scale 1.0 is the paper's full size; small scales run in seconds.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

from repro import io as repro_io
from repro.analysis.report import ExperimentReport


def _add_common(parser: argparse.ArgumentParser, scale_default: float = 0.1) -> None:
    parser.add_argument("--seed", type=int, default=0, help="master RNG seed")
    parser.add_argument(
        "--scale",
        type=float,
        default=scale_default,
        help="world scale (1.0 = the paper's 39,824 onions)",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None, help="archive the report as JSON"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help=(
            "deterministic parallel workers (default: $REPRO_WORKERS, then 1; "
            "any value produces byte-identical output)"
        ),
    )


def _add_fault_profile(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--fault-profile",
        default=None,
        metavar="NAME",
        help=(
            "fault-injection profile: none, light, moderate, heavy "
            "(default: $REPRO_FAULTS, then none; deterministic at any "
            "worker count)"
        ),
    )


def _add_store(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help=(
            "checkpoint stage artifacts in this store directory (default: "
            "$REPRO_STORE, then off; warm re-runs skip cached stages and "
            "emit byte-identical reports)"
        ),
    )


def _open_store(args):
    """The run's ArtifactStore, or None when no store is configured."""
    from repro.store import open_store

    return open_store(getattr(args, "store", None))


def _add_metrics_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help=(
            "write the run's metrics/span snapshot here (default: "
            "$REPRO_METRICS, then off; .json extension selects JSON, "
            "anything else the Prometheus-style text rendering)"
        ),
    )


def _write_metrics(observer, args) -> None:
    """Write the observer snapshot when --metrics-out / $REPRO_METRICS asks."""
    from repro.obs import resolve_metrics_out, write_snapshot

    path = resolve_metrics_out(getattr(args, "metrics_out", None))
    if path is None or observer is None:
        return
    write_snapshot(observer, path)
    print(f"[metrics snapshot written to {path}]")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Content and popularity analysis of Tor hidden "
            "services' (ICDCS 2014): regenerate any table or figure."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in (
        ("fig1", "Fig 1: open-ports distribution + TLS findings"),
        ("table1", "Table I: HTTP(S)-connectable destinations"),
        ("fig2", "Fig 2: topic distribution + language statistics"),
    ):
        command = sub.add_parser(name, help=text)
        _add_common(command)
        _add_fault_profile(command)
        _add_metrics_out(command)
        _add_store(command)

    table2 = sub.add_parser("table2", help="Table II: popularity ranking")
    _add_common(table2, scale_default=0.05)
    _add_store(table2)
    table2.add_argument("--sweep-hours", type=int, default=6)
    table2.add_argument("--rotation-hours", type=int, default=1)
    table2.add_argument("--relays-per-ip", type=int, default=16)
    table2.add_argument("--thinning", type=float, default=1.0)
    table2.add_argument("--top", type=int, default=30, help="ranking rows to print")

    fig3 = sub.add_parser("fig3", help="Fig 3: client deanonymisation geomap")
    fig3.add_argument("--seed", type=int, default=0)
    fig3.add_argument("--relays", type=int, default=400)
    fig3.add_argument("--guards", type=int, default=12)
    fig3.add_argument("--clients", type=int, default=1500)
    fig3.add_argument("--days", type=int, default=2)
    fig3.add_argument("--json", metavar="PATH", default=None)

    sec6 = sub.add_parser("sec6", help="§VI: Silk Road seller identification")
    sec6.add_argument("--seed", type=int, default=0)
    sec6.add_argument("--relays", type=int, default=400)
    sec6.add_argument("--guards", type=int, default=14)
    sec6.add_argument("--buyers", type=int, default=800)
    sec6.add_argument("--sellers", type=int, default=40)
    sec6.add_argument("--days", type=int, default=7)
    sec6.add_argument("--json", metavar="PATH", default=None)

    sec7 = sub.add_parser("sec7", help="§VII: Silk Road tracking detection")
    _add_common(sec7, scale_default=0.25)
    _add_store(sec7)

    harvest = sub.add_parser("harvest", help="shadow-relay harvest validation")
    _add_common(harvest, scale_default=0.05)
    harvest.add_argument("--ips", type=int, default=20)
    harvest.add_argument("--relays-per-ip", type=int, default=16)
    harvest.add_argument("--sweep-hours", type=int, default=10)
    _add_store(harvest)

    everything = sub.add_parser("all", help="run every experiment (small scale)")
    _add_common(everything, scale_default=0.05)
    _add_fault_profile(everything)
    _add_metrics_out(everything)
    _add_store(everything)

    store = sub.add_parser(
        "store",
        help="inspect or maintain an artifact store (ls, gc, verify)",
        description=(
            "Operate on a repro.store directory: 'ls' renders the run "
            "ledger and indexed artifacts, 'gc' deletes objects no index "
            "entry references, 'verify' re-hashes every object (exits 1 "
            "on corruption) and reports, informationally, each cached "
            "artifact whose recorded code fingerprint differs from the "
            "current source's."
        ),
    )
    store.add_argument("action", choices=("ls", "gc", "verify"))
    store.add_argument(
        "--keep-epochs",
        type=int,
        default=None,
        metavar="N",
        help=(
            "gc only: ledger-aware retention — keep the newest N ledgered "
            "runs' artifacts (a service epoch ledgers as one run), unindex "
            "everything older, then sweep unreferenced objects"
        ),
    )
    _add_store(store)

    obs = sub.add_parser(
        "obs",
        help="run the small pipeline and print its metrics/span snapshot",
        description=(
            "Runs scan -> certificates -> crawl -> classify at the given "
            "scale and prints the deterministic observability snapshot "
            "(byte-identical at every --workers value)."
        ),
    )
    obs.add_argument("--seed", type=int, default=0, help="master RNG seed")
    obs.add_argument(
        "--scale",
        type=float,
        default=0.02,
        help="world scale (1.0 = the paper's 39,824 onions)",
    )
    obs.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help=(
            "deterministic parallel workers (default: $REPRO_WORKERS, then 1; "
            "any value produces byte-identical output)"
        ),
    )
    _add_fault_profile(obs)
    _add_metrics_out(obs)
    obs.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="snapshot rendering printed to stdout",
    )

    chaos = sub.add_parser(
        "chaos",
        help="chaos sweep: headline counts vs fault rate, ± retries",
    )
    _add_common(chaos, scale_default=0.02)
    chaos.add_argument(
        "--rates",
        default="0,0.02,0.05,0.1,0.2",
        metavar="R1,R2,...",
        help="comma-separated fault rates to sweep",
    )
    chaos.add_argument("--scan-days", type=int, default=8)

    lint = sub.add_parser(
        "lint",
        help=(
            "check determinism & convention rules "
            "(REP001-REP011, REP013-REP015)"
        ),
        description=(
            "Static analysis over the given paths: seeded-RNG discipline, "
            "sim-clock usage, the repro.errors hierarchy, stable set "
            "ordering, import layering, raw-concurrency containment, "
            "ad-hoc instrumentation (use repro.obs, not print/perf_counter), "
            "artifact-write containment (use repro.io/repro.store, not "
            "raw open/json.dump), supervision containment (REP014: "
            "teardown interception is repro.supervise's alone), network "
            "containment (REP015: sockets and HTTP belong to "
            "repro.service), plus the whole-program analyses: RNG "
            "stream-label lineage (REP011) and pmap shard safety (REP013). "
            "Exits 1 when findings remain."
        ),
    )
    lint.add_argument(
        "paths", nargs="*", default=["src/repro"], help="files or directories"
    )
    lint.add_argument(
        "--format",
        choices=("human", "json", "sarif"),
        default="human",
        help=(
            "output format (json: one record per finding; sarif: "
            "byte-stable SARIF 2.1.0 for CI annotation upload)"
        ),
    )
    lint.add_argument(
        "--fix",
        action="store_true",
        help=(
            "apply the mechanical autofixes findings carry (REP005 sorted "
            "wrapping), then re-lint; exits 1 only if unfixable findings "
            "remain"
        ),
    )
    lint.add_argument(
        "--rules",
        default=None,
        metavar="IDS",
        help="comma-separated rule subset, e.g. REP001,REP003",
    )
    lint.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="suppress findings recorded in this baseline file",
    )
    lint.add_argument(
        "--write-baseline",
        default=None,
        metavar="PATH",
        help="record current findings as the new baseline and exit 0",
    )

    bench = sub.add_parser(
        "bench",
        help="run perf workloads / compare BENCH_*.json trajectories",
        description=(
            "The perf-regression plane: 'run' measures hot-path workloads "
            "with the shared warmup/repeat policy and appends each result "
            "to its BENCH_<name>.json trajectory; 'compare' diffs "
            "trajectories and exits 1 on a wall-time regression past the "
            "threshold or on a kernel checksum drift, 2 when the documents "
            "are not comparable (missing baseline, schema mismatch)."
        ),
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)

    bench_run = bench_sub.add_parser(
        "run", help="measure workloads and append trajectory points"
    )
    bench_run.add_argument(
        "workloads",
        nargs="*",
        default=[],
        help="workload names (default: the hot-path workloads)",
    )
    bench_run.add_argument(
        "--tier",
        default="small",
        help="workload scale: smoke, small, or paper (default: small)",
    )
    bench_run.add_argument(
        "--kernels",
        default="scalar,batch",
        metavar="K1,K2",
        help="comma-separated kernels to measure (default: scalar,batch)",
    )
    bench_run.add_argument("--repeats", type=int, default=3)
    bench_run.add_argument("--warmup", type=int, default=1)
    bench_run.add_argument(
        "--label", default="", help="annotation stored on each point"
    )
    bench_run.add_argument(
        "--out",
        default=".",
        metavar="DIR",
        help="directory holding the BENCH_*.json trajectories (default: .)",
    )
    bench_run.add_argument(
        "--text",
        action="store_true",
        help="also print each trajectory's table view",
    )

    bench_compare = bench_sub.add_parser(
        "compare", help="diff trajectories; non-zero exit gates CI"
    )
    bench_compare.add_argument(
        "baseline", help="baseline BENCH_*.json file or directory of them"
    )
    bench_compare.add_argument(
        "current", help="current BENCH_*.json file or directory of them"
    )
    bench_compare.add_argument(
        "--threshold",
        type=float,
        default=None,
        metavar="PCT",
        help="wall-time slowdown tolerated before failing (default: 20)",
    )
    bench_compare.add_argument(
        "--report-only",
        action="store_true",
        help="print verdicts but always exit 0 (CI advisory mode)",
    )

    crashtest = sub.add_parser(
        "crashtest",
        help="prove crash-resume equivalence under an injected crash schedule",
        description=(
            "Runs the scan->certificates->crawl->classify campaign under "
            "the EpochSupervisor with deterministic process-death injection "
            "(repro.supervise), resuming each restart through store "
            "checkpoints, then runs the same campaign cold with no store "
            "and no crashes, and asserts the fig1/table1/fig2 reports are "
            "byte-identical.  Exits 1 on any byte difference, a degraded "
            "run, or fewer than --min-crashes injected deaths."
        ),
    )
    _add_common(crashtest, scale_default=0.02)
    _add_fault_profile(crashtest)
    _add_metrics_out(crashtest)
    crashtest.add_argument(
        "--crash-profile",
        default=None,
        metavar="NAME",
        help=(
            "crash schedule: none, light, moderate, heavy, or an explicit "
            "label@visit,label@visit schedule (default: $REPRO_CRASHES, "
            "then moderate)"
        ),
    )
    crashtest.add_argument(
        "--store",
        default=".repro-crashtest-store",
        metavar="DIR",
        help=(
            "scratch checkpoint store for the supervised run; wiped at the "
            "start of every invocation so each crashtest starts cold"
        ),
    )
    crashtest.add_argument(
        "--clean-json",
        default=None,
        metavar="PATH",
        help="archive the clean cold run's combined report document here",
    )
    crashtest.add_argument(
        "--manifest-out",
        default=None,
        metavar="PATH",
        help="archive the run's completeness manifest here",
    )
    crashtest.add_argument(
        "--min-crashes",
        type=int,
        default=5,
        metavar="N",
        help=(
            "require at least N injected crashes, at N distinct crash "
            "points, for the test to count (default: 5)"
        ),
    )

    serve = sub.add_parser(
        "serve",
        help="measurement-as-a-service: run epochs, then serve the query API",
        description=(
            "Runs --epochs supervised harvest->scan->certificates->crawl->"
            "classify->popularity epochs against a deterministically "
            "evolving world, checkpointing every stage through the store "
            "(epoch-pinned ledger runs, warm resume after crashes), then "
            "serves the per-epoch query views — rankings, port histograms, "
            "topic breakdowns, dossiers, deltas — over HTTP/JSON with "
            "digest ETags and conditional 304s."
        ),
    )
    _add_common(serve, scale_default=0.05)
    _add_fault_profile(serve)
    _add_metrics_out(serve)
    serve.add_argument(
        "--epochs",
        type=int,
        default=3,
        metavar="N",
        help="measurement epochs to compute before serving (default: 3)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8750,
        metavar="PORT",
        help="HTTP port to bind (default: 8750)",
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        metavar="ADDR",
        help="address to bind (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--http-workers",
        type=int,
        default=8,
        metavar="N",
        help="bound on concurrently handled HTTP requests (default: 8)",
    )
    serve.add_argument(
        "--crash-profile",
        default=None,
        metavar="NAME",
        help=(
            "per-epoch crash schedule: none, light, moderate, heavy, or an "
            "explicit label@visit,... schedule (default: $REPRO_CRASHES, "
            "then none); epochs warm-resume through the store after every "
            "injected death"
        ),
    )
    serve.add_argument(
        "--sweep-hours",
        type=int,
        default=12,
        metavar="H",
        help="harvest/popularity sweep length per epoch (default: 12)",
    )
    serve.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help=(
            "epoch checkpoint store (default: $REPRO_STORE, then "
            ".repro-service-store); a warm store replays finished epochs "
            "instead of recomputing them"
        ),
    )
    serve.add_argument(
        "--no-serve",
        action="store_true",
        help="compute the epochs and exit without binding the port",
    )

    return parser


def _emit(report: ExperimentReport, extra: str = "", json_path: Optional[str] = None) -> None:
    print(report.format())
    if extra:
        print()
        print(extra)
    if json_path:
        repro_io.save_json(repro_io.encode(report), json_path)
        print(f"\n[report archived to {json_path}]")


def _run_fig1(args) -> ExperimentReport:
    from repro.experiments import run_fig1

    result = run_fig1(
        seed=args.seed,
        scale=args.scale,
        workers=args.workers,
        fault_profile=args.fault_profile,
        store=_open_store(args),
    )
    _emit(result.report, result.format_figure(), args.json)
    _write_metrics(result.pipeline.observer if result.pipeline else None, args)
    return result.report


def _run_table1(args) -> ExperimentReport:
    from repro.experiments import run_table1

    result = run_table1(
        seed=args.seed,
        scale=args.scale,
        workers=args.workers,
        fault_profile=args.fault_profile,
        store=_open_store(args),
    )
    _emit(result.report, result.format_table(), args.json)
    _write_metrics(result.pipeline.observer if result.pipeline else None, args)
    return result.report


def _run_fig2(args) -> ExperimentReport:
    from repro.experiments import run_fig2

    result = run_fig2(
        seed=args.seed,
        scale=args.scale,
        workers=args.workers,
        fault_profile=args.fault_profile,
        store=_open_store(args),
    )
    _emit(result.report, result.format_figure(), args.json)
    _write_metrics(result.pipeline.observer if result.pipeline else None, args)
    return result.report


def _run_chaos(args) -> ExperimentReport:
    from repro.errors import FaultConfigError
    from repro.experiments import run_chaos_sweep

    try:
        rates = [
            float(token) for token in args.rates.split(",") if token.strip()
        ]
    except ValueError as exc:
        raise FaultConfigError(
            f"--rates must be comma-separated floats: {exc}"
        ) from exc
    result = run_chaos_sweep(
        seed=args.seed,
        scale=args.scale,
        fault_rates=rates,
        workers=args.workers,
        scan_days=args.scan_days,
    )
    _emit(result.report, result.format_table(), args.json)
    return result.report


def _run_table2(args) -> ExperimentReport:
    from repro.experiments import run_table2

    result = run_table2(
        seed=args.seed,
        scale=args.scale,
        sweep_hours=args.sweep_hours,
        rotation_interval_hours=args.rotation_hours,
        relays_per_ip=args.relays_per_ip,
        thinning=args.thinning,
        workers=args.workers,
        store=_open_store(args),
    )
    _emit(result.report, result.ranking.format_table(limit=args.top), args.json)
    return result.report


def _run_fig3(args) -> ExperimentReport:
    from repro.experiments import run_fig3

    result = run_fig3(
        seed=args.seed,
        honest_relays=args.relays,
        attacker_guards=args.guards,
        client_count=args.clients,
        observation_days=args.days,
    )
    _emit(result.report, result.format_map(), args.json)
    return result.report


def _run_sec6(args) -> ExperimentReport:
    from repro.experiments import run_sec6

    result = run_sec6(
        seed=args.seed,
        honest_relays=args.relays,
        attacker_guards=args.guards,
        buyer_count=args.buyers,
        seller_count=args.sellers,
        observation_days=args.days,
    )
    _emit(result.report, json_path=args.json)
    return result.report


def _run_sec7(args) -> ExperimentReport:
    from repro.experiments import run_sec7

    result = run_sec7(
        seed=args.seed,
        scale=args.scale,
        workers=args.workers,
        store=_open_store(args),
    )
    _emit(result.report, json_path=args.json)
    return result.report


def _run_harvest(args) -> ExperimentReport:
    from repro.experiments import run_harvest

    result = run_harvest(
        seed=args.seed,
        scale=args.scale,
        ip_count=args.ips,
        relays_per_ip=args.relays_per_ip,
        sweep_hours=args.sweep_hours,
        store=_open_store(args),
    )
    _emit(result.report, json_path=args.json)
    return result.report


def _run_all(args) -> ExperimentReport:
    from repro.experiments import (
        run_fig1,
        run_fig2,
        run_fig3,
        run_harvest,
        run_sec7,
        run_table1,
        run_table2,
    )
    from repro.experiments.pipeline import MeasurementPipeline

    # One store serves the whole run: the pipeline stages and the
    # table2/sec7/harvest experiments all checkpoint into it, so a warm
    # re-run recomputes nothing (fig3/sec6 are seconds-cheap and uncached).
    store = _open_store(args)
    pipeline = MeasurementPipeline(
        seed=args.seed,
        scale=args.scale,
        workers=args.workers,
        fault_profile=args.fault_profile,
        store=store,
    )
    summary = ExperimentReport(experiment="all-experiments")
    stages = [
        ("fig1", lambda: run_fig1(pipeline=pipeline)),
        ("table1", lambda: run_table1(pipeline=pipeline)),
        ("fig2", lambda: run_fig2(pipeline=pipeline)),
        (
            "table2",
            lambda: run_table2(
                seed=args.seed,
                scale=args.scale,
                sweep_hours=6,
                rotation_interval_hours=1,
                relays_per_ip=16,
                workers=args.workers,
                store=store,
            ),
        ),
        ("fig3", lambda: run_fig3(seed=args.seed, honest_relays=300, client_count=800)),
        (
            "sec7",
            lambda: run_sec7(
                seed=args.seed,
                scale=max(0.1, args.scale * 4),
                workers=args.workers,
                store=store,
            ),
        ),
        (
            "harvest",
            lambda: run_harvest(
                seed=args.seed,
                scale=args.scale,
                ip_count=16,
                relays_per_ip=16,
                store=store,
            ),
        ),
    ]
    for name, runner in stages:
        # Monotonic, not wall-clock (REP003): this measures elapsed runtime
        # only and must never feed simulated time.
        started = time.perf_counter()
        result = runner()
        elapsed = time.perf_counter() - started
        print(result.report.format())
        print(f"[{name} done in {elapsed:.1f}s]\n")
        summary.add(f"{name} max rel. error", None, round(result.report.max_error(), 3))
    _emit(summary, json_path=args.json)
    _write_metrics(pipeline.observer, args)
    return summary


def _run_obs(args) -> int:
    from repro.experiments.pipeline import MeasurementPipeline
    from repro.obs import render_json, render_text

    pipeline = MeasurementPipeline(
        seed=args.seed,
        scale=args.scale,
        workers=args.workers,
        fault_profile=args.fault_profile,
    )
    pipeline.scan()
    pipeline.certificates()
    pipeline.crawl()
    pipeline.classify()
    if args.format == "json":
        print(render_json(pipeline.observer))
    else:
        print(render_text(pipeline.observer))
    _write_metrics(pipeline.observer, args)
    return 0


def _run_store(args) -> int:
    from repro.store.admin import fingerprint_drift, gc, ls_lines, verify

    store = _open_store(args)
    if store is None:
        print(
            "repro store: no store configured (use --store DIR or $REPRO_STORE)",
            file=sys.stderr,
        )
        return 2
    if args.action == "ls":
        for line in ls_lines(store):
            print(line)
        return 0
    if args.action == "gc":
        if args.keep_epochs is not None:
            from repro.errors import StoreError
            from repro.store.admin import retain_recent_runs

            try:
                unindexed, removed, freed = retain_recent_runs(
                    store, args.keep_epochs
                )
            except StoreError as exc:
                print(f"repro store: error: {exc}", file=sys.stderr)
                return 2
            print(
                f"[gc: retired {unindexed} index entr(ies), removed "
                f"{removed} object(s), freed {freed} bytes; kept newest "
                f"{args.keep_epochs} run(s)]"
            )
            return 0
        removed, freed = gc(store)
        print(f"[gc: removed {removed} object(s), freed {freed} bytes]")
        return 0
    problems = verify(store)
    for problem in problems:
        print(problem)
    drift = fingerprint_drift(store)
    for line in drift:
        print(line)
    print(f"[verify: {len(problems)} problem(s), {len(drift)} drifted]")
    # Drift is informational — the artifacts are intact, just older than
    # the code; only corruption affects the exit code.
    return 0 if not problems else 1


def _run_lint(args) -> int:
    import json

    from repro.devtools import run_lint
    from repro.devtools.astcache import AstCache
    from repro.devtools.autofix import apply_fixes
    from repro.devtools.baseline import write_baseline
    from repro.devtools.sarif import render_sarif
    from repro.errors import ConfigError

    rule_ids = None
    if args.rules:
        rule_ids = [token.strip() for token in args.rules.split(",") if token.strip()]
    fixed_files: List[str] = []
    try:
        cache = AstCache()
        report = run_lint(
            args.paths, rule_ids=rule_ids, baseline_path=args.baseline, cache=cache
        )
        if args.fix:
            # Apply, invalidate only the rewritten parses, re-lint; repeat
            # while progress is made (a fix can unblock another), bounded
            # so a misbehaving fix can never loop forever.
            for _ in range(5):
                result = apply_fixes(report.findings)
                if not result.applied:
                    break
                fixed_files.extend(result.files)
                for path in result.files:
                    cache.invalidate(path)
                report = run_lint(
                    args.paths,
                    rule_ids=rule_ids,
                    baseline_path=args.baseline,
                    cache=cache,
                )
        if args.write_baseline is not None:
            recorded = write_baseline(args.write_baseline, report.findings)
            print(f"[baseline: {recorded} finding(s) recorded to {args.write_baseline}]")
            return 0
    except ConfigError as exc:
        print(f"repro lint: error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.format == "sarif":
            sys.stdout.write(render_sarif(report.findings))
        elif args.format == "json":
            print(
                json.dumps(
                    [finding.to_dict() for finding in report.findings], indent=2
                )
            )
        else:
            for finding in report.findings:
                print(finding.format())
            summary = (
                f"[{report.files_scanned} file(s) scanned, "
                f"{len(report.findings)} finding(s)"
            )
            if fixed_files:
                summary += f", {len(sorted(set(fixed_files)))} file(s) fixed"
            if report.suppressed:
                summary += f", {report.suppressed} suppressed"
            if report.baselined:
                summary += f", {report.baselined} baselined"
            print(summary + "]")
    except BrokenPipeError:
        # Output piped into e.g. ``head``; the findings still decide the
        # exit code.  Detach stdout so interpreter teardown stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
    return 0 if report.ok else 1


def _bench_run(args) -> int:
    import pathlib

    from repro.bench import (
        HOT_PATH_WORKLOADS,
        append_point,
        render_trajectory_text,
        run_workload,
        trajectory_path,
    )

    pathlib.Path(args.out).mkdir(parents=True, exist_ok=True)
    names = list(args.workloads) or list(HOT_PATH_WORKLOADS)
    kernels = [token.strip() for token in args.kernels.split(",") if token.strip()]
    for name in names:
        path = trajectory_path(name, args.out)
        for kernel in kernels:
            record = run_workload(
                name,
                tier=args.tier,
                kernel=kernel,
                repeats=args.repeats,
                warmup=args.warmup,
                label=args.label,
            )
            trajectory = append_point(path, record)
            print(
                f"{name} [{args.tier}/{kernel}] "
                f"min {record.wall.min_seconds:.4f}s over {record.repeats} "
                f"repeat(s), {record.items} items -> {path}"
            )
        if args.text:
            print(render_trajectory_text(trajectory))
    return 0


def _bench_compare(args) -> int:
    import pathlib

    from repro.bench import (
        EXIT_NOT_COMPARABLE,
        EXIT_OK,
        EXIT_REGRESSION,
        compare_trajectories,
        load_trajectory,
    )
    from repro.bench.compare import DEFAULT_THRESHOLD_PCT
    from repro.errors import BenchError

    threshold = DEFAULT_THRESHOLD_PCT if args.threshold is None else args.threshold
    baseline_root = pathlib.Path(args.baseline)
    current_root = pathlib.Path(args.current)
    if current_root.is_dir():
        pairs = [
            (baseline_root / path.name, path)
            for path in sorted(current_root.glob("BENCH_*.json"))
        ]
        if not pairs:
            print(f"no BENCH_*.json trajectories under {current_root}")
            return EXIT_OK if args.report_only else EXIT_NOT_COMPARABLE
    else:
        baseline_path = (
            baseline_root / current_root.name
            if baseline_root.is_dir()
            else baseline_root
        )
        pairs = [(baseline_path, current_root)]

    # A broken code path (exit 1) outranks a broken harness (exit 2):
    # CI must fix the regression first either way.
    worst = EXIT_OK
    for baseline_path, current_path in pairs:
        try:
            result = compare_trajectories(
                load_trajectory(baseline_path),
                load_trajectory(current_path),
                threshold_pct=threshold,
            )
        except BenchError as exc:
            print(f"{current_path.name}: not comparable: {exc}")
            if worst != EXIT_REGRESSION:
                worst = EXIT_NOT_COMPARABLE
            continue
        print(f"== {current_path.name} (threshold {threshold:.0f}%) ==")
        print(result.describe())
        if result.exit_code == EXIT_REGRESSION:
            worst = EXIT_REGRESSION
        elif result.exit_code == EXIT_NOT_COMPARABLE and worst != EXIT_REGRESSION:
            worst = EXIT_NOT_COMPARABLE
    if args.report_only and worst != EXIT_OK:
        print(f"[report-only: would exit {worst}]")
        return EXIT_OK
    return worst


def _campaign_document(pipeline) -> dict:
    """The fig1/table1/fig2 reports of a completed pipeline, as one dict.

    Every stage is already computed (or supervised to completion), so the
    experiment runners only read; this is the document the crashtest
    byte-compares between the crashed-and-resumed run and the clean one.
    """
    from repro.experiments import run_fig1, run_fig2, run_table1

    return {
        "fig1": repro_io.encode(run_fig1(pipeline=pipeline).report),
        "table1": repro_io.encode(run_table1(pipeline=pipeline).report),
        "fig2": repro_io.encode(run_fig2(pipeline=pipeline).report),
    }


def _run_crashtest(args) -> int:
    import json
    import pathlib
    import shutil

    from repro.experiments.pipeline import MeasurementPipeline
    from repro.obs.scope import Observer
    from repro.store import ArtifactStore
    from repro.supervise import (
        CRASHES_ENV,
        PIPELINE_STAGES,
        EpochSupervisor,
        build_crash_plan,
    )

    # --crash-profile, then $REPRO_CRASHES, then moderate: an inert plan
    # would make the whole exercise vacuous, so the fallback injects.
    spec = args.crash_profile or os.environ.get(CRASHES_ENV, "").strip() or "moderate"
    plan = build_crash_plan(spec, seed=args.seed)

    store_root = pathlib.Path(args.store)
    if store_root.exists():
        # The scratch store is this command's own working directory (see
        # --store help); a stale warm store would replay every stage and
        # dodge the commit-point crashes the test exists to inject.
        shutil.rmtree(store_root)

    supervisor_observer = Observer(name="crashtest")
    supervisor = EpochSupervisor(plan, observer=supervisor_observer)

    def factory(crash_points, quarantine):
        # A fresh pipeline AND a fresh store handle per incarnation — a
        # real crash loses all process state; only the store directory
        # survives, exactly as here.
        return MeasurementPipeline(
            seed=args.seed,
            scale=args.scale,
            workers=args.workers,
            fault_profile=args.fault_profile,
            store=ArtifactStore(store_root),
            crash_point=crash_points,
            quarantine=quarantine,
        )

    outcome = supervisor.run(factory, stages=PIPELINE_STAGES)
    manifest = outcome.manifest

    failures: List[str] = []
    crash_count = outcome.crash_points.crash_count
    distinct = outcome.crash_points.distinct_points()
    if crash_count < args.min_crashes:
        failures.append(
            f"only {crash_count} crash(es) fired, need >= {args.min_crashes}"
        )
    if len(distinct) < args.min_crashes:
        failures.append(
            f"only {len(distinct)} distinct crash point(s) hit "
            f"({', '.join(distinct)}), need >= {args.min_crashes}"
        )

    crashed_doc = None
    equal = False
    if manifest.complete:
        crashed_doc = _campaign_document(outcome.pipeline)
        clean_pipeline = MeasurementPipeline(
            seed=args.seed,
            scale=args.scale,
            workers=args.workers,
            fault_profile=args.fault_profile,
        )
        for stage in PIPELINE_STAGES:
            getattr(clean_pipeline, stage)()
        clean_doc = _campaign_document(clean_pipeline)
        crashed_text = json.dumps(crashed_doc, indent=2, sort_keys=True)
        clean_text = json.dumps(clean_doc, indent=2, sort_keys=True)
        equal = crashed_text == clean_text
        if not equal:
            failures.append(
                "crashed-and-resumed reports are NOT byte-identical to the "
                "clean cold run"
            )
        if args.json:
            repro_io.save_json(crashed_doc, args.json)
            print(f"[supervised-run reports archived to {args.json}]")
        if args.clean_json:
            repro_io.save_json(clean_doc, args.clean_json)
            print(f"[clean-run reports archived to {args.clean_json}]")
    else:
        failures.append(
            "supervised run did not complete: " + "; ".join(manifest.summary_lines())
        )

    if args.manifest_out:
        repro_io.save_json(repro_io.encode(manifest), args.manifest_out)
        print(f"[completeness manifest archived to {args.manifest_out}]")

    summary = ExperimentReport(experiment="crashtest")
    summary.add("crashes injected", None, crash_count)
    summary.add("distinct crash points", None, len(distinct))
    summary.add("restarts used", None, manifest.restarts_used)
    summary.add("backoff sim-seconds", None, manifest.backoff_sim_seconds)
    summary.add("stages complete", None, len(manifest.completed_stages()))
    summary.add("reports byte-identical", None, int(equal))
    summary.note(
        f"crash plan '{plan.name}': "
        + (", ".join(f"{r.point}@{r.visit}" for r in plan.rules) or "(inert)")
    )
    if distinct:
        summary.note("crash points hit: " + ", ".join(distinct))
    summary.add_completeness(manifest)
    _emit(summary)
    _write_metrics(supervisor_observer, args)

    for failure in failures:
        print(f"crashtest: FAIL: {failure}", file=sys.stderr)
    if not failures:
        print(
            f"crashtest: OK — survived {crash_count} crash(es) at "
            f"{len(distinct)} distinct point(s); reports byte-identical"
        )
    return 1 if failures else 0


def _run_serve(args) -> int:
    from repro.errors import ConfigError
    from repro.obs.scope import Observer
    from repro.service import (
        EpochController,
        ServiceConfig,
        ServiceRouter,
        serve,
    )
    from repro.service.schema import SCHEMA_VERSION
    from repro.store import resolve_store_dir

    try:
        config = ServiceConfig(
            seed=args.seed,
            scale=args.scale,
            epochs=args.epochs,
            workers=args.workers,
            fault_profile=args.fault_profile,
            crash_profile=args.crash_profile,
            sweep_hours=args.sweep_hours,
        )
    except ConfigError as exc:
        print(f"repro serve: error: {exc}", file=sys.stderr)
        return 2

    store_root = resolve_store_dir(args.store) or ".repro-service-store"
    observer = Observer(name="service")
    controller = EpochController(config, store_root, observer=observer)
    records = controller.run()
    for record in records:
        print(
            f"[epoch {record.epoch}: run={record.run_id} "
            f"crashes={record.crashes} restarts={record.restarts} "
            f"sim_seconds={record.sim_seconds}]"
        )
    if args.json:
        repro_io.save_json(
            {
                "schema": SCHEMA_VERSION,
                "kind": "epochs",
                "epochs": [record.summary() for record in records],
            },
            args.json,
        )
        print(f"[epoch listing archived to {args.json}]")
    # Snapshot before binding: the epochs are the deterministic part, and a
    # daemon killed by signal (the normal way this command ends) would
    # otherwise never write one.
    _write_metrics(observer, args)

    router = ServiceRouter(controller.records, observer)
    if args.no_serve:
        print(f"[{len(records)} epoch(s) computed; store: {store_root}]")
        return 0
    server = serve(
        router, host=args.host, port=args.port, workers=args.http_workers
    )
    print(
        f"[serving on http://{args.host}:{args.port} — "
        f"{len(records)} epoch(s) ready]",
        flush=True,
    )
    server.serve_forever()
    return 0


def _run_bench(args) -> int:
    from repro.errors import BenchError

    try:
        if args.bench_command == "run":
            return _bench_run(args)
        return _bench_compare(args)
    except BenchError as exc:
        print(f"repro bench: error: {exc}", file=sys.stderr)
        return 2


_RUNNERS = {
    "fig1": _run_fig1,
    "table1": _run_table1,
    "fig2": _run_fig2,
    "chaos": _run_chaos,
    "table2": _run_table2,
    "fig3": _run_fig3,
    "sec6": _run_sec6,
    "sec7": _run_sec7,
    "harvest": _run_harvest,
    "all": _run_all,
    "obs": _run_obs,
    "store": _run_store,
    "lint": _run_lint,
    "bench": _run_bench,
    "crashtest": _run_crashtest,
    "serve": _run_serve,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    result = _RUNNERS[args.command](args)
    return result if isinstance(result, int) else 0


if __name__ == "__main__":
    sys.exit(main())
