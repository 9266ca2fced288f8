"""Section VII — Silk Road tracking detection over the consensus history."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro import io as repro_io
from repro.analysis.report import ExperimentReport
from repro.detection import (
    SilkroadStudy,
    SilkroadStudyConfig,
    TrackingAnalyzer,
    TrackingReport,
)
from repro.detection.analyzer import ServerKey
from repro.detection.silkroad import SilkroadWorld
from repro.parallel import resolve_workers
from repro.popularity.timeseries import (
    RequestTimeSeries,
    classify_services_by_shape,
)
from repro.sim.clock import DAY, Timestamp, parse_date
from repro.store import ArtifactStore, Stage


YEAR_WINDOWS: Tuple[Tuple[str, str, str], ...] = (
    ("year1", "2011-02-01", "2011-12-31"),
    ("year2", "2012-01-01", "2012-12-31"),
    ("year3", "2013-01-01", "2013-10-31"),
)

# The paper's qualitative findings per year window.
PAPER_FINDINGS = {
    "year1": "no clear indication of tracking (one strange server)",
    "year2": "our own measurement servers detected",
    "year3": "two external episodes: same-named set (ratio > 10k) and a "
    "six-relay/three-IP full takeover on 31 Aug 2013",
}


@dataclass
class Sec7Result:
    """Detection outcome per year window plus ground-truth scoring.

    ``world`` (and the per-year detection state) is ``None`` when the
    result was replayed from a store checkpoint — only the report, which
    is what the CLI emits, round-trips.
    """

    world: Optional[SilkroadWorld] = repro_io.transient()
    yearly_reports: Dict[str, TrackingReport] = repro_io.transient(dict)
    likely_by_year: Dict[str, Dict[ServerKey, List[str]]] = repro_io.transient(dict)
    takeovers: List[Tuple[Timestamp, List[ServerKey]]] = repro_io.transient(list)
    report: ExperimentReport = field(default_factory=lambda: ExperimentReport("sec7"))
    #: Responsibility-occupancy shape label per server per year window,
    #: from the batched shape kernel: a ``machine`` label means the server
    #: held responsible slots with near-constant per-period regularity —
    #: the cadence of a tracker grinding keys, not of chance placement.
    #: Intermediate state like ``world``: empty when replayed from a store.
    occupancy_labels: Dict[str, Dict[ServerKey, str]] = repro_io.transient(dict)

    def detected_entities(self, year: str) -> Set[str]:
        """Ground-truth entities whose servers were convicted in ``year``."""
        convicted = set(self.likely_by_year.get(year, {}))
        takeover_servers = {
            server for _, servers in self.takeovers for server in servers
        }
        entities: Set[str] = set()
        for entity, servers in self.world.ground_truth.items():
            if servers & convicted:
                entities.add(entity)
            if entity == "aug-episode" and servers & takeover_servers:
                entities.add(entity)
        return entities

    def honest_false_positives(self, year: str) -> int:
        """Convicted servers that belong to no injected entity."""
        injected = {
            server
            for servers in self.world.ground_truth.values()
            for server in servers
        }
        return sum(
            1
            for server in self.likely_by_year.get(year, {})
            if server not in injected
        )


def _occupancy_labels(
    yearly: TrackingReport, window_start: Timestamp
) -> Dict[ServerKey, str]:
    """Shape-classify each server's per-period responsibility occupancy.

    Every server's event stream becomes a daily time series (slots held per
    period), and the whole window's servers are labelled in one batched
    :func:`classify_services_by_shape` call.  A chance responsible HSDir
    shows a sparse, bursty series; a tracker that repositions every period
    shows the flat machine-like cadence the kernel flags.  ``min_requests``
    is two full periods' worth of slots, so one-off placements stay
    ``low-volume`` instead of reading as evidence either way.
    """
    if not yearly.servers:
        return {}
    length = 1 + max(
        event.period_index
        for record in yearly.servers.values()
        for event in record.events
    )
    series: Dict[ServerKey, RequestTimeSeries] = {}
    for server, record in sorted(yearly.servers.items()):
        counts = [0] * length
        for event in record.events:
            counts[event.period_index] += 1
        series[server] = RequestTimeSeries(
            start=int(window_start), bucket_seconds=DAY, counts=counts
        )
    return classify_services_by_shape(series, min_requests=12)


def run_sec7(
    seed: int = 0,
    scale: float = 1.0,
    config: Optional[SilkroadStudyConfig] = None,
    world: Optional[SilkroadWorld] = None,
    workers: Optional[int] = None,
    store: Optional[ArtifactStore] = None,
) -> Sec7Result:
    """Regenerate the Section VII analysis.

    With ``store`` (and no pre-built ``world``, whose identity the cache
    key could not capture) the whole analysis is one checkpoint; a warm
    run replays just the report.
    """
    if store is not None and world is None:
        stage = Stage.of("sec7", Sec7Result)
        study_config = (
            config if config is not None else SilkroadStudyConfig(seed=seed, scale=scale)
        )
        key_config = {
            "seed": seed,
            "study": asdict(study_config),
            "workers": resolve_workers(workers),
        }
        return store.run(
            stage,
            key_config,
            lambda: run_sec7(seed=seed, scale=scale, config=config, workers=workers),
        )
    if world is None:
        if config is None:
            config = SilkroadStudyConfig(seed=seed, scale=scale)
        world = SilkroadStudy(config).build()
    result = Sec7Result(world=world)
    analyzer = TrackingAnalyzer(world.archive)

    for year, start_text, end_text in YEAR_WINDOWS:
        yearly = analyzer.analyze(
            world.silkroad_onion,
            parse_date(start_text),
            parse_date(end_text),
            workers=workers,
        )
        result.yearly_reports[year] = yearly
        result.likely_by_year[year] = yearly.likely_trackers()
        result.occupancy_labels[year] = _occupancy_labels(
            yearly, parse_date(start_text)
        )
        if year == "year3":
            result.takeovers = yearly.full_takeovers()

    report = ExperimentReport(experiment="sec7-silkroad-tracking")
    report.add("year1 likely trackers", 0, len(result.likely_by_year["year1"]))
    report.add(
        "year2 detects our trackers",
        1,
        1 if "our-trackers" in result.detected_entities("year2") else 0,
    )
    report.add(
        "year3 detects may-episode",
        1,
        1 if "may-episode" in result.detected_entities("year3") else 0,
    )
    report.add(
        "year3 detects aug-episode",
        1,
        1 if "aug-episode" in result.detected_entities("year3") else 0,
    )
    report.add("full takeovers found", 1, len(result.takeovers))
    for year, _, _ in YEAR_WINDOWS:
        report.add(
            f"{year} honest false positives", 0, result.honest_false_positives(year)
        )
    year3 = result.yearly_reports["year3"]
    extreme = year3.servers_with_flag("ratio-extreme")
    may_servers = world.ground_truth.get("may-episode", set())
    aug_servers = world.ground_truth.get("aug-episode", set())
    only_injected_extreme = all(
        server in may_servers | aug_servers for server in extreme
    )
    report.add(
        "ratio>10k only in injected episodes", 1, 1 if only_injected_extreme else 0
    )
    for year, _, _ in YEAR_WINDOWS:
        report.note(f"{year}: paper — {PAPER_FINDINGS[year]}")
    result.report = report
    return result
