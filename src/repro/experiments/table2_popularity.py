"""Table II — popularity of hidden services (Section V).

Full pipeline:  build the Tor network and publish the whole population →
run the shadow-relay sweep with client traffic interleaved → read request
counts off the attacker's directories → resolve descriptor IDs over the
multi-day window → normalise to per-2-hour rates → rank → label known
addresses and *investigate* the anonymous head (the Goldnet forensics).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from repro import io as repro_io
from repro.analysis.report import ExperimentReport
from repro.client.workload import PopularityWorkload, WorkloadReport
from repro.crypto.keys import KeyPair
from repro.crypto.onion import OnionAddress
from repro.errors import ConfigError
from repro.hs.publisher import PublishScheduler
from repro.net.address import AddressPool
from repro.net.geoip import GeoIP
from repro.net.transport import TorTransport
from repro.popularity import (
    DescriptorResolver,
    PopularityRanking,
    ResolutionResult,
    ServiceLabeler,
    investigate_goldnet,
)
from repro.popularity.labels import GoldnetFinding
from repro.population import GeneratedPopulation, generate_population
from repro.parallel import resolve_workers
from repro.relay.relay import Relay
from repro.sim.clock import DAY, HOUR, SimClock, Timestamp, parse_date
from repro.sim.rng import derive_rng
from repro.store import ArtifactStore, Stage
from repro.tornet import TorNetwork
from repro.trawl import TrawlAttack, TrawlConfig


# Section V aggregates (full scale).
PAPER_TOTAL_REQUESTS = 1_031_176
PAPER_UNIQUE_IDS = 29_123
PAPER_RESOLVED_IDS = 6_113
PAPER_RESOLVED_ONIONS = 3_140
PAPER_PHANTOM_FRACTION = 0.80
PAPER_GOLDNET_COUNT = 9
PAPER_GOLDNET_SERVERS = 2

# Paper ranks for spot-checked services.
PAPER_RANKS = {
    "silkroad": 18,
    "freedom-hosting": 27,
    "blackmarket-reloaded": 62,
    "duckduckgo": 157,
    "torhost-main": 547,
}
PAPER_RATES = {
    "goldnet-1": 13_714,
    "silkroad": 1_175,
    "blackmarket-reloaded": 172,
    "duckduckgo": 55,
}

# Labels the 2013 investigators had out of band: publicly known addresses
# (Hidden Wiki, Rapid7's Skynet write-up, …).  Everything else in the
# ranking starts as <n/a> and only forensics can name it.
PUBLICLY_KNOWN_LABELS = {
    "silkroad": "Silk Road",
    "silkroad-wiki": "SilkRoad(wiki)",
    "blackmarket-reloaded": "BlckMrktReloaded",
    "duckduckgo": "DuckDuckGo",
    "freedom-hosting": "FreedomHosting",
    "tordir": "TorDir",
    "onion-bookmarks": "Onion Bookmarks",
    "torhost-main": "Tor Host",
    "bcmine-1": "BcMine",
    "bcmine-2": "BcMine",
}
SKYNET_LABEL = "Skynet"
ADULT_LABEL = "Adult"


@dataclass
class Table2Result:
    """The regenerated Table II plus Section V aggregates.

    ``resolution`` and ``workload_report`` are intermediate state: present
    on a full run, ``None`` when the result was replayed from a store
    checkpoint (the ranking and report round-trip; the intermediates are
    not part of any emitted artifact).
    """

    ranking: PopularityRanking
    resolution: Optional[ResolutionResult] = repro_io.transient()
    workload_report: Optional[WorkloadReport] = repro_io.transient()
    total_requests_observed: int = 0
    unique_ids_observed: int = 0
    #: Already folded into the ranking labels and the report.
    goldnet_findings: List[GoldnetFinding] = repro_io.transient(list)
    report: ExperimentReport = field(default_factory=lambda: ExperimentReport("table2"))
    label_to_onion: Dict[str, OnionAddress] = field(default_factory=dict)
    #: Traffic-shape label (``machine``/``human``/``low-volume``) per
    #: resolved onion, from the batched shape kernel over the attacker's
    #: merged request logs.  Intermediate state like ``resolution``: ``None``
    #: when replayed from a store checkpoint.
    shape_labels: Optional[Dict[OnionAddress, str]] = repro_io.transient()

    def rank_of_label(self, label: str) -> Optional[int]:
        """Measured rank of a ground-truth-labelled service."""
        onion = self.label_to_onion.get(label)
        if onion is None:
            return None
        return self.ranking.rank_of(onion)


def _classify_resolved_shapes(
    network: TorNetwork,
    attack: TrawlAttack,
    resolution: ResolutionResult,
    window_start: Timestamp,
    window_end: Timestamp,
) -> Dict[OnionAddress, str]:
    """Shape-classify every resolved onion from the attacker's own logs.

    The attacker relays' detailed request logs are merged into one
    synthetic directory log, each resolved onion's per-hour series is one
    packed-array gather over its descriptor IDs, and the whole population
    is labelled in a single :func:`classify_services_by_shape` batch — the
    Section V forensic that separates botnet beacons from human browsing
    without touching any content.
    """
    from repro.hsdir.directory import HSDirServer
    from repro.popularity.timeseries import (
        classify_services_by_shape,
        series_from_log,
    )

    if attack.fleet is None or not resolution.id_to_onion:
        return {}
    merged = HSDirServer(relay_id=-1, keep_log=True)
    for relay in attack.fleet.all_relays:
        merged.request_log.extend(
            network.hsdir_server_for(relay).request_log
        )
    ids_per_onion: Dict[OnionAddress, List[bytes]] = {}
    for desc_id, onion in resolution.id_to_onion.items():
        ids_per_onion.setdefault(onion, []).append(desc_id)
    series = {
        onion: series_from_log(
            merged, window_start, window_end, descriptor_ids=ids
        )
        for onion, ids in sorted(ids_per_onion.items())
    }
    return classify_services_by_shape(series)


def _build_honest_network(
    seed: int, relay_count: int, start: Timestamp
) -> tuple[TorNetwork, AddressPool]:
    rng = derive_rng(seed, "table2", "honest")
    pool = AddressPool(derive_rng(seed, "table2", "ips"))
    network = TorNetwork(clock=SimClock(start), keep_archive=False)
    for index in range(relay_count):
        network.add_relay(
            Relay(
                nickname=f"relay{index:05d}",
                ip=pool.allocate(),
                or_port=9001,
                keypair=KeyPair.generate(rng),
                bandwidth=rng.randint(100, 5000),
                started_at=start - rng.randint(5, 500) * DAY,
            )
        )
    network.rebuild_consensus(start)
    return network, pool


def run_table2(
    seed: int = 0,
    scale: float = 1.0,
    population: Optional[GeneratedPopulation] = None,
    relay_count: Optional[int] = None,
    sweep_hours: int = 12,
    rotation_interval_hours: int = 2,
    relays_per_ip: int = 24,
    thinning: float = 1.0,
    workers: Optional[int] = None,
    store: Optional[ArtifactStore] = None,
) -> Table2Result:
    """Regenerate Table II at ``scale``.

    The harvest window spans ``sweep_hours``; workload rates are Table II's
    per-2-hour rates scaled to the window, and observed counts are
    normalised back to per-2-hour rates using the attacker's own ring
    coverage history.

    ``thinning`` < 1 emits a Poisson-thinned sample of the client traffic
    and un-thins the reported rates — statistically equivalent for every
    rate estimate (per-ID counts scale linearly) while cutting the bench's
    fetch count.  Unique-ID and resolved-onion counts are only mildly
    affected as long as ``sweep_hours/2 × thinning ≥ 1`` (every tail
    service still emits its per-2h volume at least once).

    With ``store`` the whole experiment is one checkpoint: a warm run
    replays the ranking and report without rebuilding the network (the
    intermediate ``resolution``/``workload_report`` stay ``None``).
    """
    if not 0 < thinning <= 1:
        raise ConfigError(f"thinning must be in (0, 1]: {thinning}")
    if population is None:
        population = generate_population(seed=seed, scale=scale)
    else:
        scale = population.spec.total_onions / 39_824

    def compute() -> Table2Result:
        return _compute_table2(
            seed=seed,
            scale=scale,
            population=population,
            relay_count=relay_count,
            sweep_hours=sweep_hours,
            rotation_interval_hours=rotation_interval_hours,
            relays_per_ip=relays_per_ip,
            thinning=thinning,
            workers=workers,
        )

    if store is None:
        return compute()
    stage = Stage.of("table2", Table2Result)
    config = {
        "seed": seed,
        "population": {"seed": population.seed, "spec": asdict(population.spec)},
        "relay_count": relay_count,
        "sweep_hours": sweep_hours,
        "rotation_interval_hours": rotation_interval_hours,
        "relays_per_ip": relays_per_ip,
        "thinning": thinning,
        "workers": resolve_workers(workers),
    }
    return store.run(stage, config, compute)


def _compute_table2(
    seed: int,
    scale: float,
    population: GeneratedPopulation,
    relay_count: Optional[int],
    sweep_hours: int,
    rotation_interval_hours: int,
    relays_per_ip: int,
    thinning: float,
    workers: Optional[int],
) -> Table2Result:
    spec = population.spec
    if relay_count is None:
        relay_count = max(60, round(1_450 * scale))

    # Attack starts ripening ~38 h before the harvest date so the sweep
    # covers 4 Feb 2013, the paper's collection date.
    harvest = population.harvest_date
    attack_start = harvest - (26 + 2) * HOUR
    network, pool = _build_honest_network(seed, relay_count, attack_start)

    publisher = PublishScheduler(network, population.services)
    publisher.publish_initial(attack_start)

    config = TrawlConfig(
        ip_count=58,
        relays_per_ip=relays_per_ip,
        ripen_hours=26,
        sweep_hours=sweep_hours,
        rotation_interval_hours=rotation_interval_hours,
    )
    attack = TrawlAttack(network, config, derive_rng(seed, "table2", "attack"), pool)

    # Client traffic: Table II rates are per 2 hours; emit proportionally
    # over the whole sweep, interleaved with the rotation.
    window_start = attack_start + config.ripen_hours * HOUR
    window_end = window_start + sweep_hours * HOUR
    workload_spec = population.build_workload_spec(window_start, window_end)
    rate_multiplier = sweep_hours / 2
    emission = rate_multiplier * thinning
    workload_spec.named_rates = {
        onion: round(rate * emission)
        for onion, rate in workload_spec.named_rates.items()
    }
    workload_spec.tail_total = round(workload_spec.tail_total * emission)
    workload_spec.ghost_total = round(workload_spec.ghost_total * emission)
    workload = PopularityWorkload(
        workload_spec, derive_rng(seed, "table2", "workload"), GeoIP(seed=seed)
    )
    planned = workload.plan_slices(sweep_hours)
    workload_report = WorkloadReport()

    def hour_hook(sweep_hour: int, now: Timestamp) -> None:
        workload.run_slice(
            network, planned, sweep_hour, now - HOUR, now, report=workload_report
        )

    harvest_result = attack.run(population.services, publisher, hour_hook=hour_hook)

    # Resolution over the paper's window: 28 Jan – 8 Feb 2013.
    resolver = DescriptorResolver(
        sorted(harvest_result.onions),
        parse_date("2013-01-28"),
        parse_date("2013-02-08"),
        workers=workers,
    )
    # Rate normalisation, batched: one observation pass over the ring
    # history covers every resolvable ID (the only ones the resolver's
    # normalizer is consulted for), each with its own validity window —
    # replacing a scalar per-ID snapshot walk with one vectorised ring
    # bisect per snapshot.  Rates are bit-identical to the scalar
    # ``normalized_rate`` calls this replaced.
    resolvable = [
        (desc_id, found, missing, resolver.validity_of(desc_id))
        for desc_id, (found, missing) in harvest_result.request_counts.items()
        if resolver.lookup(desc_id) is not None
    ]
    rate_by_id = {
        request[0]: rate
        for request, rate in zip(
            resolvable, attack.ring_history.normalized_rates_batch(resolvable)
        )
    }

    def unthinned_rate(desc_id, found, missing, validity=None):
        return rate_by_id[desc_id] / thinning

    resolution = resolver.resolve_normalized(
        harvest_result.request_counts, unthinned_rate
    )
    shape_labels = _classify_resolved_shapes(
        network, attack, resolution, window_start, window_end
    )

    # Labelling: out-of-band names first, then the Goldnet forensics.
    labeler = ServiceLabeler()
    for label, display in PUBLICLY_KNOWN_LABELS.items():
        onion = population.named_onions.get(label)
        if onion is not None:
            labeler.add_known(onion, display)
    for label, onion in population.named_onions.items():
        if label.startswith("skynet-cc"):
            labeler.add_known(onion, SKYNET_LABEL)
        elif label.startswith("adult-pop"):
            labeler.add_known(onion, ADULT_LABEL)
    ranking = PopularityRanking.from_counts(
        resolution.requests_per_onion,
        labeler.labels_for(resolution.requests_per_onion),
    )
    transport = TorTransport(
        population.registry,
        derive_rng(seed, "table2", "probe"),
        descriptor_available=population.descriptor_available,
    )
    goldnet_labels, findings = investigate_goldnet(
        transport, ranking, when=window_end + HOUR
    )
    ranking.relabel(goldnet_labels)

    result = Table2Result(
        ranking=ranking,
        resolution=resolution,
        workload_report=workload_report,
        total_requests_observed=harvest_result.total_requests,
        unique_ids_observed=harvest_result.unique_requested_ids,
        goldnet_findings=findings,
        label_to_onion=dict(population.named_onions),
        shape_labels=shape_labels,
    )

    # Normalised traffic total: what the attacker would have logged with
    # uninterrupted coverage over the whole sweep, i.e. the analogue of the
    # paper's 1,031,176 logged requests (the raw observation is scaled by
    # each ID's realised coverage, which depends on the rotation schedule).
    normalized_total = 0.0
    for rate in attack.ring_history.normalized_rates_batch(
        [
            (desc_id, found, missing, None)
            for desc_id, (found, missing) in harvest_result.request_counts.items()
        ]
    ):
        normalized_total += rate
    normalized_total *= rate_multiplier / thinning

    report = ExperimentReport(experiment="table2-popularity")
    volume_scale = scale * rate_multiplier
    report.add(
        "total requests (coverage-normalized)",
        PAPER_TOTAL_REQUESTS * volume_scale,
        round(normalized_total),
    )
    report.add(
        "total requests observed raw",
        None,
        harvest_result.total_requests,
    )
    report.add(
        "unique descriptor IDs", PAPER_UNIQUE_IDS * scale, harvest_result.unique_requested_ids
    )
    report.add("resolved IDs", PAPER_RESOLVED_IDS * scale, resolution.resolved_ids)
    report.add(
        "resolved onion addresses",
        PAPER_RESOLVED_ONIONS * scale,
        resolution.resolved_onion_count,
    )
    report.add(
        "phantom request fraction",
        PAPER_PHANTOM_FRACTION,
        round(resolution.phantom_request_fraction, 3),
    )
    report.add(
        "goldnet fronts found",
        round(PAPER_GOLDNET_COUNT * scale) if scale != 1.0 else PAPER_GOLDNET_COUNT,
        len(findings),
    )
    report.add(
        "goldnet physical servers",
        PAPER_GOLDNET_SERVERS,
        len({finding.server_group for finding in findings}),
    )
    for label, paper_rank in PAPER_RANKS.items():
        measured = result.rank_of_label(label)
        report.add(f"rank of {label}", paper_rank, measured if measured else -1)
    for label, paper_rate in PAPER_RATES.items():
        onion = population.named_onions.get(label)
        row = ranking.row_for(onion) if onion else None
        report.add(
            f"rate of {label} (/2h)",
            round(paper_rate * scale),
            row.requests if row else 0,
        )
    report.note(
        "counts are per-directory observations normalised to 2-hour windows "
        "via the attacker's ring-coverage history"
    )
    result.report = report
    return result
