"""Supporting experiment — the harvest itself (Sections I–II claims).

Validates that the shadow-relay attack actually collects the population:
39,824 onions from 58 IP addresses, versus the > 300 IPs a non-shadowing
attacker would need (footnote 3).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional

from repro import io as repro_io
from repro.analysis.report import ExperimentReport
from repro.hs.publisher import PublishScheduler
from repro.population import GeneratedPopulation, generate_population
from repro.sim.clock import DAY, HOUR, Timestamp
from repro.sim.rng import derive_rng
from repro.store import ArtifactStore, Stage
from repro.trawl import HarvestResult, TrawlAttack, TrawlConfig, naive_ip_requirement
from repro.worldbuild import HonestNetworkSpec, build_honest_network


PAPER_ONIONS = 39_824
PAPER_ATTACK_IPS = 58
PAPER_NAIVE_IPS = 300  # "more than 300 IP addresses for at least 27 hours"
PAPER_HSDIR_COUNT_2013 = 1_300  # ring size at measurement time (approx.)


@dataclass
class HarvestExperimentResult:
    """Outcome of the harvest validation.

    ``harvest`` (the raw per-onion collection) is ``None`` when the result
    was replayed from a store checkpoint; the scored aggregates and the
    report round-trip.
    """

    harvest: Optional[HarvestResult] = repro_io.transient()
    published_onions: int = 0
    harvest_fraction: float = 0.0
    naive_ips_needed: int = 0
    hsdir_count: int = 0
    report: ExperimentReport = field(default_factory=lambda: ExperimentReport("harvest"))


def run_harvest(
    seed: int = 0,
    scale: float = 0.1,
    population: Optional[GeneratedPopulation] = None,
    relay_count: Optional[int] = None,
    ip_count: int = 58,
    relays_per_ip: int = 24,
    sweep_hours: int = 12,
    store: Optional[ArtifactStore] = None,
) -> HarvestExperimentResult:
    """Run the shadow-relay harvest and score its coverage.

    With ``store`` the whole validation is one checkpoint; a warm run
    replays the aggregates and report without rebuilding the network.
    """
    if population is None:
        population = generate_population(seed=seed, scale=scale)
    else:
        scale = population.spec.total_onions / PAPER_ONIONS
    if relay_count is None:
        relay_count = max(60, round(1_450 * scale))

    if store is not None:
        stage = Stage.of("harvest", HarvestExperimentResult)
        key_config = {
            "seed": seed,
            "population": {"seed": population.seed, "spec": asdict(population.spec)},
            "relay_count": relay_count,
            "ip_count": ip_count,
            "relays_per_ip": relays_per_ip,
            "sweep_hours": sweep_hours,
        }
        return store.run(
            stage,
            key_config,
            lambda: run_harvest(
                seed=seed,
                population=population,
                relay_count=relay_count,
                ip_count=ip_count,
                relays_per_ip=relays_per_ip,
                sweep_hours=sweep_hours,
            ),
        )

    start: Timestamp = population.harvest_date - (26 + 2) * HOUR
    network, pool = build_honest_network(
        seed,
        start,
        HonestNetworkSpec(relay_count=relay_count),
        rng_label="harvest-net",
    )

    publisher = PublishScheduler(network, population.services)
    publisher.publish_initial(start)

    attack = TrawlAttack(
        network,
        TrawlConfig(
            ip_count=ip_count,
            relays_per_ip=relays_per_ip,
            ripen_hours=26,
            sweep_hours=sweep_hours,
        ),
        derive_rng(seed, "harvest", "attack"),
        pool,
    )
    harvest = attack.run(population.services, publisher)

    published = sum(
        1
        for record in population.records
        if record.service.is_online(network.clock.now - DAY)
    )
    fraction = len(harvest.onions) / published if published else 0.0
    hsdirs = network.consensus.hsdir_count
    naive = naive_ip_requirement(hsdirs)

    result = HarvestExperimentResult(
        harvest=harvest,
        published_onions=published,
        harvest_fraction=fraction,
        naive_ips_needed=naive,
        hsdir_count=hsdirs,
    )
    report = ExperimentReport(experiment="harvest-shadow-relays")
    report.add("onion addresses collected", PAPER_ONIONS * scale, len(harvest.onions))
    report.add("harvest coverage fraction", 0.98, round(fraction, 3))
    report.add("attacker IP addresses", PAPER_ATTACK_IPS, ip_count)
    report.add(
        "naive attack IPs needed (paper: >300 at 2013 ring size)",
        round(PAPER_NAIVE_IPS * hsdirs / 1_200),
        naive,
    )
    report.note(
        "the flaw's leverage: shadowing sweeps the ring with "
        f"{ip_count} IPs where a consensus-limited attacker needs {naive}"
    )
    result.report = report
    return result
