"""The epoch controller: continuous supervised measurement campaigns.

Turns the one-shot pipeline into a service loop.  Each epoch advances
the simulated world deterministically (:func:`repro.worldbuild.advance_epoch`),
runs harvest → scan → certificates → crawl → classify → popularity →
views under :class:`repro.supervise.EpochSupervisor` (so an injected
crash schedule restarts the incarnation and warm-resumes through the
store), and checkpoints every stage through one
:class:`~repro.store.checkpoint.ArtifactStore` with the epoch's ledger
run pinned to ``epoch-NNNNNN`` — every incarnation of an epoch, and
every warm replay of it, ledgers as the same run, which is what lets
``repro store gc --keep-epochs`` reason per epoch.

The controller/results/API split mirrors stem's controller/socket
separation: this module owns sequencing and state, never sockets; the
router (:mod:`repro.service.api`) owns request framing, never stages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.errors import ServiceError
from repro.experiments.harvest import HarvestExperimentResult, run_harvest
from repro.experiments.pipeline import MeasurementPipeline
from repro.experiments.table2_popularity import Table2Result, run_table2
from repro.obs.scope import Observer
from repro.parallel import ShardQuarantine, resolve_workers
from repro.service.config import ServiceConfig
from repro.service.results import build_views
from repro.service.schema import EpochViews
from repro.store import ArtifactStore, Stage, digest_of
from repro.supervise import (
    CompletenessManifest,
    EpochSupervisor,
    build_crash_plan,
    observer_sim_seconds,
    stage_enter,
    stage_exit,
)
from repro.worldbuild import EpochWorld, advance_epoch

#: The supervised stage methods of one service epoch, in dependency
#: order.  The first five live on the shared measurement pipeline; the
#: last two are the service's own (Table II sweep, then the query-view
#: materialization).
SERVICE_EPOCH_STAGES: Tuple[str, ...] = (
    "harvest",
    "scan",
    "certificates",
    "crawl",
    "classify",
    "popularity",
    "views",
)

#: Sim-second histogram buckets for epoch durations (one sweep is hours,
#: a full scan window is days).
EPOCH_DURATION_BUCKETS: Tuple[float, ...] = (
    3_600.0,
    21_600.0,
    86_400.0,
    259_200.0,
    604_800.0,
    1_209_600.0,
)


def epoch_run_id(epoch: int) -> str:
    """The pinned ledger run id for ``epoch`` (``epoch-NNNNNN``)."""
    return f"epoch-{epoch:06d}"


class ServiceEpochRun:
    """One incarnation of one epoch: the supervisor's pipeline object.

    Exposes every name in :data:`SERVICE_EPOCH_STAGES` as a memoized
    stage method plus the ``observer`` attribute the supervisor budgets
    against.  A fresh incarnation is built after every injected crash;
    the shared store (and the crash-point/quarantine state threaded in
    by the supervisor) is what makes the next incarnation warm.
    """

    def __init__(
        self,
        world: EpochWorld,
        config: ServiceConfig,
        store_root: str,
        crash_points: Optional[Callable[[str], None]],
        quarantine: Optional[ShardQuarantine],
        prev_views: Optional[Mapping[str, Dict[str, Any]]] = None,
    ) -> None:
        self.world = world
        self.config = config
        self.observer = Observer(name=epoch_run_id(world.epoch))
        self.crash_point = crash_points
        self.store = ArtifactStore(
            store_root, observer=self.observer, run_id=epoch_run_id(world.epoch)
        )
        self.pipeline = MeasurementPipeline(
            seed=world.seed,
            scale=world.scale,
            scan_days=config.scan_days,
            workers=config.workers,
            fault_profile=config.fault_profile,
            observer=self.observer,
            store=self.store,
            crash_point=crash_points,
            quarantine=quarantine,
        )
        self.prev_views = prev_views
        self._harvest: Optional[HarvestExperimentResult] = None
        self._popularity: Optional[Table2Result] = None
        self._views: Optional[Dict[str, Dict[str, Any]]] = None

    def _bracket(self, name: str):
        if self.crash_point is not None:
            self.crash_point(name)

    # -- supervised stage methods ----------------------------------------- #

    def harvest(self) -> HarvestExperimentResult:
        """Stage 0: the shadow-relay harvest against this epoch's world."""
        if self._harvest is None:
            self._bracket(stage_enter("harvest"))
            self._harvest = run_harvest(
                seed=self.world.seed,
                population=self.pipeline.population,
                sweep_hours=self.config.sweep_hours,
                store=self.store,
            )
            self._bracket(stage_exit("harvest"))
        return self._harvest

    def scan(self):
        return self.pipeline.scan()

    def certificates(self):
        return self.pipeline.certificates()

    def crawl(self):
        return self.pipeline.crawl()

    def classify(self):
        return self.pipeline.classify()

    def popularity(self) -> Table2Result:
        """Stage 5: the Table II popularity sweep (store stage ``table2``)."""
        if self._popularity is None:
            self._bracket(stage_enter("popularity"))
            self._popularity = run_table2(
                seed=self.world.seed,
                population=self.pipeline.population,
                sweep_hours=self.config.sweep_hours,
                workers=self.config.workers,
                store=self.store,
            )
            self._bracket(stage_exit("popularity"))
        return self._popularity

    def views(self) -> Dict[str, Dict[str, Any]]:
        """Stage 6: materialize the epoch's query views as one artifact.

        The cache key chains every upstream artifact digest plus the
        previous epoch's view digest, so a view checkpoint can only hit
        when the entire epoch — and the epoch before it — produced the
        same bytes.
        """
        if self._views is None:
            table2 = self.popularity()
            scan = self.pipeline.scan()
            classification = self.pipeline.classify()
            self._bracket(stage_enter("views"))
            stage = Stage.of("views", EpochViews)
            config = {
                "epoch": self.world.epoch,
                "seed": self.world.seed,
                "scale": self.world.scale,
                "prev_views": (
                    digest_of(dict(self.prev_views))
                    if self.prev_views is not None
                    else None
                ),
                "workers": resolve_workers(self.config.workers),
            }
            self._views = self.store.run(
                stage,
                config,
                lambda: EpochViews(
                    build_views(
                        self.world,
                        scan=scan,
                        classification=classification,
                        table2=table2,
                        prev_views=self.prev_views,
                    )
                ),
                upstream=(
                    "harvest",
                    "scan",
                    "certificates",
                    "crawl",
                    "classify",
                    "table2",
                ),
            ).views
            self._bracket(stage_exit("views"))
        return self._views


@dataclass(frozen=True)
class EpochRecord:
    """One completed epoch, as the API serves it."""

    epoch: int
    seed: int
    scale: float
    run_id: str
    views: Mapping[str, Dict[str, Any]]
    #: view kind → content digest of its envelope (doubles as the ETag).
    digests: Mapping[str, str]
    manifest: CompletenessManifest
    crashes: int
    restarts: int
    sim_seconds: int
    harvest: Mapping[str, Any]

    def summary(self) -> Dict[str, Any]:
        """The epoch's row in the ``/v1/epochs`` listing."""
        return {
            "epoch": self.epoch,
            "seed": self.seed,
            "scale": self.scale,
            "run_id": self.run_id,
            "crashes": self.crashes,
            "restarts": self.restarts,
            "sim_seconds": self.sim_seconds,
            "complete": self.manifest.complete,
            "harvest": dict(self.harvest),
            "views": dict(self.digests),
        }


@dataclass
class EpochController:
    """Drives supervised epochs and accumulates their records."""

    config: ServiceConfig
    store_root: str
    observer: Observer = field(default_factory=lambda: Observer(name="service"))
    records: List[EpochRecord] = field(default_factory=list)

    def run(self) -> List[EpochRecord]:
        """Run the configured number of epochs (continuing past any done)."""
        while len(self.records) < self.config.epochs:
            self.run_epoch()
        return list(self.records)

    def run_epoch(self) -> EpochRecord:
        """Advance the world one epoch and run it under supervision."""
        epoch = len(self.records)
        world = advance_epoch(self.config.seed, self.config.scale, epoch)
        prev_views = self.records[-1].views if self.records else None
        plan = build_crash_plan(self.config.crash_profile, seed=world.seed)
        supervisor = EpochSupervisor(plan, observer=self.observer)

        def factory(
            crash_points: Callable[[str], None], quarantine: ShardQuarantine
        ) -> ServiceEpochRun:
            return ServiceEpochRun(
                world,
                self.config,
                self.store_root,
                crash_points,
                quarantine,
                prev_views=prev_views,
            )

        with self.observer.span("service.epoch", epoch=epoch, seed=world.seed):
            outcome = supervisor.run(factory, stages=SERVICE_EPOCH_STAGES)
            run: ServiceEpochRun = outcome.pipeline
            if not outcome.manifest.complete:
                raise ServiceError(
                    f"epoch {epoch} did not complete: "
                    + "; ".join(outcome.manifest.summary_lines())
                )
            views = run.views()
            harvest = run.harvest()
            sim_seconds = int(observer_sim_seconds(run.observer))
            self.observer.absorb(run.observer)

        record = EpochRecord(
            epoch=epoch,
            seed=world.seed,
            scale=world.scale,
            run_id=epoch_run_id(epoch),
            views=views,
            digests={kind: digest_of(view) for kind, view in views.items()},
            manifest=outcome.manifest,
            crashes=len(outcome.manifest.crashes),
            restarts=outcome.manifest.restarts_used,
            sim_seconds=sim_seconds,
            harvest={
                "published_onions": harvest.published_onions,
                "harvest_fraction": harvest.harvest_fraction,
                "naive_ips_needed": harvest.naive_ips_needed,
                "hsdir_count": harvest.hsdir_count,
            },
        )
        self.records.append(record)
        self.observer.count("service_epochs_total")
        self.observer.gauge("service_current_epoch", epoch)
        self.observer.observe(
            "service_epoch_sim_seconds",
            float(sim_seconds),
            buckets=EPOCH_DURATION_BUCKETS,
        )
        return record
