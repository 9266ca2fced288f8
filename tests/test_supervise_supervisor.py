"""Tests for repro.supervise — the EpochSupervisor and its manifest.

These run against a tiny fake pipeline (an in-memory "store" dict plays
the checkpoint role) so restart, budget, and degradation semantics are
exercised without paying for real campaigns; crash-resume equivalence on
the real ``MeasurementPipeline`` lives in test_supervise_equivalence.py.
"""

import pytest

from repro.errors import SupervisionError
from repro.io import decode, encode
from repro.obs.scope import Observer
from repro.supervise import (
    REASON_DEADLINE,
    REASON_NONE,
    REASON_RESTARTS,
    STAGE_COMPLETE,
    STAGE_DEADLINE_EXCEEDED,
    STAGE_MISSING,
    CompletenessManifest,
    CrashEvent,
    CrashPlan,
    CrashRule,
    EpochSupervisor,
    RestartPolicy,
    StageStatus,
    stage_enter,
    stage_exit,
    stage_methods,
    supervise_stages,
)

STAGES = ("alpha", "beta")


class FakeCheckpoints:
    """The part of a store a supervised pipeline needs: committed results
    that survive process death (here: survive factory re-invocation)."""

    def __init__(self):
        self.results = {}
        #: Every compute that actually ran, across all incarnations.
        self.computed = []


class FakePipeline:
    """Stage methods named like the supervisor's stage list, bracketed by
    the same enter/exit crash points the real pipeline threads."""

    def __init__(self, crash_points, quarantine, checkpoints, costs=None):
        self.crash_point = crash_points
        self.quarantine = quarantine
        self.checkpoints = checkpoints
        self.costs = costs or {}
        self.observer = Observer(name="fake")

    def _stage(self, name):
        self.crash_point(stage_enter(name))
        if name not in self.checkpoints.results:
            with self.observer.span(f"fake.{name}"):
                self.observer.add_time(self.costs.get(name, 5))
            self.checkpoints.computed.append(name)
            self.checkpoints.results[name] = f"{name}-result"
        self.crash_point(stage_exit(name))

    def alpha(self):
        self._stage("alpha")

    def beta(self):
        self._stage("beta")


def make_factory(checkpoints, costs=None):
    def factory(crash_points, quarantine):
        return FakePipeline(crash_points, quarantine, checkpoints, costs)

    return factory


def plan_of(*rules, seed=0):
    return CrashPlan(seed=seed, rules=tuple(rules), name="custom")


class TestCleanRun:
    def test_inert_plan_completes_without_restarts(self):
        checkpoints = FakeCheckpoints()
        outcome = supervise_stages(make_factory(checkpoints), plan_of(), stages=STAGES)
        manifest = outcome.manifest
        assert outcome.completed
        assert manifest.complete
        assert manifest.restarts_used == 0
        assert manifest.backoff_sim_seconds == 0
        assert manifest.reason == REASON_NONE
        assert [s.status for s in manifest.stages] == [STAGE_COMPLETE] * 2
        assert checkpoints.computed == ["alpha", "beta"]

    def test_stage_sim_seconds_come_from_the_span_tree(self):
        checkpoints = FakeCheckpoints()
        outcome = supervise_stages(
            make_factory(checkpoints, costs={"alpha": 30, "beta": 7}),
            plan_of(),
            stages=STAGES,
        )
        by_name = {s.name: s.sim_seconds for s in outcome.manifest.stages}
        assert by_name == {"alpha": 30, "beta": 7}


class TestRestarts:
    def test_crash_restarts_and_resumes_from_checkpoints(self):
        checkpoints = FakeCheckpoints()
        outcome = supervise_stages(
            make_factory(checkpoints),
            plan_of(CrashRule(stage_exit("alpha"), 1)),
            stages=STAGES,
        )
        manifest = outcome.manifest
        assert manifest.complete
        assert manifest.restarts_used == 1
        assert manifest.backoff_sim_seconds >= 1
        assert manifest.crashes == [CrashEvent(stage_exit("alpha"), 1)]
        # alpha committed before the exit crash, so the second life
        # replays it instead of recomputing — each stage computes once.
        assert checkpoints.computed == ["alpha", "beta"]

    def test_sim_seconds_keep_the_computing_lifes_cost(self):
        checkpoints = FakeCheckpoints()
        outcome = supervise_stages(
            make_factory(checkpoints, costs={"alpha": 40}),
            plan_of(CrashRule(stage_enter("beta"), 1)),
            stages=STAGES,
        )
        by_name = {s.name: s.sim_seconds for s in outcome.manifest.stages}
        # Life 2 replays alpha at ~0 sim-seconds; the manifest must still
        # report the 40 the computing life spent.
        assert by_name["alpha"] == 40

    def test_restarts_exhausted_degrades_instead_of_raising(self):
        checkpoints = FakeCheckpoints()
        plan = plan_of(
            CrashRule(stage_enter("alpha"), 1),
            CrashRule(stage_enter("alpha"), 2),
            CrashRule(stage_enter("alpha"), 3),
        )
        supervisor = EpochSupervisor(plan, policy=RestartPolicy(max_restarts=2))
        outcome = supervisor.run(make_factory(checkpoints), stages=STAGES)
        manifest = outcome.manifest
        assert not outcome.completed
        assert manifest.degraded
        assert manifest.reason == REASON_RESTARTS
        assert manifest.restarts_used == 2
        assert [s.status for s in manifest.stages] == [STAGE_MISSING] * 2
        assert checkpoints.computed == []

    def test_every_scheduled_crash_fires_exactly_once(self):
        checkpoints = FakeCheckpoints()
        plan = plan_of(
            CrashRule(stage_enter("alpha"), 1),
            CrashRule(stage_exit("alpha"), 1),
            CrashRule(stage_enter("beta"), 1),
        )
        outcome = supervise_stages(make_factory(checkpoints), plan, stages=STAGES)
        manifest = outcome.manifest
        assert manifest.complete
        assert manifest.restarts_used == 3
        assert [(e.point, e.visit) for e in manifest.crashes] == [
            (stage_enter("alpha"), 1),
            (stage_exit("alpha"), 1),
            (stage_enter("beta"), 1),
        ]
        assert outcome.crash_points.distinct_points() == (
            stage_enter("alpha"),
            stage_exit("alpha"),
            stage_enter("beta"),
        )


class TestDeadlines:
    def test_blown_budget_degrades_and_skips_remaining_stages(self):
        checkpoints = FakeCheckpoints()
        supervisor = EpochSupervisor(plan_of(), budgets={"alpha": 3})
        outcome = supervisor.run(
            make_factory(checkpoints, costs={"alpha": 10}), stages=STAGES
        )
        manifest = outcome.manifest
        assert manifest.degraded
        assert manifest.reason == REASON_DEADLINE
        by_name = {s.name: s.status for s in manifest.stages}
        assert by_name == {
            "alpha": STAGE_DEADLINE_EXCEEDED,
            "beta": STAGE_MISSING,
        }
        # Deadline degradation is not a crash: no restart was burned.
        assert manifest.restarts_used == 0
        assert checkpoints.computed == ["alpha"]

    def test_budget_within_bounds_is_silent(self):
        supervisor = EpochSupervisor(plan_of(), budgets={"alpha": 100, "beta": 100})
        outcome = supervisor.run(make_factory(FakeCheckpoints()), stages=STAGES)
        assert outcome.manifest.complete

    def test_non_positive_budget_rejected(self):
        with pytest.raises(SupervisionError):
            EpochSupervisor(plan_of(), budgets={"alpha": 0})


class TestSupervisorValidation:
    def test_empty_stage_list_rejected(self):
        with pytest.raises(SupervisionError):
            EpochSupervisor(plan_of()).run(make_factory(FakeCheckpoints()), stages=())

    def test_missing_stage_method_rejected(self):
        with pytest.raises(SupervisionError):
            EpochSupervisor(plan_of()).run(
                make_factory(FakeCheckpoints()), stages=("alpha", "gamma")
            )

    def test_stage_methods_helper(self):
        assert stage_methods(["a", "b"]) == ("a", "b")
        with pytest.raises(SupervisionError):
            stage_methods(["a", "a"])
        with pytest.raises(SupervisionError):
            stage_methods([""])


class TestRestartPolicy:
    def test_backoff_grows_exponentially_without_jitter(self):
        policy = RestartPolicy(base_delay=2, backoff_factor=2.0, jitter=0.0)
        assert [policy.backoff_before(n) for n in (1, 2, 3)] == [2, 4, 8]

    def test_backoff_caps_at_max_delay(self):
        policy = RestartPolicy(
            base_delay=2, backoff_factor=10.0, max_delay=50, jitter=0.0
        )
        assert policy.backoff_before(5) == 50

    def test_jitter_is_deterministic_per_seed(self):
        a = RestartPolicy(seed=1)
        b = RestartPolicy(seed=1)
        c = RestartPolicy(seed=2)
        values_a = [a.backoff_before(n) for n in range(1, 6)]
        assert values_a == [b.backoff_before(n) for n in range(1, 6)]
        assert values_a != [c.backoff_before(n) for n in range(1, 6)]

    def test_jitter_stays_within_bounds(self):
        policy = RestartPolicy(base_delay=100, backoff_factor=1.0, jitter=0.25)
        for restart in range(1, 20):
            assert 75 <= policy.backoff_before(restart) <= 125

    def test_no_backoff_precedes_restart_zero(self):
        with pytest.raises(SupervisionError):
            RestartPolicy().backoff_before(0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_restarts": -1},
            {"base_delay": 0},
            {"backoff_factor": 0.5},
            {"base_delay": 10, "max_delay": 5},
            {"jitter": 1.0},
        ],
    )
    def test_invalid_policies_rejected(self, kwargs):
        with pytest.raises(SupervisionError):
            RestartPolicy(**kwargs)


class TestManifest:
    def make_manifest(self):
        return CompletenessManifest(
            stages=[
                StageStatus("alpha", STAGE_COMPLETE, sim_seconds=12),
                StageStatus("beta", STAGE_DEADLINE_EXCEEDED, sim_seconds=99),
            ],
            crashes=[CrashEvent("stage:alpha:exit", 1)],
            restarts_used=1,
            backoff_sim_seconds=2,
            quarantined_items=[{"path": "classify", "index": 4, "error": "E: x"}],
            degraded=True,
            reason=REASON_DEADLINE,
            crash_plan={"name": "custom", "seed": 0, "rules": ["stage:alpha:exit@1"]},
        )

    def test_round_trips_through_dict(self):
        manifest = self.make_manifest()
        again = decode(CompletenessManifest, encode(manifest))
        assert encode(again) == encode(manifest)

    def test_complete_requires_everything(self):
        manifest = CompletenessManifest(
            stages=[StageStatus("alpha", STAGE_COMPLETE)]
        )
        assert manifest.complete
        manifest.quarantined_items.append({"index": 1})
        assert not manifest.complete

    def test_from_dict_rejects_wrong_kind_and_schema(self):
        good = encode(self.make_manifest())
        with pytest.raises(SupervisionError):
            decode(CompletenessManifest, {**good, "kind": "something-else"})
        with pytest.raises(SupervisionError):
            decode(CompletenessManifest, {**good, "schema": 99})

    def test_from_dict_rejects_malformed_stage(self):
        good = encode(self.make_manifest())
        bad = {**good, "stages": [{"status": "complete"}]}
        with pytest.raises(SupervisionError):
            decode(CompletenessManifest, bad)

    def test_unknown_stage_status_rejected(self):
        with pytest.raises(SupervisionError):
            StageStatus("alpha", "half-done")

    def test_summary_lines_name_the_degradation(self):
        text = "\n".join(self.make_manifest().summary_lines())
        assert "stages complete: 1/2" in text
        assert "stage beta: deadline-exceeded" in text
        assert "crashes injected: 1" in text
        assert "items quarantined: 1" in text
        assert "DEGRADED: deadline-exceeded" in text


class TestMetricsExport:
    def test_supervise_counters_land_on_the_observer(self):
        observer = Observer(name="sup")
        supervisor = EpochSupervisor(
            plan_of(CrashRule(stage_exit("alpha"), 1)), observer=observer
        )
        outcome = supervisor.run(make_factory(FakeCheckpoints()), stages=STAGES)
        assert outcome.manifest.complete
        registry = observer.registry
        assert (
            registry.counter(
                "supervise_crashes_total", point=stage_exit("alpha")
            ).value
            == 1
        )
        assert registry.counter("supervise_restarts_total").value == 1
        assert registry.counter("supervise_backoff_sim_seconds_total").value >= 1
        for name in STAGES:
            assert (
                registry.counter(
                    "supervise_stage_outcomes_total",
                    stage=name,
                    status=STAGE_COMPLETE,
                ).value
                == 1
            )
        assert registry.gauge("supervise_degraded").value == 0
        assert registry.gauge("supervise_stages_complete").value == 2

    def test_deadline_and_degradation_metrics(self):
        observer = Observer(name="sup")
        supervisor = EpochSupervisor(
            plan_of(), budgets={"alpha": 1}, observer=observer
        )
        supervisor.run(
            make_factory(FakeCheckpoints(), costs={"alpha": 10}), stages=STAGES
        )
        registry = observer.registry
        assert (
            registry.counter(
                "supervise_deadline_exceeded_total", stage="alpha"
            ).value
            == 1
        )
        assert registry.gauge("supervise_degraded").value == 1
        assert registry.gauge("supervise_stages_complete").value == 0
