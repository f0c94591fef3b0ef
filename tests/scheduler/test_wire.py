"""Round-trip tests for the wire surface.

Every type that crosses the shard boundary (or the ``--emit-json``
output) must survive ``to_dict`` -> ``json.dumps`` -> ``json.loads`` ->
``from_dict`` without losing information: the inline transport JSON-
round-trips every message, so a lossy payload would silently change
decisions.  The tests push real objects (produced by real scheduler
runs, not hand-built minimal ones) through an actual JSON round trip.
"""

import json

import pytest

from repro.core.memo import CacheInfo
from repro.core.serialize import machines_by_name
from repro.scheduler import (
    AdmissionDecision,
    AdmissionStats,
    CapacityVector,
    ChurnStats,
    FaultAction,
    FaultPlan,
    FleetScheduler,
    FragmentationSample,
    GradedDecision,
    LifecycleScheduler,
    MigrationRecord,
    PlacementRequest,
    RebalanceConfig,
    ScheduleConfig,
    ServiceStats,
    ShardSummary,
    ShardWorker,
    generate_churn_stream,
    generate_request_stream,
    initial_capacity,
)
from repro.scheduler.scheduler import FleetReport
from repro.serving.online import OnlineStats


def wire(payload):
    """One actual JSON round trip — what the transports do."""
    return json.loads(json.dumps(payload))


@pytest.fixture(scope="module")
def churn_report():
    """A real lifecycle run with departures, rejects, and migrations —
    the richest report the wire has to carry."""
    config = ScheduleConfig(
        machine="amd",
        hosts=3,
        requests=50,
        seed=5,
        churn=True,
        mean_lifetime=20.0,
        heavy_tail=True,
        vcpus=(8, 16, 32),
    )
    registry = config.build_registry()
    engine = LifecycleScheduler(
        config.build_fleet(),
        config.build_policy(registry),
        registry=registry,
        config=RebalanceConfig(enabled=True),
    )
    return engine.run(config.build_stream())


@pytest.fixture(scope="module")
def machines():
    return machines_by_name(ScheduleConfig(machine="mixed", hosts=2).machine_list())


class TestRequestWire:
    def test_request_stream_round_trips(self):
        stream = generate_churn_stream(
            30, seed=2, vcpus_choices=(4, 8), heavy_tail=True
        ) + generate_request_stream(10, seed=2)
        for request in stream:
            rebuilt = PlacementRequest.from_dict(wire(request.to_dict()))
            assert rebuilt == request  # frozen dataclass: field equality

    def test_goal_and_lifetime_optionals_survive(self):
        stream = generate_churn_stream(40, seed=0, vcpus_choices=(8,))
        assert any(r.goal_fraction is None for r in stream)
        assert any(r.goal_fraction is not None for r in stream)
        for request in stream:
            rebuilt = PlacementRequest.from_dict(wire(request.to_dict()))
            assert rebuilt.goal_fraction == request.goal_fraction
            assert rebuilt.lifetime == request.lifetime


class TestDecisionWire:
    def test_graded_decisions_round_trip(self, churn_report):
        machines = machines_by_name(
            ScheduleConfig(machine="amd", hosts=1).machine_list()
        )
        assert churn_report.rejected > 0  # exercise the reject arm too
        for graded in churn_report.decisions:
            rebuilt = GradedDecision.from_dict(
                wire(graded.to_dict()), machines
            )
            assert rebuilt.to_dict() == graded.to_dict()
            assert rebuilt.decision.placed == graded.decision.placed
            if graded.decision.placed:
                assert (
                    tuple(rebuilt.decision.placement.nodes)
                    == tuple(graded.decision.placement.nodes)
                )
                assert (
                    rebuilt.decision.placement.l2_share
                    == graded.decision.placement.l2_share
                )


class TestStatsWire:
    def test_cache_info_round_trip_and_merge(self):
        a = CacheInfo(hits=3, misses=2, currsize=2)
        b = CacheInfo(hits=10, misses=0, currsize=4)
        assert CacheInfo.from_dict(wire(a.to_dict())) == a
        assert a + b == CacheInfo(hits=13, misses=2, currsize=6)

    def test_churn_stats_round_trip(self, churn_report):
        stats = churn_report.churn
        assert stats.fragmentation_timeline  # non-trivial payload
        rebuilt = ChurnStats.from_dict(wire(stats.to_dict()))
        assert rebuilt.to_dict() == stats.to_dict()
        assert rebuilt.fit_failures == stats.fit_failures
        assert rebuilt.n_migrations == stats.n_migrations

    def test_fragmentation_and_migration_round_trip(self):
        sample = FragmentationSample(
            time=3.5,
            free_nodes_total=12,
            largest_free_block=4,
            active_containers=7,
            fit_failures=2,
        )
        assert FragmentationSample.from_dict(wire(sample.to_dict())) == sample
        record = MigrationRecord(
            time=9.25,
            request_id=4,
            workload="gcc",
            source_host=1,
            dest_host=3,
            engine="criu",
            seconds=12.5,
            moved_gb=1.75,
            triggered_by=9,
        )
        assert MigrationRecord.from_dict(wire(record.to_dict())) == record

    def test_service_stats_round_trip(self):
        stats = ServiceStats(
            n_shards=4,
            window=16,
            transport="process",
            rounds=10,
            routed=37,
            departures_routed=21,
            departure_batches=6,
            retries=3,
            recovered_by_retry=2,
            exhausted=1,
            shard_requests=[10, 9, 9, 9],
            shard_placed=[10, 8, 9, 9],
            crashes=2,
            timeouts=5,
            backoff_retries=4,
            failovers=3,
            journal_replays=2,
            replayed_messages=17,
            degraded_windows=1,
            degraded_arrivals=6,
            window_wall_seconds=1.25,
            shard_service_seconds=3.5,
        )
        assert ServiceStats.from_dict(wire(stats.to_dict())) == stats

    def test_service_stats_accepts_pre_overlap_payloads(self):
        """A payload recorded before overlapped dispatch existed still
        loads: the dispatch-timing fields default to zero."""
        stats = ServiceStats(n_shards=2, window=8)
        payload = wire(stats.to_dict())
        for key in ("window_wall_seconds", "shard_service_seconds"):
            del payload[key]
        rebuilt = ServiceStats.from_dict(payload)
        assert rebuilt.window_wall_seconds == 0.0
        assert rebuilt.shard_service_seconds == 0.0

    def test_service_stats_accepts_pre_supervision_payloads(self):
        """A payload recorded before the fault counters existed still
        loads: the new fields default to zero."""
        stats = ServiceStats(n_shards=2, window=8)
        payload = wire(stats.to_dict())
        for key in (
            "crashes",
            "timeouts",
            "backoff_retries",
            "failovers",
            "journal_replays",
            "replayed_messages",
            "degraded_windows",
            "degraded_arrivals",
        ):
            del payload[key]
        rebuilt = ServiceStats.from_dict(payload)
        assert rebuilt.crashes == 0
        assert rebuilt.n_shards == 2

    def test_online_stats_round_trip(self):
        stats = OnlineStats()
        assert OnlineStats.from_dict(wire(stats.to_dict())).to_dict() == (
            stats.to_dict()
        )


class TestFaultWire:
    def test_fault_action_round_trip(self):
        action = FaultAction(shard=2, at_message=7, kind="delay", delay_ms=3.5)
        assert FaultAction.from_dict(wire(action.to_dict())) == action

    def test_fault_plan_round_trip(self):
        plan = FaultPlan.kill_each_shard_once(4, seed=11)
        rebuilt = FaultPlan.from_dict(wire(plan.to_dict()))
        assert rebuilt == plan
        assert rebuilt.seed == 11
        # A rebuilt plan binds to identical per-shard schedules.
        for shard in range(4):
            assert [a.to_dict() for a in rebuilt.bind(shard)._pending.get(
                plan.actions[shard].at_message, []
            )] == [plan.actions[shard].to_dict()]

    def test_fault_plan_generators_are_seeded(self):
        assert FaultPlan.kill_each_shard_once(3, seed=5) == (
            FaultPlan.kill_each_shard_once(3, seed=5)
        )
        assert FaultPlan.storm(3, seed=5) == FaultPlan.storm(3, seed=5)
        assert FaultPlan.storm(3, seed=5) != FaultPlan.storm(3, seed=6)

    def test_fault_action_validates(self):
        with pytest.raises(ValueError):
            FaultAction(shard=0, at_message=0, kind="explode")
        with pytest.raises(ValueError):
            FaultAction(shard=0, at_message=-1, kind="crash")
        with pytest.raises(ValueError):
            FaultAction(shard=-1, at_message=0, kind="crash")


class TestConfigWire:
    def test_schedule_config_round_trip(self):
        config = ScheduleConfig(
            machine="mixed",
            hosts=10,
            requests=77,
            vcpus=(4, 8, 12),
            seed=9,
            policy="spread",
            churn=True,
            heavy_tail=True,
            shards=3,
            window=5,
            workers="process",
            max_events=100,
            request_timeout_s=7.5,
            fault_retries=4,
            backoff_base_s=0.01,
            recovery_rounds=2,
        )
        rebuilt = ScheduleConfig.from_dict(wire(config.to_dict()))
        assert rebuilt == config
        assert rebuilt.vcpus == (4, 8, 12)  # tuple restored, not list


class TestSummaryWire:
    def test_shard_summary_round_trips_live_state(self):
        config = ScheduleConfig(
            machine="mixed", hosts=4, requests=8, churn=True, shards=1
        )
        worker = ShardWorker(0, config)
        for request in generate_request_stream(8, seed=1, vcpus_choices=(8,)):
            worker.handle(
                {"op": "arrive", "events": [[request.to_dict(), 0.0]]}
            )
        summary = worker.summary()
        assert summary.active_containers > 0  # live, not the empty shard
        assert ShardSummary.from_dict(wire(summary.to_dict())) == summary


class TestReportWire:
    def test_full_report_round_trips(self, churn_report, machines):
        amd = machines_by_name(
            ScheduleConfig(machine="amd", hosts=1).machine_list()
        )
        payload = wire(churn_report.to_dict())
        rebuilt = FleetReport.from_dict(payload, amd)
        assert rebuilt.to_dict() == payload
        assert rebuilt.placed == churn_report.placed
        assert rebuilt.rejected == churn_report.rejected
        assert rebuilt.latency_percentiles_ms() == (
            churn_report.latency_percentiles_ms()
        )

    def test_summary_only_report_snapshots_derived_values(self, churn_report):
        payload = wire(churn_report.to_dict(include_decisions=False))
        assert "decisions" not in payload
        assert payload["summary"]["placed"] == churn_report.placed
        assert payload["summary"]["requests_per_second"] == pytest.approx(
            churn_report.requests_per_second
        )
        amd = machines_by_name(
            ScheduleConfig(machine="amd", hosts=1).machine_list()
        )
        rebuilt = FleetReport.from_dict(payload, amd)
        assert rebuilt.decisions == []  # compact form drops the traces

    def test_one_shot_report_round_trips(self, machines):
        config = ScheduleConfig(
            machine="mixed", hosts=2, requests=20, seed=4, vcpus=(4, 8)
        )
        registry = config.build_registry()
        scheduler = FleetScheduler(
            config.build_fleet(),
            config.build_policy(registry),
            registry=registry,
            batch_size=8,
        )
        report = scheduler.run(config.build_stream())
        payload = wire(report.to_dict())
        assert FleetReport.from_dict(payload, machines).to_dict() == payload


class TestCapacityWire:
    def test_capacity_vector_round_trip_restores_int_keys(self):
        vector = CapacityVector(counts={8: 12, 16: 6, 32: 0})
        rebuilt = CapacityVector.from_dict(wire(vector.to_dict()))
        assert rebuilt == vector
        assert rebuilt.classes == (8, 16, 32)  # int keys, not strings
        assert rebuilt.count(16) == 6
        assert rebuilt.count(64) is None  # untracked stays untracked

    def test_capacity_vector_merge_union_sums(self):
        merged = CapacityVector(counts={8: 3, 16: 1}) + CapacityVector(
            counts={8: 2, 32: 4}
        )
        assert merged.counts == {8: 5, 16: 1, 32: 4}

    def test_live_summary_capacity_round_trips(self):
        config = ScheduleConfig(
            machine="mixed",
            hosts=4,
            requests=8,
            churn=True,
            shards=1,
            admission=True,
        )
        worker = ShardWorker(0, config)
        for request in generate_request_stream(8, seed=1, vcpus_choices=(8,)):
            worker.handle(
                {"op": "arrive", "events": [[request.to_dict(), 0.0]]}
            )
        summary = worker.summary()
        assert summary.capacity is not None
        assert summary.capacity.count(8) is not None
        rebuilt = ShardSummary.from_dict(wire(summary.to_dict()))
        assert rebuilt == summary
        assert rebuilt.capacity == summary.capacity

    def test_summary_without_admission_omits_capacity_key(self):
        """Admission off keeps the pre-admission wire bytes: no
        ``capacity`` key at all, and old payloads parse to None."""
        config = ScheduleConfig(machine="amd", hosts=2, requests=4, shards=1)
        worker = ShardWorker(0, config)
        payload = wire(worker.summary().to_dict())
        assert "capacity" not in payload
        rebuilt = ShardSummary.from_dict(payload)
        assert rebuilt.capacity is None


class TestAdmissionWire:
    def test_admission_decision_round_trip(self):
        for decision in (
            AdmissionDecision(3, "admit"),
            AdmissionDecision(4, "hold"),
            AdmissionDecision(5, "reject", "admission:queue-full"),
        ):
            assert AdmissionDecision.from_dict(
                wire(decision.to_dict())
            ) == decision

    def test_admission_decision_validates(self):
        with pytest.raises(ValueError, match="outcome"):
            AdmissionDecision(1, "defer")
        with pytest.raises(ValueError, match="reason"):
            AdmissionDecision(1, "reject")

    def test_admission_stats_round_trip_and_merge(self):
        a = AdmissionStats(
            offered=10,
            admitted=6,
            rejected_infeasible=1,
            rejected_capacity=2,
            held=3,
            held_peak=2,
            drained=1,
            shed_queue_full=1,
            brownout_entries=1,
        )
        b = AdmissionStats(
            offered=5, admitted=5, held=1, held_peak=4, brownout_exits=1
        )
        assert AdmissionStats.from_dict(wire(a.to_dict())) == a
        merged = a + b
        assert merged.offered == 15
        assert merged.held_peak == 4  # high-water mark takes the max
        assert merged.shed_total == a.shed_total + b.shed_total
        assert merged.rejected_total == 3

    def test_service_stats_round_trip_with_admission(self):
        stats = ServiceStats(
            n_shards=2,
            window=8,
            rounds=4,
            routed=20,
            retries_short_circuited=3,
            admission=AdmissionStats(
                offered=24, admitted=20, rejected_capacity=4
            ),
        )
        rebuilt = ServiceStats.from_dict(wire(stats.to_dict()))
        assert rebuilt == stats
        assert isinstance(rebuilt.admission, AdmissionStats)

    def test_service_stats_merge_combines_admission(self):
        a = ServiceStats(
            n_shards=2,
            window=8,
            routed=4,
            retries_short_circuited=1,
            admission=AdmissionStats(offered=4, admitted=4),
        )
        b = ServiceStats(n_shards=2, window=8, routed=6)
        merged = a + b
        assert merged.routed == 10
        assert merged.retries_short_circuited == 1
        assert merged.admission is not None
        assert merged.admission.offered == 4

    def test_admission_off_payload_has_no_new_keys(self):
        """The PR-9 byte-compat gate at the stats layer: admission off
        emits exactly the pre-admission payload."""
        stats = ServiceStats(n_shards=2, window=8)
        payload = wire(stats.to_dict())
        assert "admission" not in payload
        assert "retries_short_circuited" not in payload

    def test_service_stats_accepts_pre_admission_payloads(self):
        stats = ServiceStats(n_shards=2, window=8)
        payload = wire(stats.to_dict())
        rebuilt = ServiceStats.from_dict(payload)
        assert rebuilt.admission is None
        assert rebuilt.retries_short_circuited == 0

    def test_schedule_config_round_trip_with_admission_knobs(self):
        config = ScheduleConfig(
            machine="amd",
            hosts=4,
            requests=20,
            churn=True,
            shards=2,
            admission=True,
            queue_limit=8,
            shed_policy="deadline",
            deadline_budget_s=5.0,
            brownout_watermark=0.25,
        )
        rebuilt = ScheduleConfig.from_dict(wire(config.to_dict()))
        assert rebuilt == config

    def test_initial_capacity_matches_empty_worker_summary(self):
        config = ScheduleConfig(
            machine="mixed", hosts=4, requests=4, shards=1, admission=True
        )
        worker = ShardWorker(0, config)
        expected = initial_capacity(config.machine_list(), config.vcpus)
        assert worker.summary().capacity == expected
