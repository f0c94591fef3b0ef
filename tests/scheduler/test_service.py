"""Tests for the sharded scheduler service: single-shard bit-identity
with the monolithic engines, the optimistic conflict-retry property
(every request placed or rejected exactly once), and the one
fitted-model store a service's inline shards share."""

import itertools

import pytest

from repro.core.model import PlacementModel
from repro.perfsim import workload_by_name
from repro.scheduler import (
    FaultPlan,
    FleetScheduler,
    LifecycleScheduler,
    PlacementRequest,
    RebalanceConfig,
    ScheduleConfig,
    SchedulerService,
    ShardSummary,
    generate_request_stream,
)

#: The churn reference stream: small enough to run the ML policy end to
#: end in a test, busy enough to exercise departures, fragmentation
#: rejects, and the rebalancer (heavy-tailed lifetimes, one 32-vCPU size
#: mixed into the 8s).
CHURN_REFERENCE = dict(
    machine="amd",
    hosts=4,
    requests=60,
    seed=11,
    churn=True,
    arrival_rate=1.0,
    mean_lifetime=25.0,
    heavy_tail=True,
    vcpus=(8, 8, 8, 32),
)

#: A goal-aware stream over both machine shapes: with four shards, shards
#: 0 and 2 hold the AMD hosts and shards 1 and 3 the Intel ones, so two
#: inline shards need each fitted model.
MIXED_REFERENCE = dict(
    machine="mixed",
    hosts=8,
    requests=60,
    seed=5,
    churn=True,
    arrival_rate=1.0,
    mean_lifetime=25.0,
    heavy_tail=True,
    vcpus=(8, 16, 32),
)


def _request(request_id, *, vcpus, arrival=0.0, lifetime=None, workload="gcc"):
    return PlacementRequest(
        request_id=request_id,
        profile=workload_by_name(workload),
        vcpus=vcpus,
        arrival_time=arrival,
        lifetime=lifetime,
    )


def _fingerprints(decisions):
    """Everything semantically observable about a graded decision except
    wall-clock timing — the bit-for-bit equivalence contract."""
    out = []
    for graded in decisions:
        d = graded.decision
        out.append(
            (
                d.request.request_id,
                d.host_id,
                None
                if d.placement is None
                else (tuple(d.placement.nodes), d.placement.l2_share),
                d.placement_id,
                d.block_exact,
                d.reject_reason,
                graded.achieved_relative,
                graded.violated,
            )
        )
    return out


def _monolithic_churn_report(config):
    fleet = config.build_fleet()
    registry = config.build_registry()
    policy = config.build_policy(registry)
    engine = LifecycleScheduler(
        fleet,
        policy,
        registry=registry,
        config=RebalanceConfig(
            enabled=config.rebalance_enabled,
            reject_penalty_seconds=config.penalty_seconds,
        ),
    )
    return engine.run(config.build_stream())


class TestSingleShardEquivalence:
    def test_churn_stream_bit_identical_to_lifecycle_engine(self):
        """One shard, window 1: the service is the monolithic lifecycle
        engine behind the wire protocol — decisions, fragmentation
        timeline, and churn counters must match bit for bit."""
        config = ScheduleConfig(**CHURN_REFERENCE, shards=1, window=1)
        mono = _monolithic_churn_report(config)
        with SchedulerService(config) as service:
            svc = service.serve()

        assert _fingerprints(svc.decisions) == _fingerprints(mono.decisions)
        assert [s.to_dict() for s in svc.churn.fragmentation_timeline] == [
            s.to_dict() for s in mono.churn.fragmentation_timeline
        ]
        assert svc.churn.arrivals == mono.churn.arrivals
        assert svc.churn.departures == mono.churn.departures
        assert [m.to_dict() for m in svc.churn.migrations] == [
            m.to_dict() for m in mono.churn.migrations
        ]
        assert svc.service is not None
        assert svc.service.retries == 0  # one shard: nothing to retry on

    def test_windowing_does_not_change_decisions_without_departures(self):
        """step_batch decides a window's arrivals in arrival order against
        the same fleet state, so on a departure-free, reject-free stream
        a single shard's decisions are window-size independent.  (With
        departures, windows deliberately trade intra-window time order
        for batching: a departure inside the buffer waits for the
        flush.)"""
        from dataclasses import replace

        base = dict(CHURN_REFERENCE, hosts=64)  # roomy: no rejects
        stream = [
            replace(request, lifetime=None)  # immortal: no departures
            for request in ScheduleConfig(**base).build_stream()
        ]
        with SchedulerService(
            ScheduleConfig(**base, shards=1, window=1)
        ) as service:
            one = service.serve(stream)
        with SchedulerService(
            ScheduleConfig(**base, shards=1, window=8)
        ) as service:
            eight = service.serve(stream)
        assert one.churn.departures == 0
        assert one.rejected == 0
        assert _fingerprints(one.decisions) == _fingerprints(eight.decisions)

    def test_one_shot_bit_identical_to_fleet_scheduler(self):
        """Service.run (op=decide) against the one-shot FleetScheduler on
        a mixed fleet: same batches, same decisions."""
        config = ScheduleConfig(
            machine="mixed",
            hosts=6,
            requests=120,
            seed=3,
            vcpus=(4, 8, 16, 10),
            batch_size=32,
        )
        requests = generate_request_stream(
            config.requests, seed=config.seed, vcpus_choices=config.vcpus
        )
        registry = config.build_registry()
        scheduler = FleetScheduler(
            config.build_fleet(),
            config.build_policy(registry),
            registry=registry,
            batch_size=config.effective_batch_size,
        )
        mono = scheduler.run(requests)
        with SchedulerService(config) as service:
            svc = service.run(requests)
        assert _fingerprints(svc.decisions) == _fingerprints(mono.decisions)
        assert svc.placed == mono.placed
        assert svc.rejected == mono.rejected


class TestConflictRetry:
    def test_request_placed_or_rejected_exactly_once(self):
        """The service-level invariant: every arrival shows up in the
        merged report exactly once, placed or rejected, however many
        shards looked at it along the way."""
        config = ScheduleConfig(
            machine="amd",
            hosts=6,
            requests=120,
            seed=7,
            churn=True,
            arrival_rate=2.0,
            mean_lifetime=20.0,
            heavy_tail=True,
            vcpus=(8, 16, 32, 64),
            shards=3,
            window=4,
        )
        with SchedulerService(config) as service:
            report = service.serve()
        stats = report.service

        ids = sorted(g.decision.request.request_id for g in report.decisions)
        assert ids == sorted(set(ids))  # never double-placed / double-rejected
        assert len(ids) == stats.routed == report.churn.arrivals
        assert report.placed + report.rejected == stats.routed
        assert sum(stats.shard_requests) == stats.routed
        assert sum(stats.shard_placed) == report.placed
        assert stats.exhausted == report.rejected
        assert stats.recovered_by_retry <= stats.retries

    def test_exhausting_every_shard_rejects_once_with_capacity(self):
        """Three whole-host containers on a two-host, two-shard fleet:
        the third is tried on both shards (retries), rejected exactly
        once, and the merged reason is the fleet-wide truth: capacity."""
        config = ScheduleConfig(
            machine="amd",
            hosts=2,
            requests=3,
            policy="first-fit",
            shards=2,
            window=3,
            churn=True,
        )
        requests = [
            _request(i, vcpus=64, arrival=float(i)) for i in range(1, 4)
        ]
        with SchedulerService(config) as service:
            report = service.serve(requests)
        assert report.placed == 2
        assert report.rejected == 1
        assert report.service.retries >= 1
        assert report.service.exhausted == 1
        rejected = [g for g in report.decisions if not g.decision.placed]
        assert len(rejected) == 1
        assert rejected[0].decision.reject_reason == "capacity"

    def test_stale_summary_recovered_by_retry(self):
        """Force the router onto a full shard by resetting its summary
        cache to the all-free initial state: the shard's reject must be
        recovered on the next-best shard, not surfaced to the caller."""
        config = ScheduleConfig(
            machine="amd",
            hosts=2,
            requests=2,
            policy="first-fit",
            shards=2,
            window=1,
            churn=True,
        )
        with SchedulerService(config) as service:
            [first] = service._place_window(
                [(_request(1, vcpus=64), 0.0)], "arrive"
            )
            assert first.decision.placed
            full_shard = service._owner[1]
            # Undo everything the router learned: both shards look empty.
            service.summaries = [
                ShardSummary.initial(shard, service._shard_machines[shard])
                for shard in range(config.shards)
            ]
            [second] = service._place_window(
                [(_request(2, vcpus=64), 1.0)], "arrive"
            )
        assert second.decision.placed
        assert service._owner[2] != full_shard
        assert service.stats.retries == 1
        assert service.stats.recovered_by_retry == 1
        assert service.stats.exhausted == 0

    def test_departure_routed_to_owning_shard(self):
        """A placed container's departure frees its nodes on the shard
        that owns it, so a follow-up whole-host request fits again."""
        config = ScheduleConfig(
            machine="amd",
            hosts=2,
            requests=3,
            policy="first-fit",
            shards=2,
            window=1,
            churn=True,
        )
        requests = [
            _request(1, vcpus=64, arrival=0.0, lifetime=5.0),
            _request(2, vcpus=64, arrival=1.0),
            _request(3, vcpus=64, arrival=10.0),  # after #1 departs
        ]
        with SchedulerService(config) as service:
            report = service.serve(requests)
        assert report.placed == 3
        assert report.churn.departures == 1
        assert report.service.departures_routed == 1


class TestServiceSurface:
    def test_online_learning_is_rejected(self):
        config = ScheduleConfig(
            churn=True, online_learning=True, shards=2, hosts=8
        )
        with pytest.raises(ValueError, match="online learning"):
            SchedulerService(config)

    def test_max_events_bounds_ingestion(self):
        config = ScheduleConfig(**CHURN_REFERENCE, shards=2, window=4)
        with SchedulerService(config) as service:
            report = service.serve(max_events=20)
        # 20 lifecycle events is at most 20 arrivals, and a departure
        # whose arrival was cut off is dropped, not mis-routed.
        assert 0 < report.n_requests <= 20
        assert len(report.decisions) == report.n_requests

    def test_merged_report_utilization_matches_summaries(self):
        config = ScheduleConfig(**CHURN_REFERENCE, shards=2, window=4)
        with SchedulerService(config) as service:
            report = service.serve()
            used = sum(s.used_threads for s in service.summaries)
            total = sum(s.total_threads for s in service.summaries)
        assert report.thread_utilization == pytest.approx(used / total)
        assert report.service.n_shards == 2


@pytest.mark.slow
class TestProcessTransport:
    def test_process_workers_match_inline_decisions(self):
        """A process-mode worker rebuilds its world from the serialized
        config, so the wire protocol over a real pipe must yield the
        same decisions as the in-process transport."""
        base = dict(CHURN_REFERENCE, requests=30, shards=2, window=4)
        with SchedulerService(
            ScheduleConfig(**base, workers="inline")
        ) as service:
            inline = service.serve()
        with SchedulerService(
            ScheduleConfig(**base, workers="process")
        ) as service:
            process = service.serve()
        assert _fingerprints(process.decisions) == _fingerprints(
            inline.decisions
        )
        assert process.service.transport == "process"


@pytest.fixture
def fit_calls(monkeypatch):
    """Every ``PlacementModel.fit`` call made while the test runs."""
    calls = []
    fit = PlacementModel.fit

    def counted(model, training_set):
        calls.append(model)
        return fit(model, training_set)

    monkeypatch.setattr(PlacementModel, "fit", counted)
    return calls


def _warm(service):
    """Resolve every (shape, vcpus) model each inline shard can use."""
    for client in service.clients:
        worker = getattr(client, "inner", client).worker
        shapes = {machine.fingerprint(): machine for machine in worker.machines}
        for machine in shapes.values():
            for vcpus in service.config.vcpus:
                worker.registry.model(machine, vcpus)


class TestFittedModelStore:
    """Inline shards fit into one store per service: each (shape, vcpus)
    forest is fitted once, whatever the shard count."""

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_each_key_is_fitted_once_per_service(self, fit_calls, shards):
        config = ScheduleConfig(**MIXED_REFERENCE, shards=shards)
        with SchedulerService(config) as service:
            _warm(service)
            keys = set(service.fitted.models)
        # Two machine shapes x three vCPU classes.
        assert len(keys) == 6
        assert len(fit_calls) == 6

    def test_inline_shards_of_one_shape_share_the_model(self):
        config = ScheduleConfig(**MIXED_REFERENCE, shards=4)
        with SchedulerService(config) as service:
            _warm(service)
            workers = [client.worker for client in service.clients]
        shared = 0
        for a, b in itertools.combinations(workers, 2):
            machine = a.machines[0]
            same_shape = b.machines[0].fingerprint() == machine.fingerprint()
            for vcpus in config.vcpus:
                same_model = a.registry.model(machine, vcpus) is (
                    b.registry.model(b.machines[0], vcpus)
                )
                assert same_model == same_shape
            shared += same_shape
        # Shards 0 and 2 hold the AMD hosts, 1 and 3 the Intel ones.
        assert shared == 2

    def test_a_second_service_fits_again(self, fit_calls):
        config = ScheduleConfig(**MIXED_REFERENCE, shards=2)
        for _ in range(2):
            with SchedulerService(config) as service:
                _warm(service)
        assert len(fit_calls) == 12

    def test_respawned_inline_shard_does_not_refit(self, fit_calls):
        config = ScheduleConfig(
            **MIXED_REFERENCE, shards=4, window=8, backoff_base_s=0.0
        )
        faults = FaultPlan.kill_each_shard_once(4, seed=config.seed)
        with SchedulerService(config, faults=faults) as service:
            _warm(service)
            assert len(fit_calls) == 6
            report = service.serve()
        assert report.service.crashes == 4
        assert report.service.journal_replays == 4
        assert len(fit_calls) == 6

    @pytest.mark.slow
    def test_shared_store_keeps_per_shard_accounting(self):
        """Each process worker fits into its own store, so the process
        twin is the oracle for what sharing must not change: decisions
        and every merged memo counter."""
        base = dict(MIXED_REFERENCE, shards=4, window=8)
        reports = {}
        for workers in ("inline", "process"):
            config = ScheduleConfig(**base, workers=workers)
            with SchedulerService(config) as service:
                reports[workers] = service.serve()
        inline, process = reports["inline"], reports["process"]
        assert _fingerprints(inline.decisions) == _fingerprints(
            process.decisions
        )
        assert inline.cache_info == process.cache_info
        assert inline.enumeration_runs == process.enumeration_runs
        assert inline.ipc_cache_info == process.ipc_cache_info
