"""Tests for the incremental fleet index.

Two contracts:

* **consistency** — after any sequence of allocations, releases, and
  migrations, every index counter and bucket equals what a from-scratch
  recomputation over the hosts produces, and the id-ordered queries
  (``lowest``, ``in_id_order``) equal the brute-force ``candidates``
  reference (randomized replay);
* **equivalence** — policies running on the index pick exactly the hosts
  and placements the original linear scans pick, on both the one-shot
  reference request stream and the churning lifecycle stream.
"""

import random

import pytest

from repro.core.placements import Placement
from repro.scheduler import (
    Fleet,
    FleetIndex,
    FleetScheduler,
    FirstFitFleetPolicy,
    GoalAwareFleetPolicy,
    LifecycleScheduler,
    ModelRegistry,
    RebalanceConfig,
    SpreadFleetPolicy,
    generate_churn_stream,
    generate_request_stream,
    minimal_shape,
)
from repro.topology import amd_opteron_6272, intel_xeon_e7_4830_v3


def _mixed_fleet():
    return Fleet.mixed(
        [(amd_opteron_6272(), 6), (intel_xeon_e7_4830_v3(), 5)]
    )


class TestIndexCounters:
    def test_fresh_fleet_counters(self):
        fleet = _mixed_fleet()
        index = fleet.index
        index.assert_consistent(fleet.hosts)
        assert index.used_threads == 0
        assert index.free_nodes_total == 6 * 8 + 5 * 4
        assert index.largest_free_block == 8
        assert len(list(index.machines())) == 2

    def test_allocate_and_release_update_counters(self):
        machine = amd_opteron_6272()
        fleet = Fleet.homogeneous(machine, 3)
        placement = Placement(machine, (0, 1), 16, l2_share=2)
        fleet.hosts[1].allocate(5, placement)
        assert fleet.index.used_threads == 16
        assert fleet.index.free_nodes_total == 3 * 8 - 2
        assert fleet.free_nodes_total == 3 * 8 - 2
        fleet.index.assert_consistent(fleet.hosts)
        fleet.release(5)
        assert fleet.index.used_threads == 0
        fleet.index.assert_consistent(fleet.hosts)

    def test_largest_free_block_tracks_max(self):
        machine = amd_opteron_6272()
        fleet = Fleet.homogeneous(machine, 2)
        fleet.hosts[0].allocate(
            1, Placement(machine, range(8), 64, l2_share=2)
        )
        fleet.hosts[1].allocate(
            2, Placement(machine, range(6), 48, l2_share=2)
        )
        assert fleet.largest_free_block == 2
        fleet.release(1)  # host 0 fully free again
        assert fleet.largest_free_block == 8
        fleet.index.assert_consistent(fleet.hosts)

    def test_empty_fleet_reports_zero_largest_block(self):
        # An empty host list used to raise ValueError from max(); the
        # aggregate must degrade to 0 instead (a drained fleet is a valid
        # observable state for monitoring, not an error).
        fleet = Fleet.homogeneous(amd_opteron_6272(), 1)
        fleet.hosts.clear()
        assert fleet.largest_free_block == 0

    def test_double_registration_rejected(self):
        fleet = Fleet.homogeneous(amd_opteron_6272(), 1)
        with pytest.raises(ValueError, match="already indexed"):
            fleet.index.register(fleet.hosts[0])

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda buckets: buckets[8].reverse(), "ascending"),
            (lambda buckets: buckets[8].insert(1, buckets[8][0]), "ascending"),
            (lambda buckets: buckets.setdefault(3, []), "empty bucket"),
        ],
        ids=["unsorted", "duplicate", "empty"],
    )
    def test_malformed_bucket_trips_check(self, corrupt, message):
        # First-fit takes a bucket's head as its lowest id; a bucket that
        # is out of order would silently diverge from the linear scan, so
        # the consistency check must catch it even though every counter
        # still agrees.
        machine = amd_opteron_6272()
        fleet = Fleet.homogeneous(machine, 4)
        fleet.index.assert_consistent(fleet.hosts)
        corrupt(fleet.index.buckets(machine.fingerprint()))
        with pytest.raises(AssertionError, match=message):
            fleet.index.assert_consistent(fleet.hosts)

    def test_queries_on_unknown_shape_and_empty_request(self):
        fleet = Fleet.homogeneous(amd_opteron_6272(), 2)
        unknown = intel_xeon_e7_4830_v3().fingerprint()
        assert fleet.index.lowest(unknown, 1) is None
        assert list(fleet.index.in_id_order([(unknown, 1)])) == []
        assert list(fleet.index.in_id_order([])) == []

    def test_fit_failure_counter(self):
        index = FleetIndex()
        assert index.fit_failures == 0
        index.record_fit_failure()
        index.record_fit_failure()
        assert index.fit_failures == 2


def _assert_queries_match_reference(index):
    """``lowest`` and ``in_id_order`` against the brute-force
    ``candidates`` for every shape and every ``min_free`` in
    1..n_nodes, single-shape and multi-shape."""
    shapes = list(index.machines())
    for fingerprint, machine in shapes:
        for min_free in range(1, machine.n_nodes + 1):
            reference = index.candidates(fingerprint, min_free)
            assert index.lowest(fingerprint, min_free) == min(
                reference, default=None
            )
            assert list(index.in_id_order([(fingerprint, min_free)])) == (
                sorted(reference)
            )
    largest = max(machine.n_nodes for _, machine in shapes)
    for min_free in range(1, largest + 1):
        # Every shape at once, each with its own floor (the goal-aware
        # query shape), plus a repeated shape that must not duplicate ids.
        wanted = [
            (fingerprint, 1 + (min_free + offset) % machine.n_nodes)
            for offset, (fingerprint, machine) in enumerate(shapes)
        ]
        reference = sorted(
            host_id
            for fingerprint, floor in wanted
            for host_id in index.candidates(fingerprint, floor)
        )
        assert list(index.in_id_order(wanted)) == reference
        repeated = wanted + [(wanted[0][0], wanted[0][1] + 1)]
        assert list(index.in_id_order(repeated)) == reference


class TestRandomizedReplayConsistency:
    """Replay random allocate/release/migration sequences and recompute
    every counter and query from scratch after each step."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_replay(self, seed):
        rng = random.Random(seed)
        fleet = _mixed_fleet()
        index = fleet.index
        live = {}  # request_id -> host_id
        next_id = 1
        for step in range(300):
            action = rng.random()
            if action < 0.55 or not live:
                # Allocate a random balanced placement on a random host
                # with room.
                host = rng.choice(fleet.hosts)
                vcpus = rng.choice([4, 8, 16, 32])
                try:
                    n_nodes, l2_share = minimal_shape(host.machine, vcpus)
                except ValueError:
                    continue
                free = sorted(host.free_nodes)
                if len(free) < n_nodes:
                    continue
                nodes = tuple(rng.sample(free, n_nodes))
                host.allocate(
                    next_id,
                    Placement(host.machine, nodes, vcpus, l2_share=l2_share),
                )
                live[next_id] = host.host_id
                next_id += 1
            elif action < 0.85:
                request_id = rng.choice(list(live))
                fleet.release(request_id)
                del live[request_id]
            else:
                # Migration: release then re-allocate on a same-shape host.
                request_id = rng.choice(list(live))
                source = fleet.hosts[live[request_id]]
                _, placement = fleet.release(request_id)
                del live[request_id]
                same_shape = [
                    h
                    for h in fleet.hosts
                    if h.machine.fingerprint()
                    == source.machine.fingerprint()
                    and h.n_free_nodes >= placement.n_nodes
                ]
                if not same_shape:
                    continue
                dest = rng.choice(same_shape)
                nodes = tuple(
                    rng.sample(sorted(dest.free_nodes), placement.n_nodes)
                )
                dest.allocate(
                    request_id,
                    Placement(
                        dest.machine,
                        nodes,
                        placement.vcpus,
                        l2_share=placement.l2_share,
                    ),
                )
                live[request_id] = dest.host_id
            index.assert_consistent(fleet.hosts)
            _assert_queries_match_reference(index)

    @pytest.mark.parametrize(
        "policy_factory",
        [
            lambda: FirstFitFleetPolicy(),
            lambda: GoalAwareFleetPolicy(ModelRegistry(seed=5)),
        ],
        ids=["first-fit", "ml"],
    )
    def test_rebalance_target_matches_full_scan(
        self, policy_factory, monkeypatch
    ):
        # The rebalancer's target comes from bucket heads; it must be the
        # host a full scan picks: most free nodes, lowest id among ties,
        # over every host of every compatible shape.
        bucket_target = LifecycleScheduler._rebalance_target
        checked = []

        def checking(engine, request):
            found = bucket_target(engine, request)
            compatible = [
                host
                for host in engine.fleet.hosts
                if engine.policy.min_block_nodes(host.machine, request.vcpus)
                is not None
            ]
            if not compatible:
                assert found is None
                return found
            expected = max(
                compatible, key=lambda h: (h.n_free_nodes, -h.host_id)
            )
            assert found is not None and found[0] is expected
            assert found[1] == engine.policy.min_block_nodes(
                expected.machine, request.vcpus
            )
            engine.fleet.index.assert_consistent(engine.fleet.hosts)
            _assert_queries_match_reference(engine.fleet.index)
            checked.append(request.request_id)
            return found

        monkeypatch.setattr(
            LifecycleScheduler, "_rebalance_target", checking
        )
        requests = generate_churn_stream(
            120,
            seed=11,
            arrival_rate=1.5,
            mean_lifetime=25.0,
            heavy_tail=True,
            vcpus_choices=(8, 8, 8, 32),
        )
        report = LifecycleScheduler(
            Fleet.mixed(
                [(amd_opteron_6272(), 3), (intel_xeon_e7_4830_v3(), 2)]
            ),
            policy_factory(),
            config=RebalanceConfig(),
        ).run(requests)
        assert checked, "the stream never asked the rebalancer for a target"
        assert report.churn.migrations, "no rebalance plan ever executed"


def _decision_fingerprints(report):
    out = []
    for graded in report.decisions:
        decision = graded.decision
        out.append(
            (
                decision.request.request_id,
                decision.host_id,
                None
                if decision.placement is None
                else (
                    decision.placement.nodes,
                    decision.placement.l2_share,
                ),
                decision.placement_id,
                decision.block_exact,
                decision.reject_reason,
                graded.achieved_relative,
                graded.violated,
            )
        )
    return out


class TestIndexedLinearEquivalence:
    """Indexed and linear scans must be decision-for-decision identical."""

    @pytest.mark.parametrize(
        "policy_factory",
        [
            lambda indexed: FirstFitFleetPolicy(indexed=indexed),
            lambda indexed: SpreadFleetPolicy(indexed=indexed),
            lambda indexed: GoalAwareFleetPolicy(
                ModelRegistry(seed=5), indexed=indexed
            ),
        ],
        ids=["first-fit", "spread", "ml"],
    )
    def test_one_shot_reference_stream(self, policy_factory):
        # Mixed shapes, awkward sizes (10 has no important placement on
        # AMD), and enough requests to fill hosts and hit capacity paths.
        requests = generate_request_stream(
            120, seed=3, vcpus_choices=(4, 8, 16, 10)
        )
        indexed = FleetScheduler(
            _mixed_fleet(), policy_factory(True), batch_size=32
        ).run(requests)
        linear = FleetScheduler(
            _mixed_fleet(), policy_factory(False), batch_size=32
        ).run(requests)
        assert _decision_fingerprints(indexed) == _decision_fingerprints(
            linear
        )
        assert indexed.thread_utilization == linear.thread_utilization
        assert indexed.node_utilization == linear.node_utilization

    @pytest.mark.parametrize(
        "policy_factory",
        [
            lambda indexed: SpreadFleetPolicy(indexed=indexed),
            lambda indexed: GoalAwareFleetPolicy(
                ModelRegistry(seed=5), indexed=indexed
            ),
        ],
        ids=["spread", "ml"],
    )
    def test_churn_reference_stream(self, policy_factory):
        requests = generate_churn_stream(
            100,
            seed=11,
            arrival_rate=1.0,
            mean_lifetime=25.0,
            heavy_tail=True,
            vcpus_choices=(8, 8, 8, 32),
        )

        def run(indexed):
            return LifecycleScheduler(
                Fleet.homogeneous(amd_opteron_6272(), 4),
                policy_factory(indexed),
                config=RebalanceConfig(),
            ).run(requests)

        indexed, linear = run(True), run(False)
        assert _decision_fingerprints(indexed) == _decision_fingerprints(
            linear
        )
        assert [
            (m.request_id, m.source_host, m.dest_host, m.engine)
            for m in indexed.churn.migrations
        ] == [
            (m.request_id, m.source_host, m.dest_host, m.engine)
            for m in linear.churn.migrations
        ]
        assert (
            indexed.churn.fragmentation_timeline
            == linear.churn.fragmentation_timeline
        )

    def test_index_consistent_after_churn(self):
        requests = generate_churn_stream(
            80, seed=2, arrival_rate=1.0, mean_lifetime=20.0
        )
        fleet = Fleet.homogeneous(amd_opteron_6272(), 3)
        LifecycleScheduler(
            fleet, SpreadFleetPolicy(), config=RebalanceConfig()
        ).run(requests)
        fleet.index.assert_consistent(fleet.hosts)

    def test_report_marks_indexed_mode(self):
        requests = generate_request_stream(5, seed=0)
        fleet = Fleet.homogeneous(amd_opteron_6272(), 2)
        report = FleetScheduler(
            fleet, FirstFitFleetPolicy(indexed=False)
        ).run(requests)
        assert report.indexed is False
        assert "linear scan" in report.describe()
        report = FleetScheduler(
            Fleet.homogeneous(amd_opteron_6272(), 2), FirstFitFleetPolicy()
        ).run(requests)
        assert report.indexed is True
        assert "indexed (fleet buckets)" in report.describe()


class TestModelServerEquivalence:
    """With online learning off, a ModelServer is the registry: every
    indexed decision must stay bit-for-bit identical to the frozen
    pipeline's on the reference streams (the PR-3 equivalence contract,
    extended across the serving refactor)."""

    def test_one_shot_reference_stream(self):
        from repro.serving import ModelServer

        requests = generate_request_stream(
            120, seed=3, vcpus_choices=(4, 8, 16, 10)
        )

        def run(registry):
            return FleetScheduler(
                _mixed_fleet(),
                GoalAwareFleetPolicy(registry),
                batch_size=32,
            ).run(requests)

        served = run(ModelServer(seed=5))
        frozen = run(ModelRegistry(seed=5))
        assert _decision_fingerprints(served) == _decision_fingerprints(
            frozen
        )

    def test_churn_reference_stream(self):
        from repro.serving import ModelServer

        requests = generate_churn_stream(
            100,
            seed=11,
            arrival_rate=1.0,
            mean_lifetime=25.0,
            heavy_tail=True,
            vcpus_choices=(8, 8, 8, 32),
        )

        def run(registry):
            return LifecycleScheduler(
                Fleet.homogeneous(amd_opteron_6272(), 4),
                GoalAwareFleetPolicy(registry),
                config=RebalanceConfig(),
            ).run(requests)

        served = run(ModelServer(seed=5))
        frozen = run(ModelRegistry(seed=5))
        assert _decision_fingerprints(served) == _decision_fingerprints(
            frozen
        )
        assert (
            served.churn.fragmentation_timeline
            == frozen.churn.fragmentation_timeline
        )


class TestGradingIpcMemo:
    """The grading denominator (and deterministic numerator) must be
    simulated once per distinct key, not once per placed container."""

    def test_baseline_ipc_cached_per_key(self, monkeypatch):
        registry = ModelRegistry(seed=0)
        machine = amd_opteron_6272()
        registry.model(machine, 8)  # prefit: training sims don't count
        simulator = registry.simulator(machine)
        calls = {"n": 0}
        original = type(simulator).measured_ipc
        original_batch = type(simulator).measured_ipc_batch

        def counting(self, *args, **kwargs):
            calls["n"] += 1
            return original(self, *args, **kwargs)

        def counting_batch(self, profiles, placements, *args, **kwargs):
            # Probe misses are simulated through the batched kernel, one
            # grid cell per (profile, placement) the memo lacked.
            calls["n"] += len(profiles) * len(placements)
            return original_batch(self, profiles, placements, *args, **kwargs)

        monkeypatch.setattr(type(simulator), "measured_ipc", counting)
        monkeypatch.setattr(
            type(simulator), "measured_ipc_batch", counting_batch
        )
        requests = generate_request_stream(
            30, seed=4, vcpus_choices=(8,), goal_choices=(0.9,)
        )
        fleet = Fleet.homogeneous(machine, 4)
        report = FleetScheduler(
            fleet, GoalAwareFleetPolicy(registry), registry=registry
        ).run(requests)
        placed = report.placed
        assert placed > 10
        # Without the memo the grader alone would run 2 simulations per
        # placed container; with it, noise-free runs happen once per
        # distinct (shape, profile, placement) / (shape, vcpus, profile).
        info = registry.ipc_cache_info()
        assert info.hits > 0
        assert calls["n"] < 2 * placed
        assert calls["n"] == info.misses

    def test_memoized_grades_equal_unmemoized(self):
        requests = generate_request_stream(
            25, seed=9, vcpus_choices=(8, 16)
        )

        def run(memoize_ipc):
            registry = ModelRegistry(seed=0, memoize_ipc=memoize_ipc)
            return FleetScheduler(
                Fleet.homogeneous(amd_opteron_6272(), 4),
                GoalAwareFleetPolicy(registry),
                registry=registry,
            ).run(requests)

        assert _decision_fingerprints(run(True)) == _decision_fingerprints(
            run(False)
        )
