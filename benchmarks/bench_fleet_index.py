"""Fleet index benchmark: sub-linear host selection, with equivalence gate.

Runs the heuristic policies (no model, no simulator — pure placement
machinery, so the host-selection cost dominates) through the same stream
twice per policy: once on the linear scan over ``fleet.hosts``, once on
the incremental ``FleetIndex`` + shared block-score tables.  Asserts, in
every mode including the CI smoke run:

* **decision equivalence** — the indexed scan picks exactly the hosts and
  node blocks the linear scan picks, request for request (the hard gate;
  a mismatch fails the build);
* **index consistency** — after the run, every index counter equals a
  from-scratch recomputation;
* (full mode only) the indexed path is faster at the largest fleet.

A scaling test times indexed first-fit on the same request stream at two
fleet sizes a decade apart (10k vs 100k hosts; 400 vs 4,000 at smoke
size): with id-ordered buckets the host search costs O(#buckets), not
O(#candidate hosts), so full mode asserts req/s stays within 1.5x across
the decade, and every mode asserts decisions equal the linear scan at
the small size.

A second test times the goal-aware ML policy end-to-end on the same
mixed 1000-host fleet (one fused arena forest call per 64-request batch)
— the number the arena inference engine moves.  The goal-aware policy's
equivalence on churn streams is covered by
``tests/scheduler/test_index.py``; its scaling across fleet sizes by
``bench_fleet_scheduler.py``.  Results go to ``BENCH_fleet.json``.
"""

from __future__ import annotations

import time

from conftest import BENCH_SMOKE as SMOKE
from conftest import record_bench

from repro.scheduler import (
    Fleet,
    FirstFitFleetPolicy,
    GoalAwareFleetPolicy,
    ModelRegistry,
    SpreadFleetPolicy,
    generate_request_stream,
)
from repro.topology import amd_opteron_6272, intel_xeon_e7_4830_v3

N_HOSTS = 40 if SMOKE else 1000
# Enough requests to fill most of the fleet: the linear scan's cost grows
# as early hosts fill (every request walks past them) while the indexed
# scan's shrinks (full hosts drop out of the candidate buckets) — the
# regime the index exists for.  The smoke size keeps the timed kernel in
# the tens of milliseconds: shorter runs are scheduler-noise-dominated
# and make the CI benchmark-regression gate flaky.
N_REQUESTS = 500 if SMOKE else 2500
SEED = 13
#: Fleet sizes of the scaling test, a decade apart, and the largest
#: allowed req/s ratio between them (ROADMAP item 2's near-flat gate).
SCALING_HOSTS = (400, 4_000) if SMOKE else (10_000, 100_000)
SCALING_MAX_SLOWDOWN = 1.5


def _fleet(n_hosts: int = N_HOSTS):
    # Mixed shapes so bucket iteration spans several fingerprints.
    half = n_hosts // 2
    return Fleet.mixed(
        [
            (amd_opteron_6272(), n_hosts - half),
            (intel_xeon_e7_4830_v3(), half),
        ]
    )


def _run(policy_factory, repeats: int = 3, n_hosts: int = N_HOSTS):
    """Best-of-``repeats`` timing: the kernel is milliseconds at smoke
    size, so a single sample is scheduler-noise-dominated; the fastest
    repeat is the standard microbenchmark noise killer.  Decisions are
    asserted identical across repeats (fresh fleet each time)."""
    requests = generate_request_stream(
        N_REQUESTS, seed=SEED, vcpus_choices=(4, 8, 16)
    )
    best_rps = 0.0
    fleet = decisions = reference = None
    for _ in range(repeats):
        fleet = _fleet(n_hosts)
        policy = policy_factory()
        start = time.perf_counter()
        decisions = policy.decide_batch(requests, fleet)
        elapsed = time.perf_counter() - start
        best_rps = max(best_rps, N_REQUESTS / elapsed)
        if reference is None:
            reference = _fingerprints(decisions)
        else:
            assert _fingerprints(decisions) == reference, (
                "decisions diverged across timing repeats — the policy is "
                "not deterministic in (requests, fresh fleet)"
            )
    return fleet, decisions, best_rps


def _fingerprints(decisions):
    return [
        (
            d.request.request_id,
            d.host_id,
            None if d.placement is None else d.placement.nodes,
            d.reject_reason,
        )
        for d in decisions
    ]


def test_indexed_scan_equivalent_and_fast(report):
    lines = [
        f"heuristic policies, mixed AMD/Intel fleet ({N_HOSTS} hosts, "
        f"{N_REQUESTS} requests, seed {SEED}{', SMOKE' if SMOKE else ''}):",
        "",
        f"{'policy':>10} {'linear req/s':>13} {'indexed req/s':>14} "
        f"{'speedup':>8}",
    ]
    results = {}
    for name, factory in (
        ("first-fit", FirstFitFleetPolicy),
        ("spread", SpreadFleetPolicy),
    ):
        fleet_linear, linear, linear_rps = _run(
            lambda: factory(indexed=False)
        )
        fleet_indexed, indexed, indexed_rps = _run(
            lambda: factory(indexed=True)
        )

        # The hard gate: indexed and linear scans must be
        # decision-for-decision identical.
        assert _fingerprints(indexed) == _fingerprints(linear), (
            f"{name}: indexed scan diverged from the linear scan"
        )
        # And the incrementally maintained index must agree with a
        # from-scratch recomputation after the whole stream.
        fleet_indexed.index.assert_consistent(fleet_indexed.hosts)

        speedup = indexed_rps / linear_rps
        results[name] = {
            "linear_rps": round(linear_rps, 1),
            "indexed_rps": round(indexed_rps, 1),
            "speedup": round(speedup, 2),
        }
        lines.append(
            f"{name:>10} {linear_rps:>13.1f} {indexed_rps:>14.1f} "
            f"{speedup:>7.1f}x"
        )

    lines += [
        "",
        "equivalence gate: indexed decisions identical to linear-scan "
        "decisions on both policies (asserted), index counters match "
        "from-scratch recomputation (asserted)",
    ]
    report("fleet_index", "\n".join(lines))

    record_bench(
        "fleet_index",
        {
            "scenario": "heuristic policies, mixed AMD/Intel fleet, "
            f"seed {SEED}",
            "hosts": N_HOSTS,
            "requests": N_REQUESTS,
            "policies": results,
            "equivalent": True,
        },
    )
    if not SMOKE:
        for name, numbers in results.items():
            assert numbers["speedup"] > 1.0, (
                f"{name}: indexed scan must beat the linear scan at "
                f"{N_HOSTS} hosts"
            )


def test_indexed_first_fit_scales_flat(report):
    """Indexed first-fit req/s at two fleet sizes a decade apart.

    Same stream, fresh fleet per repeat, fleet build outside the timed
    region: only the host search and block choice are timed.  Before the
    id-ordered buckets, first-fit took ``min()`` over every candidate id,
    so req/s fell ~10x across the decade; now each request reads one
    head per bucket.
    """
    small, large = SCALING_HOSTS
    _, linear, _ = _run(
        lambda: FirstFitFleetPolicy(indexed=False), repeats=1, n_hosts=small
    )
    fleet_small, indexed_small, small_rps = _run(
        FirstFitFleetPolicy, n_hosts=small
    )
    assert _fingerprints(indexed_small) == _fingerprints(linear), (
        f"first-fit: indexed scan diverged from the linear scan at {small} "
        "hosts"
    )
    fleet_small.index.assert_consistent(fleet_small.hosts)
    fleet_large, _, large_rps = _run(FirstFitFleetPolicy, n_hosts=large)
    fleet_large.index.assert_consistent(fleet_large.hosts)
    slowdown = small_rps / large_rps

    report(
        "fleet_index_scaling",
        "\n".join(
            [
                f"indexed first-fit, mixed AMD/Intel fleet, {N_REQUESTS} "
                f"requests, seed {SEED}{', SMOKE' if SMOKE else ''}:",
                "",
                f"  {small:>7} hosts: {small_rps:>10.1f} req/s (best of 3)",
                f"  {large:>7} hosts: {large_rps:>10.1f} req/s (best of 3)",
                f"  slowdown over the decade: {slowdown:.2f}x "
                f"(gate <= {SCALING_MAX_SLOWDOWN}x, full mode)",
                "",
                f"equivalence gate: indexed decisions identical to the "
                f"linear scan at {small} hosts (asserted)",
            ]
        ),
    )
    record_bench(
        "fleet_index_scaling",
        {
            "scenario": "indexed first-fit, mixed AMD/Intel fleet, fixed "
            f"request count, seed {SEED}",
            "requests": N_REQUESTS,
            "small_hosts": small,
            "large_hosts": large,
            "small_rps": round(small_rps, 1),
            "large_rps": round(large_rps, 1),
            "slowdown": round(slowdown, 2),
            "equivalent": True,
        },
    )
    if not SMOKE:
        assert slowdown <= SCALING_MAX_SLOWDOWN, (
            f"indexed first-fit lost {slowdown:.2f}x req/s from {small} to "
            f"{large} hosts (gate {SCALING_MAX_SLOWDOWN}x)"
        )


def test_goal_aware_end_to_end_throughput(report):
    """The model-driven policy on the same mixed fleet: the end-to-end
    number the arena-fused prediction hot path moves.

    Decisions in 64-request batches (the scheduler's default), model
    fitting and arena compilation excluded from the timed region.  The
    per-batch cost is one fused forest call + the indexed host scan; the
    throughput lands in ``BENCH_fleet.json`` next to the heuristic
    policies so the prediction overhead stays visible across PRs.
    """
    registry = ModelRegistry(n_estimators=40, n_synthetic=32, seed=SEED)
    shapes = (amd_opteron_6272(), intel_xeon_e7_4830_v3())
    for machine in shapes:
        for vcpus in (4, 8, 16):
            # Prefit and warm each compiled arena outside the timed region.
            registry.model(machine, vcpus).predict_batch([1.0], [1.0])
    requests = generate_request_stream(
        N_REQUESTS, seed=SEED, vcpus_choices=(4, 8, 16)
    )
    # Warm the *fused* arena for this plan combination too (it is built
    # lazily on the first decide_batch and cached process-wide): one
    # decision round on a throwaway fleet, so the timed repeats measure
    # steady-state prediction, not one-time array concatenation.
    GoalAwareFleetPolicy(registry).decide_batch(requests[:4], _fleet())
    batches = [
        requests[begin : begin + 64] for begin in range(0, len(requests), 64)
    ]

    best_rps = 0.0
    reference = None
    for _ in range(3):
        fleet = _fleet()
        policy = GoalAwareFleetPolicy(registry)
        start = time.perf_counter()
        decisions = []
        for batch in batches:
            decisions.extend(policy.decide_batch(batch, fleet))
        elapsed = time.perf_counter() - start
        best_rps = max(best_rps, N_REQUESTS / elapsed)
        if reference is None:
            reference = _fingerprints(decisions)
        else:
            assert _fingerprints(decisions) == reference, (
                "goal-aware decisions diverged across timing repeats"
            )

    lines = [
        f"goal-aware ML policy, mixed AMD/Intel fleet ({N_HOSTS} hosts, "
        f"{N_REQUESTS} requests, batches of 64, seed {SEED}"
        f"{', SMOKE' if SMOKE else ''}):",
        "",
        f"  fused-arena prediction hot path: {best_rps:.1f} req/s "
        f"(best of 3)",
    ]
    report("fleet_index_ml", "\n".join(lines))

    record_bench(
        "fleet_index_ml",
        {
            "scenario": "goal-aware ML policy, mixed AMD/Intel fleet, "
            f"batches of 64, seed {SEED}",
            "hosts": N_HOSTS,
            "requests": N_REQUESTS,
            "ml_rps": round(best_rps, 1),
        },
    )
