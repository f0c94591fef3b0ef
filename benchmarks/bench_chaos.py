"""Chaos benchmark: availability and tail latency under injected faults.

One heavy-tailed churn stream runs through the sharded service (whose
supervision is always on) three times:

* **fault-free** — no fault plan: the baseline the chaos runs are
  compared against;
* **chaos, immediate recovery** — the seeded kill-each-shard-once plan
  with ``recovery_rounds=0``: every crash is absorbed inside the failed
  send by a respawn + journal replay, and the merged report must be
  *equal* to the fault-free run (zero lost/duplicated placements, same
  decisions, same churn timeline);
* **chaos, deferred recovery** — the same kill plan with
  ``recovery_rounds=2``: dead shards stay down for two routing rounds,
  arrivals fail over to survivors, and availability dips below 100%
  (measured as the fraction of arrivals untouched by any fault
  handling).

Hard gates (asserted in full *and* smoke mode):

* a crash-at-every-message sweep over a short stream converges to the
  fault-free merged report at every crash point;
* the immediate-recovery chaos run equals the fault-free run.

Results are persisted to ``BENCH_fleet.json`` under the ``chaos``
scenario: availability %, p50/p99 decision latency, fault counters.

Set ``REPRO_BENCH_SMOKE=1`` for the tiny CI configuration.
"""

from __future__ import annotations

import time

from conftest import BENCH_SMOKE as SMOKE
from conftest import record_bench

from repro.scheduler import FaultPlan, ScheduleConfig, SchedulerService

HOSTS = 8 if SMOKE else 64
N_REQUESTS = 120 if SMOKE else 1_200
SHARDS = 2 if SMOKE else 4
WINDOW = 4 if SMOKE else 8
VCPUS = (8, 8, 16, 32)
SEED = 17
#: Availability floor asserted for the deferred-recovery chaos run: the
#: kill schedule downs every shard once, so some arrivals must degrade,
#: but the overwhelming majority of the stream rides clean.
MIN_AVAILABILITY = 80.0

#: Short first-fit stream for the crash-at-every-message sweep (dozens
#: of full service runs).
SWEEP_REFERENCE = dict(
    machine="amd",
    hosts=4,
    requests=16 if SMOKE else 24,
    seed=7,
    churn=True,
    policy="first-fit",
    arrival_rate=1.0,
    mean_lifetime=20.0,
    heavy_tail=True,
    vcpus=(8, 8, 16),
)


def _chaos_config(**overrides) -> ScheduleConfig:
    values = dict(
        machine="amd",
        hosts=HOSTS,
        requests=N_REQUESTS,
        seed=SEED,
        churn=True,
        policy="first-fit",
        arrival_rate=10.0,
        mean_lifetime=30.0,
        heavy_tail=True,
        vcpus=VCPUS,
        shards=SHARDS,
        window=WINDOW,
        backoff_base_s=0.0,
    )
    values.update(overrides)
    return ScheduleConfig(**values)


def _run(config: ScheduleConfig, faults=None):
    with SchedulerService(config, faults=faults) as service:
        start = time.perf_counter()
        fleet_report = service.serve()
        return fleet_report, time.perf_counter() - start


def _fingerprints(decisions):
    return [
        (
            g.decision.request.request_id,
            g.decision.host_id,
            None
            if g.decision.placement is None
            else (
                tuple(g.decision.placement.nodes),
                g.decision.placement.l2_share,
            ),
            g.decision.placement_id,
            g.decision.block_exact,
            g.decision.reject_reason,
            g.achieved_relative,
            g.violated,
        )
        for g in decisions
    ]


def _signature(fleet_report):
    return (
        _fingerprints(fleet_report.decisions),
        fleet_report.placed,
        fleet_report.rejected,
        fleet_report.churn.to_dict(),
    )


def _availability(stats) -> float:
    if stats.routed == 0:
        return 100.0
    return 100.0 * (1.0 - stats.degraded_arrivals / stats.routed)


def test_chaos_availability_and_convergence(report):
    base_report, base_seconds = _run(_chaos_config())

    # ------------------------------------------------------------------
    # Gate 1: crash-at-every-message sweep converges (short stream).
    # ------------------------------------------------------------------
    sweep_config = ScheduleConfig(
        **SWEEP_REFERENCE, shards=2, window=4, backoff_base_s=0.0
    )
    sweep_base, _ = _run(sweep_config, faults=FaultPlan(actions=[]))
    sweep_signature = _signature(sweep_base)
    with SchedulerService(
        sweep_config, faults=FaultPlan(actions=[])
    ) as probe:
        probe.serve()
        message_counts = [
            schedule.messages_seen for schedule in probe._fault_schedules
        ]
    sweep_runs = 0
    for shard, count in enumerate(message_counts):
        for index in range(count):
            crashed, _ = _run(
                sweep_config, faults=FaultPlan.crash_at(shard, index)
            )
            assert _signature(crashed) == sweep_signature, (
                f"crash at shard {shard} message {index} diverged from "
                "the fault-free report"
            )
            sweep_runs += 1

    # ------------------------------------------------------------------
    # Headline: seeded kill schedule, immediate vs deferred recovery.
    # ------------------------------------------------------------------
    plan = FaultPlan.kill_each_shard_once(SHARDS, seed=SEED)
    immediate_report, immediate_seconds = _run(
        _chaos_config(), faults=plan
    )
    immediate_converged = _signature(immediate_report) == _signature(
        base_report
    )
    assert immediate_converged, (
        "immediate-recovery chaos run must converge to the fault-free "
        "merged report"
    )
    deferred_report, deferred_seconds = _run(
        _chaos_config(recovery_rounds=2), faults=plan
    )
    ids = [
        g.decision.request.request_id for g in deferred_report.decisions
    ]
    assert len(ids) == len(set(ids)) == len(base_report.decisions), (
        "degraded operation must still decide every request exactly once"
    )

    rows = []
    for label, fleet_report, seconds in (
        ("fault-free", base_report, base_seconds),
        ("chaos immediate", immediate_report, immediate_seconds),
        ("chaos deferred", deferred_report, deferred_seconds),
    ):
        stats = fleet_report.service
        p50_ms, p99_ms = fleet_report.latency_percentiles_ms()
        rows.append(
            {
                "label": label,
                "availability_pct": round(_availability(stats), 2),
                "p50_ms": round(p50_ms, 3),
                "p99_ms": round(p99_ms, 3),
                "rps": round(N_REQUESTS / seconds, 1),
                "crashes": stats.crashes,
                "timeouts": stats.timeouts,
                "failovers": stats.failovers,
                "journal_replays": stats.journal_replays,
                "replayed_messages": stats.replayed_messages,
                "degraded_windows": stats.degraded_windows,
                "placed": fleet_report.placed,
                "rejected": fleet_report.rejected,
            }
        )

    lines = [
        f"chaos: seeded kill-each-shard-once over {N_REQUESTS} "
        f"heavy-tailed churn requests, {SHARDS} shards, window {WINDOW}, "
        f"seed {SEED}{', SMOKE' if SMOKE else ''}:",
        "",
        f"{'run':>16} {'avail %':>8} {'p50 ms':>8} {'p99 ms':>8} "
        f"{'req/s':>8} {'crashes':>8} {'replays':>8} {'failovers':>10}",
    ]
    for row in rows:
        lines.append(
            f"{row['label']:>16} {row['availability_pct']:>8.2f} "
            f"{row['p50_ms']:>8.3f} {row['p99_ms']:>8.3f} "
            f"{row['rps']:>8.1f} {row['crashes']:>8} "
            f"{row['journal_replays']:>8} {row['failovers']:>10}"
        )
    lines += [
        "",
        f"crash-at-every-message sweep: {sweep_runs} crash points, every "
        "one converged to the fault-free merged report (zero lost or "
        "duplicated placements)",
    ]
    report("chaos", "\n".join(lines))

    record_bench(
        "chaos",
        {
            "scenario": f"kill each of {SHARDS} shards once (seeded), "
            f"heavy-tailed churn, {HOSTS} hosts, vcpus {list(VCPUS)}, "
            f"seed {SEED}",
            "requests": N_REQUESTS,
            "shards": SHARDS,
            "window": WINDOW,
            "transport": "inline",
            "fault_plan": plan.to_dict(),
            "immediate_recovery_converged": immediate_converged,
            "crash_sweep_points": sweep_runs,
            "runs": {row.pop("label"): row for row in [dict(r) for r in rows]},
        },
    )

    deferred_stats = deferred_report.service
    assert deferred_stats.crashes == SHARDS
    availability = _availability(deferred_stats)
    assert availability >= MIN_AVAILABILITY, (
        f"deferred-recovery availability fell to {availability:.1f}% "
        f"(floor {MIN_AVAILABILITY}%)"
    )
