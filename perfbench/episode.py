"""One episode: build a service, warm it, serve one stream, check it.

End-to-end latency is stamped at two points the program exposes
publicly: **ingest**, when the service's event source
(``events_from_requests(...).drain()``) yields an arrival, and
**terminal decision**, when the arrival's final graded entry is appended
to ``SchedulerService.graded``.  Their difference covers window fill,
admission hold, wire, shard decide, retries and failover.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
from dataclasses import dataclass, field
from time import perf_counter, process_time
from typing import Dict, List

import repro.scheduler.service as service_module
from repro.scheduler import EventKind, SchedulerService

from tracing import Patches, Tracer
from workloads import Workload

ADMISSION_PREFIX = "admission:"


class _StampedQueue:
    """The event queue ``serve`` drains, stamping each arrival's ingest."""

    def __init__(self, queue, probe: "EndToEndProbe") -> None:
        self._queue = queue
        self._probe = probe

    def drain(self):
        ingest = self._probe.ingest
        for event in self._queue.drain():
            if event.kind is EventKind.ARRIVAL:
                ingest[event.request.request_id] = perf_counter()
            yield event
        self._probe.drained_at = perf_counter()


class _StampedList(list):
    """``SchedulerService.graded``, stamping each terminal decision."""

    def __init__(self, probe: "EndToEndProbe") -> None:
        super().__init__()
        self._probe = probe

    def append(self, entry) -> None:
        now = perf_counter()
        probe = self._probe
        request_id = entry.decision.request.request_id
        if request_id in probe.terminal:
            probe.duplicates.append(request_id)
        else:
            probe.terminal[request_id] = now
        super().append(entry)


class EndToEndProbe:
    def __init__(self) -> None:
        self.ingest: Dict[int, float] = {}
        self.terminal: Dict[int, float] = {}
        self.duplicates: List[int] = []
        self.drained_at: float | None = None

    def install(self, patches: Patches) -> None:
        original = service_module.events_from_requests

        def events_from_requests(requests):
            return _StampedQueue(original(requests), self)

        patches.replace(service_module, "events_from_requests", events_from_requests)


def decision_digest(graded) -> str:
    """SHA-256 over every graded decision, timing fields excluded."""
    digest = hashlib.sha256()
    for entry in graded:
        data = entry.to_dict()
        del data["decision_seconds"]
        digest.update(json.dumps(data, sort_keys=True).encode())
    return digest.hexdigest()


def warm(service: SchedulerService) -> None:
    """Fit and enumerate every (shape, vcpus) key each inline shard can
    use, through the public registry.  Process workers live in another
    process and cannot be warmed from here."""
    config = service.config
    for client in service.clients:
        # A fault-injecting client wraps the real one as ``inner``.
        client = getattr(client, "inner", client)
        worker = getattr(client, "worker", None)
        if worker is None:
            continue
        shapes = {machine.fingerprint(): machine for machine in worker.machines}
        for machine in shapes.values():
            for vcpus in sorted(set(config.vcpus)):
                worker.registry.placements(machine, vcpus)
                if config.policy == "ml":
                    worker.registry.model(machine, vcpus)


def percentile(values: List[float], pct: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def _children_usage():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


@dataclass
class Episode:
    traced: bool
    setup_s: float
    first_decision_s: float
    serve_s: float
    cpu_s: float
    arrivals: int
    terminal: int
    placed: int
    goal_arrivals: int
    goal_placed: int
    violation_pct: float
    achieved_rel_mean: float
    refused: int
    latencies_ms: List[float]
    amortized_p50_ms: float
    amortized_p99_ms: float
    digest: str
    #: Arrivals without exactly one terminal decision (lost or repeated).
    unsettled: int = 0
    errors: List[str] = field(default_factory=list)
    layers: Dict[str, float] = field(default_factory=dict)
    tracer: Tracer | None = None

    @property
    def throughput_rps(self) -> float:
        return self.terminal / self.serve_s

    @property
    def goodput_rps(self) -> float:
        return self.placed / self.serve_s

    @property
    def latency_p50_ms(self) -> float:
        return percentile(self.latencies_ms, 50.0)

    @property
    def latency_p99_ms(self) -> float:
        return percentile(self.latencies_ms, 99.0)


def run_episode(
    workload: Workload, seed: int, stream, *, traced: bool = False
) -> Episode:
    config = workload.config(seed)
    faults = workload.faults(config)
    probe = EndToEndProbe()
    tracer = Tracer() if traced else None
    patches = Patches()
    children_before = _children_usage()
    try:
        probe.install(patches)
        if tracer is not None:
            tracer.install(patches, worker_side=not workload.process)
            tracer.active = True
        started = perf_counter()
        service = SchedulerService(config, faults=faults)
        try:
            service.graded = _StampedList(probe)
            warm(service)
            serve_started = perf_counter()
            cpu_started = process_time()
            report = service.serve(stream)
            cpu_s = process_time() - cpu_started
            serve_ended = perf_counter()
        finally:
            if tracer is not None:
                tracer.active = False
            service.close()
    finally:
        patches.restore()
    cpu_s += _children_usage() - children_before

    expected = {request.request_id for request in stream}
    errors = check_terminal(probe, expected, report)
    decisions = report.decisions
    placed = [g for g in decisions if g.decision.placed]
    goal = [g for g in decisions if g.decision.request.goal_fraction is not None]
    refused = [
        g
        for g in decisions
        if (g.decision.reject_reason or "").startswith(ADMISSION_PREFIX)
    ]
    refused_ids = {g.decision.request.request_id for g in refused}
    latencies = [
        1000.0 * (probe.terminal[rid] - probe.ingest[rid])
        for rid in probe.terminal
        if rid not in refused_ids and rid in probe.ingest
    ]
    amortized_p50, amortized_p99 = report.latency_percentiles_ms()
    episode = Episode(
        traced=traced,
        setup_s=serve_started - started,
        first_decision_s=min(probe.terminal.values(), default=serve_ended)
        - started,
        serve_s=serve_ended - serve_started,
        cpu_s=cpu_s,
        arrivals=len(expected),
        terminal=len(probe.terminal),
        placed=len(placed),
        goal_arrivals=len(goal),
        goal_placed=sum(1 for g in goal if g.decision.placed),
        violation_pct=report.violation_pct,
        achieved_rel_mean=statistics.fmean(g.achieved_relative for g in placed)
        if placed
        else 0.0,
        refused=len(refused),
        latencies_ms=latencies,
        amortized_p50_ms=amortized_p50,
        amortized_p99_ms=amortized_p99,
        digest=decision_digest(decisions),
        unsettled=len(expected - probe.terminal.keys()) + len(probe.duplicates),
        errors=errors,
    )
    if tracer is not None:
        episode.tracer = tracer
        episode.layers = layer_metrics(tracer, report, probe, serve_ended)
    return episode


def check_terminal(probe: EndToEndProbe, expected, report) -> List[str]:
    """Every arrival (``expected`` request ids) gets exactly one terminal
    decision."""
    errors = []
    if probe.duplicates:
        errors.append(
            f"{len(probe.duplicates)} arrival(s) decided more than once, "
            f"first {probe.duplicates[0]}"
        )
    lost = expected - set(probe.terminal)
    if lost:
        errors.append(f"{len(lost)} arrival(s) never decided, e.g. {min(lost)}")
    stray = set(probe.terminal) - expected
    if stray:
        errors.append(f"{len(stray)} decision(s) for unknown arrivals")
    if set(probe.ingest) != expected:
        errors.append(
            f"ingested {len(probe.ingest)} arrival(s), stream has {len(expected)}"
        )
    if report.n_requests != len(expected) or len(report.decisions) != len(
        expected
    ):
        errors.append(
            f"report covers {report.n_requests} request(s) and "
            f"{len(report.decisions)} decision(s) for {len(expected)} arrivals"
        )
    return errors


def layer_metrics(tracer: Tracer, report, probe: EndToEndProbe, served_at: float):
    totals = tracer.totals()
    counters = tracer.counters
    stats = report.service

    def calls(name):
        return totals[name]["calls"] if name in totals else 0

    def self_s(*names):
        return sum(totals[name]["self_s"] for name in names if name in totals)

    def total_s(name):
        return totals[name]["total_s"] if name in totals else 0.0

    loads = [n for n in stats.shard_requests]
    mean_load = sum(loads) / len(loads) if loads else 0.0
    returned = counters["index.candidates_returned"]
    ipc = report.ipc_cache_info
    ipc_lookups = 0 if ipc is None else ipc.hits + ipc.misses
    last_decision = max(probe.terminal.values(), default=served_at)
    stream_end = max(last_decision, probe.drained_at or served_at)
    return {
        "service.self_s": self_s("service.serve"),
        "service.windows": stats.rounds,
        "service.window_fill_mean": stats.routed / stats.rounds
        if stats.rounds
        else 0.0,
        "service.route_max_over_mean": max(loads) / mean_load if mean_load else 0.0,
        "service.retries": stats.retries,
        "service.failovers": stats.failovers,
        "service.merge_s": served_at - stream_end,
        "shard.messages": counters["shard.messages"],
        "shard.msg_bytes": counters["shard.msg_bytes"],
        "shard.wire_s": self_s("shard.send", "shard.recv"),
        "shard.handle_s": self_s("shard.handle"),
        "shard.gather_wait_s": total_s("shard.gather_wait"),
        "supervisor.crashes": stats.crashes,
        "supervisor.replayed": stats.replayed_messages,
        "admission.screen_calls": calls("admission.screen"),
        "admission.screen_s": self_s("admission.screen"),
        "admission.held_p99_ms": tracer.held_p99_ms(),
        "admission.shed": 0 if stats.admission is None else stats.admission.shed_total,
        "capacity.resize_calls": calls("capacity.resize"),
        "capacity.resize_s": self_s("capacity.resize"),
        "lifecycle.step_batch_s": self_s("lifecycle.step_batch"),
        "lifecycle.depart_calls": calls("lifecycle.depart"),
        "lifecycle.depart_s": self_s("lifecycle.depart"),
        "lifecycle.migrations": 0 if report.churn is None else report.churn.n_migrations,
        "policies.decide_s": self_s("policies.decide"),
        "policies.find_block_calls": calls("policies.find_block"),
        "policies.find_block_s": self_s("policies.find_block"),
        "index.candidates_calls": calls("index.candidates"),
        "index.candidates_s": self_s("index.candidates"),
        "index.candidates_returned": returned,
        "index.useful_ratio": report.placed / returned if returned else 0.0,
        "registry.fits": calls("model.fit"),
        "registry.fit_s": tracer.fit_seconds(),
        "registry.enumerations": calls("registry.enumerate"),
        "registry.placements_s": total_s("registry.placements"),
        "registry.probe_rows": counters["registry.probe_rows"],
        "registry.probe_s": self_s("registry.probe"),
        "model.predict_calls": calls("model.predict"),
        "model.predict_rows": counters["model.predict_rows"],
        "model.predict_s": self_s("model.predict"),
        "grade.calls": calls("grade"),
        "grade.s": self_s("grade"),
        "grade.ipc_hit_ratio": ipc.hits / ipc_lookups if ipc_lookups else 0.0,
        "fleet.build_s": total_s("fleet.build"),
        "fleet.allocate_calls": calls("fleet.allocate"),
        "fleet.alloc_release_s": self_s("fleet.allocate", "fleet.release"),
        "trace.spans": len(tracer.spans),
    }
