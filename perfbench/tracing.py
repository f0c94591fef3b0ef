"""Spans around the program's public calls, recorded from outside.

The benchmark does not edit the program: it swaps public functions and
methods for timing wrappers while a traced episode runs and puts the
originals back afterwards (:class:`Patches`).  A span is ``[name, start,
end, parent, context]``; ``parent`` indexes the span that was open when
this one began, and ``context`` names the request or routing window it
serves (inherited from the parent unless the hook derives its own).
Spans stay in memory and are written out when the run ends.

Hooks come in two groups.  Front-end hooks run in the front-end process
on either transport.  Worker hooks run where the shards run, so they are
only installed when the shards are inline: a process worker forks with
whatever was installed, so installing them there would slow the workers
without reporting anything back.
"""

from __future__ import annotations

import functools
import json
import statistics
import types
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List

import repro.core.memo as memo_module
import repro.scheduler.lifecycle as lifecycle_module
import repro.scheduler.policies as policies_module
import repro.scheduler.service as service_module
import repro.scheduler.shard as shard_module
from repro.core.model import PlacementModel
from repro.scheduler import (
    AdmissionController,
    CapacityTracker,
    FirstFitFleetPolicy,
    Fleet,
    FleetHost,
    FleetIndex,
    GoalAwareFleetPolicy,
    InlineShardClient,
    LifecycleScheduler,
    ModelRegistry,
    ProcessShardClient,
    SchedulerService,
    ShardWorker,
    SpreadFleetPolicy,
)

_MISSING = object()


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[tuple] = []

    def replace(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


def _message_context(args) -> str:
    message = args[1]
    op = message.get("op", "?")
    events = message.get("events") or message.get("requests") or []
    if op == "arrive" and events:
        return f"window@{events[0][0]['request_id']}"
    if op == "decide" and events:
        return f"window@{events[0]['request_id']}"
    return op


def _request_context(args) -> str:
    return f"request@{args[1].request_id}"


class Tracer:
    """In-memory span recorder plus the counters measured at the same
    boundaries (bytes on the wire, ids returned, rows predicted)."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        #: request id -> when the admission controller put it on hold.
        self.hold_started: Dict[int, float] = {}
        #: Hold durations (seconds) of holds that ended (drained or shed).
        self.hold_seconds: List[float] = []
        self.active = False
        self._stack: List[int] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        context: Callable | None = None,
        after: Callable | None = None,
    ) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            spans = tracer.spans
            parent = stack[-1] if stack else -1
            if context is not None:
                label = context(args)
            else:
                label = spans[parent][4] if parent >= 0 else None
            span = [name, 0.0, 0.0, parent, label]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _end_holds(self, sheds) -> None:
        now = perf_counter()
        for shed in sheds:
            started = self.hold_started.pop(shed[0].request_id, None)
            if started is not None:
                self.hold_seconds.append(now - started)

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------

    def install(self, patches: Patches, *, worker_side: bool) -> None:
        """Wrap the front-end hooks, and the worker hooks when the shards
        run in this process."""
        counters = self.counters

        def count_sent(args, _result):
            counters["shard.messages"] += 1
            counters["shard.msg_bytes"] += len(json.dumps(args[1]))

        def count_received(_args, response):
            counters["shard.msg_bytes"] += len(json.dumps(response))

        def screened(args, result):
            decision, sheds = result
            if decision.outcome == "hold":
                self.hold_started[decision.request_id] = perf_counter()
            self._end_holds(sheds)

        def drained(_args, items):
            self._end_holds(items)

        def shed_one(_args, shed):
            if shed is not None:
                self._end_holds([shed])

        def shed_many(_args, sheds):
            self._end_holds(sheds)

        def hook(owner, attr, name, **options):
            patches.replace(
                owner, attr, self.wrap(name, getattr(owner, attr), **options)
            )

        hook(SchedulerService, "serve", "service.serve")
        for client in (InlineShardClient, ProcessShardClient):
            hook(
                client,
                "send",
                "shard.send",
                context=_message_context,
                after=count_sent,
            )
            hook(client, "recv", "shard.recv", after=count_received)
        gather = service_module.mp_connection
        patches.replace(
            service_module,
            "mp_connection",
            types.SimpleNamespace(
                wait=self.wrap("shard.gather_wait", gather.wait)
            ),
        )
        hook(
            AdmissionController,
            "screen",
            "admission.screen",
            context=_request_context,
            after=screened,
        )
        hook(AdmissionController, "drain", "admission.drain", after=drained)
        for attr in ("expire", "flush"):
            hook(AdmissionController, attr, f"admission.{attr}", after=shed_many)
        hook(AdmissionController, "cancel", "admission.cancel", after=shed_one)
        if not worker_side:
            return

        def count_candidates(_args, ids):
            counters["index.candidates_returned"] += len(ids)

        def count_probe_rows(args, _result):
            counters["registry.probe_rows"] += len(args[2])

        def count_probe_row(_args, _result):
            counters["registry.probe_rows"] += 1

        def count_predict_rows(args, _result):
            counters["model.predict_rows"] += sum(len(x) for _, x in args[0])

        hook(ShardWorker, "handle", "shard.handle")
        hook(LifecycleScheduler, "step_batch", "lifecycle.step_batch")
        hook(LifecycleScheduler, "depart", "lifecycle.depart")
        for policy in (FirstFitFleetPolicy, SpreadFleetPolicy, GoalAwareFleetPolicy):
            hook(policy, "decide_batch", "policies.decide")
        hook(FleetHost, "find_block", "policies.find_block")
        hook(FleetIndex, "candidates", "index.candidates", after=count_candidates)
        hook(ModelRegistry, "model", "registry.model")
        hook(PlacementModel, "fit", "model.fit")
        hook(ModelRegistry, "placements", "registry.placements")
        hook(memo_module, "enumerate_important_placements", "registry.enumerate")
        hook(
            ModelRegistry,
            "probe_ipc_batch",
            "registry.probe",
            after=count_probe_rows,
        )
        hook(ModelRegistry, "probe_ipc", "registry.probe", after=count_probe_row)
        hook(
            policies_module,
            "predict_fused",
            "model.predict",
            after=count_predict_rows,
        )
        hook(lifecycle_module, "grade_decision", "grade")
        hook(shard_module, "grade_decision", "grade")
        hook(Fleet, "__init__", "fleet.build")
        hook(FleetHost, "allocate", "fleet.allocate")
        hook(FleetHost, "release", "fleet.release")
        hook(CapacityTracker, "on_resize", "capacity.resize")

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds (the
        duration minus the time covered by direct child spans)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for position, (name, start, end, _, _) in enumerate(self.spans):
            entry = totals[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[position]
        return totals

    def fit_seconds(self) -> float:
        """Inclusive time of the registry.model calls that fitted a model
        (training-set build plus forest fit); memo hits are excluded."""
        fitted = {
            parent
            for name, _, _, parent, _ in self.spans
            if name == "model.fit" and parent >= 0
        }
        return sum(
            self.spans[position][2] - self.spans[position][1]
            for position in fitted
            if self.spans[position][0] == "registry.model"
        )

    def held_p99_ms(self) -> float:
        if len(self.hold_seconds) < 2:
            return 1000.0 * sum(self.hold_seconds)
        return 1000.0 * statistics.quantiles(
            self.hold_seconds, n=100, method="inclusive"
        )[98]

    def write(self, handle, episode: int) -> None:
        """Append this tracer's spans as JSON lines of ``[episode, id,
        name, start_us, end_us, parent, context]``, times in microseconds
        from the episode's first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        for position, (name, start, end, parent, label) in enumerate(self.spans):
            handle.write(
                json.dumps(
                    [
                        episode,
                        position,
                        name,
                        round((start - origin) * 1e6, 1),
                        round((end - origin) * 1e6, 1),
                        parent,
                        label,
                    ]
                )
                + "\n"
            )
