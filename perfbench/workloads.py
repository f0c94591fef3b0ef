"""The benchmark's four service workloads.

Every workload is a closed replay of one heavy-tailed churn stream
(Pareto lifetimes, Poisson arrivals) through ``SchedulerService.serve``:
the front end ingests the next event only after the previous one's
handling returns.  Stream times are simulated, so the service sets its
own pace and throughput is arrivals completed per second of wall time at
the stated stream size.  Why each workload exists, which layers it loads
and which pairings are predicted not to move is in ``WORKLOADS.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict

from repro.scheduler import FaultPlan, ScheduleConfig

#: Stream shape shared by every workload.
STREAM = dict(churn=True, heavy_tail=True, arrival_rate=20.0)


@dataclass(frozen=True)
class Workload:
    name: str
    #: Arrivals per stream (each has one departure as well).
    arrivals: int
    #: ``ScheduleConfig`` fields besides the seed and the stream size.
    settings: Dict = field(default_factory=dict)
    #: Wrap every shard in ``FaultPlan.kill_each_shard_once`` (seeded).
    chaos: bool = False
    #: Worker transport of the twin run whose decisions must equal this
    #: workload's bit for bit (None: no twin).
    twin: str | None = None

    def config(self, seed: int) -> ScheduleConfig:
        return ScheduleConfig(
            seed=seed, requests=self.arrivals, **STREAM, **self.settings
        ).validate()

    def faults(self, config: ScheduleConfig) -> FaultPlan | None:
        if not self.chaos:
            return None
        return FaultPlan.kill_each_shard_once(config.shards, seed=config.seed)

    @property
    def process(self) -> bool:
        return self.settings.get("workers") == "process"

    def twin_workload(self) -> "Workload":
        """The same workload on the twin transport; the two transports
        are meant to make bit-identical decisions."""
        settings = dict(self.settings, workers=self.twin)
        return replace(
            self, name=f"{self.name}/{self.twin}", settings=settings, twin=None
        )


GOAL_MIXED = dict(
    machine="mixed",
    hosts=2000,
    policy="ml",
    vcpus=(8, 8, 16, 32),
    mean_lifetime=40.0,
    window=16,
)

WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "goal-mixed",
            arrivals=4000,
            settings=dict(GOAL_MIXED, shards=4),
            twin="process",
        ),
        Workload(
            "firstfit-100k",
            arrivals=4000,
            settings=dict(
                machine="amd",
                hosts=100_000,
                policy="first-fit",
                vcpus=(8, 8, 16, 32),
                mean_lifetime=40.0,
                shards=4,
                window=16,
            ),
        ),
        Workload(
            "overload-chaos",
            arrivals=4000,
            settings=dict(
                machine="amd",
                hosts=24,
                policy="first-fit",
                vcpus=(8, 16),
                mean_lifetime=20.0,
                shards=2,
                window=4,
                admission=True,
                queue_limit=8,
                shed_policy="drop-oldest",
                brownout_watermark=0.75,
                recovery_rounds=2,
            ),
            chaos=True,
        ),
        Workload(
            "goal-mixed-proc",
            arrivals=4000,
            settings=dict(GOAL_MIXED, shards=2, workers="process"),
            twin="inline",
        ),
    )
}
