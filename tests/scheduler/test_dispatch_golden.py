"""Golden digests of the service's dispatch path.

Every cell serves a reference churn stream through
:class:`~repro.scheduler.service.SchedulerService` and hashes three
things: the decision fingerprints, the merged churn report, and the
non-timing :class:`~repro.scheduler.service.ServiceStats` counters.  The
committed digests in ``dispatch_golden.json`` were recorded from the
overlapped path while the service still carried its sequential and
unsupervised dispatch modes, which made the same decisions in every
cell except two deferred-recovery ones (the sequential mode failed a
dead shard's slice over *before* the surviving shards' window messages,
the overlapped path does so after them).  They pin the one
remaining dispatch path on both transports, with and without crashes,
under immediate and deferred recovery, and with admission control on.
The ``mixed-*`` cells serve a goal-aware stream on both machine shapes
at four shards; they were recorded while every shard still fitted its
own forests, and pin that sharing fitted models between inline shards
changes no decision, report or counter.

Re-record (only for an intended decision change) with::

    PYTHONPATH=src python -m tests.scheduler.test_dispatch_golden
"""

import hashlib
import itertools
import json
from pathlib import Path

import pytest

from repro.scheduler import FaultPlan, ScheduleConfig, SchedulerService
from tests.scheduler.test_faults import FAST_REFERENCE
from tests.scheduler.test_service import (
    CHURN_REFERENCE,
    MIXED_REFERENCE,
    _fingerprints,
)

GOLDEN_PATH = Path(__file__).with_name("dispatch_golden.json")

STREAMS = {"churn": CHURN_REFERENCE, "fast": FAST_REFERENCE}
SHAPES = ((1, 1), (2, 4), (4, 8))
#: fault label -> recovery_rounds (None: no fault plan).
FAULTS = {"none": None, "kill-r0": 0, "kill-r2": 2}

#: ServiceStats fields that carry no wall-clock timing.
COUNTERS = (
    "n_shards",
    "window",
    "transport",
    "rounds",
    "routed",
    "departures_routed",
    "departure_batches",
    "retries",
    "recovered_by_retry",
    "exhausted",
    "shard_requests",
    "shard_placed",
    "crashes",
    "timeouts",
    "backoff_retries",
    "failovers",
    "journal_replays",
    "replayed_messages",
    "degraded_windows",
    "degraded_arrivals",
    "retries_short_circuited",
)


def _cells():
    cells = {}
    for stream, workers, (shards, window), fault in itertools.product(
        STREAMS, ("inline", "process"), SHAPES, FAULTS
    ):
        name = f"{stream}-{workers}-s{shards}w{window}-{fault}"
        cells[name] = (
            dict(
                STREAMS[stream],
                workers=workers,
                shards=shards,
                window=window,
                backoff_base_s=0.0,
                recovery_rounds=FAULTS[fault] or 0,
            ),
            FAULTS[fault] is not None,
        )
    for workers, fault in itertools.product(
        ("inline", "process"), ("none", "kill-r0")
    ):
        cells[f"mixed-{workers}-s4w8-{fault}"] = (
            dict(
                MIXED_REFERENCE,
                workers=workers,
                shards=4,
                window=8,
                backoff_base_s=0.0,
            ),
            fault != "none",
        )
    cells["fast-inline-s2w4-kill-r2-admission"] = (
        dict(
            FAST_REFERENCE,
            shards=2,
            window=4,
            backoff_base_s=0.0,
            recovery_rounds=2,
            admission=True,
            queue_limit=4,
            shed_policy="drop-oldest",
            brownout_watermark=0.75,
        ),
        True,
    )
    return cells


CELLS = _cells()


def _sha(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


def cell_digests(name: str) -> dict:
    values, chaos = CELLS[name]
    config = ScheduleConfig(**values)
    faults = (
        FaultPlan.kill_each_shard_once(config.shards, seed=config.seed)
        if chaos
        else None
    )
    with SchedulerService(config, faults=faults) as service:
        report = service.serve()
    stats = report.service
    counters = {key: getattr(stats, key) for key in COUNTERS}
    if stats.admission is not None:
        counters["admission"] = stats.admission.to_dict()
    return {
        "decisions": _sha(_fingerprints(report.decisions)),
        "churn": _sha(report.churn.to_dict()),
        "counters": _sha(counters),
    }


def _params():
    for name in CELLS:
        marks = [pytest.mark.slow] if "-process-" in name else []
        yield pytest.param(name, id=name, marks=marks)


@pytest.mark.parametrize("name", _params())
def test_dispatch_matches_golden_digests(name):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert cell_digests(name) == golden[name]


if __name__ == "__main__":
    print(
        json.dumps(
            {name: cell_digests(name) for name in CELLS},
            indent=1,
            sort_keys=True,
        )
    )
