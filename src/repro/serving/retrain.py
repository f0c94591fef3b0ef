"""Trace-fed retraining: turn observed workloads into a candidate model.

The warm-start discipline keeps retraining cheap enough to run inside the
serving loop:

* **corpus growth is incremental and batched** — the key's retained
  :class:`~repro.core.training.TrainingSet` gains rows only for workloads
  observed in the trace window that the corpus has never seen, and
  :func:`~repro.core.training.extend_training_set` simulates all of those
  rows in one vectorized
  :meth:`~repro.perfsim.simulator.PerformanceSimulator.measured_ipc_batch`
  kernel call rather than a Python loop per (workload, placement) cell;
* **the forest is grown, not refitted** — the candidate inherits the
  incumbent's trees, grows a budgeted batch of fresh trees on the extended
  corpus, and prunes the oldest back to the tree budget
  (:meth:`~repro.core.model.PlacementModel.warm_refit`), so serving cost
  stays flat while repeated retrains cycle pre-drift trees out of the
  ensemble.

The retrainer only *builds* candidates; whether one ships is the holdout
gate's call (:mod:`repro.serving.online`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.core.training import extend_training_set
from repro.serving.server import ModelServer, ModelVersion
from repro.serving.traces import PlacementObservation
from repro.topology.machine import MachineTopology


@dataclass(frozen=True)
class RetrainConfig:
    """Budget knobs of one retraining round."""

    #: Most distinct newly observed workloads folded in per retrain
    #: (newest first) — bounds the simulator cost of a round.
    max_new_workloads: int = 24
    #: Trees grown on the extended corpus per retrain.
    n_grow: int = 16
    #: Ensemble size ceiling; None keeps the incumbent's size.
    tree_budget: int | None = None

    def __post_init__(self) -> None:
        if self.max_new_workloads < 1:
            raise ValueError("max_new_workloads must be >= 1")
        if self.n_grow < 1:
            raise ValueError("n_grow must be >= 1")
        if self.tree_budget is not None and self.tree_budget < 1:
            raise ValueError("tree_budget must be >= 1 or None")


class Retrainer:
    """Builds shadow candidates from a key's recent traces."""

    def __init__(
        self, server: ModelServer, config: RetrainConfig | None = None
    ) -> None:
        self.server = server
        self.config = config or RetrainConfig()
        #: Simulator runs spent extending corpora (cost accounting).
        self.simulated_rows = 0

    def retrain(
        self,
        machine: MachineTopology,
        vcpus: int,
        traces: Sequence[PlacementObservation],
        *,
        time: float,
    ) -> ModelVersion | None:
        """Extend the key's corpus with trace workloads and warm-refit.

        Returns the new shadow :class:`ModelVersion`, or None when the
        trace window contributes no workload the corpus lacks (retraining
        on identical data would produce an identical-in-expectation model
        and waste a shadow slot).
        """
        base = self.server.training_set(machine, vcpus)
        known = set(base.names)
        fresh: List = []
        for observation in reversed(list(traces)):  # newest first
            profile = observation.profile
            if profile.name in known:
                continue
            known.add(profile.name)
            fresh.append(profile)
            if len(fresh) >= self.config.max_new_workloads:
                break
        if not fresh:
            return None
        fresh.reverse()  # restore arrival order for reproducible matrices

        extended = extend_training_set(
            base, fresh, simulator=self.server.simulator(machine)
        )
        self.simulated_rows += len(extended) - len(base)
        incumbent = self.server.model(machine, vcpus)
        candidate_model = incumbent.warm_refit(
            extended,
            n_grow=self.config.n_grow,
            tree_budget=self.config.tree_budget,
        )
        # The extended corpus becomes the key's warm-start base even if
        # this candidate is later discarded: its rows are real measured
        # executions, and the next round should append to them rather than
        # re-simulate them.
        key = (machine.fingerprint(), int(vcpus))
        self.server.fitted.training_sets[key] = extended
        return self.server.add_candidate(
            machine,
            vcpus,
            candidate_model,
            time=time,
            n_training_rows=len(extended),
            n_new_workloads=len(fresh),
        )
