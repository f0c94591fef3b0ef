"""Shard supervision: health states, write-ahead journal, seeded backoff.

The :class:`~repro.scheduler.service.SchedulerService` owns the shard
clients; this module owns the bookkeeping that decides when a shard is
trusted, retried, or rebuilt:

* **Health states** per shard — ``up`` (serving), ``suspect`` (timed out,
  being retried with backoff), ``down`` (crashed or retries exhausted;
  excluded from routing), ``recovering`` (respawned worker replaying its
  journal).  A ``down`` shard's client has been killed; it must be
  respawned before reuse.
* **Write-ahead journal** per shard — every state-mutating message
  (``arrive`` / ``depart`` / ``decide``) is stamped, *before* the send,
  with a monotonic sequence number that is embedded in the wire message
  itself.  Replay after a respawn re-sends the journal in order and
  rebuilds the shard's exact pre-crash state; the worker dedups on the
  sequence number, so a message applied before the crash is never
  applied twice and no placement is lost or duplicated.
* **Seeded exponential backoff** — retry sleeps are
  ``base * 2^(attempt-1)`` with jitter drawn from ``random.Random(seed)``,
  so a fault-injection run's timing profile is reproducible.

Supervision is always on, and nothing new crosses the pipe except the
``seq`` key.  The journal *keeps* its entries (the message dicts the
wire already uses) only when the shard is replayable: a process worker
can die for real, and a fault plan can kill any worker.  An inline
worker without a fault plan cannot crash — ``kill()`` is only ever
called by recovery — so its journal would never be replayed; keeping it
would hold every request dict of the whole serve alive for the garbage
collector to rescan, for nothing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List

from repro.scheduler.shard import ShardError

#: Shard health states.
HEALTH_UP = "up"
HEALTH_SUSPECT = "suspect"
HEALTH_DOWN = "down"
HEALTH_RECOVERING = "recovering"
HEALTH_STATES = (HEALTH_UP, HEALTH_SUSPECT, HEALTH_DOWN, HEALTH_RECOVERING)

#: Ops that mutate shard state and therefore must be journaled; reads
#: ("summary" / "report") and the stop handshake are replay-free.
MUTATING_OPS = frozenset({"arrive", "depart", "decide"})


class ShardDownError(ShardError):
    """The shard is (or just went) DOWN and recovery is deferred: the
    caller must fail the work over to a surviving shard.  The journal
    entry of the failed message has been rolled back — nothing was
    applied, so the eventual replay will not resurrect it."""


@dataclass(frozen=True)
class JournalEntry:
    """One journaled wire message; ``message`` already carries ``seq``."""

    seq: int
    message: Dict


class ShardJournal:
    """Write-ahead journal of one shard's state-mutating messages.

    ``append`` assigns the next sequence number and embeds it in the
    returned message, so the journaled form *is* the wire form — replay
    re-sends entries verbatim.  Sequence numbers are monotonic and never
    reused, even across ``rollback``; gaps are harmless (the worker
    dedups on ``seq <= applied``), reuse would not be.  With
    ``keep=False`` entries are stamped but not stored, and the journal
    refuses to replay once it has stamped anything.
    """

    def __init__(self, keep: bool = True) -> None:
        self.keep = keep
        self.entries: List[JournalEntry] = []
        self.next_seq = 0

    def append(self, message: Dict) -> JournalEntry:
        entry = JournalEntry(
            seq=self.next_seq, message={**message, "seq": self.next_seq}
        )
        self.next_seq += 1
        if self.keep:
            self.entries.append(entry)
        return entry

    def rollback(self, entry: JournalEntry) -> None:
        """Remove a never-applied entry whose send terminally failed and
        whose work was re-routed.  Only the most recent entry of a shard
        can ever need rolling back (one message per shard is in flight
        at a time)."""
        if not self.keep:
            return
        if not self.entries or self.entries[-1].seq != entry.seq:
            raise ValueError(
                f"can only roll back the newest journal entry, not seq "
                f"{entry.seq}"
            )
        self.entries.pop()

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[JournalEntry]:
        if not self.keep and self.next_seq:
            raise RuntimeError(
                "journal entries were not kept: this shard cannot be "
                "replayed"
            )
        return iter(self.entries)


class ShardSupervisor:
    """Front-end-side supervision state for every shard.

    Parameters
    ----------
    n_shards:
        Number of shards supervised.
    retries:
        Bounded timeout retries per message before the shard is marked
        DOWN.
    backoff_base_s:
        Base of the exponential backoff sleep between retries.
    recovery_rounds:
        0 — recover a dead shard *immediately* (respawn + full journal
        replay inside the failed send; the caller never sees the fault).
        k > 0 — defer recovery for k routing rounds: the shard stays
        DOWN, arrivals fail over to survivors (degraded windows), and
        the respawn+replay happens k rounds later.
    seed:
        Seeds the backoff jitter stream.
    replayable:
        Whether the shards can die and be replayed, i.e. whether the
        journals keep their entries (see the module docstring).
    """

    def __init__(
        self,
        n_shards: int,
        *,
        retries: int = 2,
        backoff_base_s: float = 0.05,
        recovery_rounds: int = 0,
        seed: int = 0,
        replayable: bool = True,
    ) -> None:
        self.n_shards = n_shards
        self.retries = retries
        self.backoff_base_s = backoff_base_s
        self.recovery_rounds = recovery_rounds
        self.health: List[str] = [HEALTH_UP] * n_shards
        self.journals: List[ShardJournal] = [
            ShardJournal(keep=replayable) for _ in range(n_shards)
        ]
        self._rng = random.Random(seed)
        self._down_round: Dict[int, int] = {}
        #: shard -> monotonic reply deadline (or None) of its in-flight
        #: send: one entry per shard fired and not yet gathered.
        self._in_flight: Dict[int, float | None] = {}
        #: High-water mark of concurrently in-flight sends.
        self.max_in_flight = 0

    # -- journal -------------------------------------------------------

    def journal(self, shard: int, message: Dict) -> JournalEntry:
        return self.journals[shard].append(message)

    def rollback(self, shard: int, entry: JournalEntry) -> None:
        self.journals[shard].rollback(entry)

    # -- in-flight sends -----------------------------------------------

    def track_send(self, shard: int, deadline: float | None) -> None:
        """Account one fired send: the shard's reply is now owed by
        ``deadline`` (monotonic; None means no deadline).  A dispatch
        tracks every shard of a round at once."""
        self._in_flight[shard] = deadline
        self.max_in_flight = max(self.max_in_flight, len(self._in_flight))

    def settle_send(self, shard: int) -> None:
        """The shard's in-flight send resolved (reply, timeout, or
        crash): it no longer owes a reply."""
        self._in_flight.pop(shard, None)

    def in_flight(self) -> Dict[int, float | None]:
        """Shard -> reply deadline for every unresolved send."""
        return dict(self._in_flight)

    # -- health --------------------------------------------------------

    def mark_suspect(self, shard: int) -> None:
        if self.health[shard] == HEALTH_UP:
            self.health[shard] = HEALTH_SUSPECT

    def mark_down(self, shard: int, round_index: int) -> None:
        self.health[shard] = HEALTH_DOWN
        self._down_round[shard] = round_index

    def mark_recovering(self, shard: int) -> None:
        self.health[shard] = HEALTH_RECOVERING

    def mark_up(self, shard: int) -> None:
        self.health[shard] = HEALTH_UP
        self._down_round.pop(shard, None)

    def down_shards(self) -> FrozenSet[int]:
        return frozenset(
            shard
            for shard in range(self.n_shards)
            if self.health[shard] == HEALTH_DOWN
        )

    def due_for_recovery(self, shard: int, current_round: int) -> bool:
        if self.health[shard] != HEALTH_DOWN:
            return False
        down_round = self._down_round.get(shard, current_round)
        return current_round - down_round >= self.recovery_rounds

    # -- backoff -------------------------------------------------------

    def backoff_seconds(self, attempt: int) -> float:
        """Exponential backoff with seeded jitter: attempt 1 sleeps about
        ``base``, attempt 2 about ``2*base``, ... (jitter in [0.5, 1.5))."""
        return (
            self.backoff_base_s
            * (2 ** (attempt - 1))
            * (0.5 + self._rng.random())
        )


__all__ = [
    "HEALTH_DOWN",
    "HEALTH_RECOVERING",
    "HEALTH_STATES",
    "HEALTH_SUSPECT",
    "HEALTH_UP",
    "JournalEntry",
    "MUTATING_OPS",
    "ShardDownError",
    "ShardJournal",
    "ShardSupervisor",
]
