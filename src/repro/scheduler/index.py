"""Incremental fleet indexes: sub-linear host selection at fleet scale.

Every placement decision used to scan the whole fleet — ``for host in
fleet.hosts`` per request — and every fleet aggregate (free nodes, used
threads, largest free block) was a full-fleet sum per query, which the
lifecycle engine pays after *every* event for its fragmentation timeline.
Both costs are linear in fleet size even though almost nothing changes
between events: one allocation touches one host.

:class:`FleetIndex` makes the mutation pay for the bookkeeping instead of
the queries.  It buckets hosts by ``(machine fingerprint, largest free
block)`` — for whole-node placements a host's largest grantable block *is*
its free-node count — and keeps O(1) running counters for the fleet
aggregates.  Each bucket is one id-ascending list, kept in order by
``bisect`` on every transition, so the lowest qualifying id is always a
bucket head and no query has to materialize its candidates.
:meth:`FleetHost.allocate <repro.scheduler.fleet.FleetHost.allocate>`
and :meth:`~repro.scheduler.fleet.FleetHost.release` notify the index on
every state change (the rebalancer's migrations go through the same two
methods, so they are covered for free), and the placement policies query
buckets instead of scanning:

* *lowest-id host that could fit an n-node block?* — the smallest head
  over a shape's buckets with free count >= n, O(#buckets)
  (:meth:`FleetIndex.lowest`, first-fit);
* *those hosts in id order?* — a lazy k-way merge of the qualifying
  bucket lists, paying only for the ids actually consumed
  (:meth:`FleetIndex.in_id_order`, goal-aware);
* *which distinct shapes exist?* — an O(#shapes) dict, not an O(#hosts)
  scan;
* *fleet free-node total / used threads / largest free block?* — counter
  reads, making the lifecycle fragmentation sample O(1) per event.

The index is an accelerator, not an oracle: policies constructed with
``indexed=False`` take the original linear-scan path,
:meth:`FleetIndex.candidates` is the brute-force reference query, and
``tests/scheduler/test_index.py`` asserts that every counter and query
matches a from-scratch recomputation under randomized churn and that
indexed and linear scans make bit-for-bit identical decisions.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Tuple

from repro.topology.machine import MachineTopology

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.core.placements import Placement
    from repro.scheduler.fleet import FleetHost


class FleetIndex:
    """Bucketed host index plus O(1) fleet aggregate counters.

    Maintained incrementally by the hosts it is registered with; queried
    by the placement policies and the lifecycle engine.  All mutation goes
    through :meth:`register`, :meth:`on_allocate`, and :meth:`on_release`.
    """

    def __init__(self) -> None:
        #: fingerprint -> machine, in first-registration (= host id) order.
        self._machines: Dict[Tuple, MachineTopology] = {}
        #: fingerprint -> free-node count -> host ids, strictly ascending
        #: (the buckets; an emptied bucket is deleted, never kept).
        self._buckets: Dict[Tuple, Dict[int, List[int]]] = {}
        #: host id -> current free-node count (the index's own view, so a
        #: resize never trusts the caller for the *old* bucket).
        self._free_of: Dict[int, int] = {}
        #: free-node count -> number of hosts, across all shapes.
        self._size_count: Dict[int, int] = {}
        self._max_free = 0
        #: Attached available-space tracker (``scheduler/capacity.py``),
        #: notified of every registration and free-count transition so
        #: admission-mode capacity vectors ride the same hooks as the
        #: counters.  Duck-typed to avoid an import cycle.
        self._capacity = None

        # O(1) aggregate counters.
        self.free_nodes_total = 0
        self.total_nodes = 0
        self.used_threads = 0
        self.total_threads = 0
        #: Cumulative capacity rejections (after any rebalance retry),
        #: recorded by the lifecycle engine via :meth:`record_fit_failure`.
        self.fit_failures = 0

    # ------------------------------------------------------------------
    # Mutation (driven by FleetHost bookkeeping)
    # ------------------------------------------------------------------

    def register(self, host: "FleetHost") -> None:
        """Add a host with its *current* state to the index."""
        if host.host_id in self._free_of:
            raise ValueError(f"host {host.host_id} is already indexed")
        machine = host.machine
        fingerprint = machine.fingerprint()
        self._machines.setdefault(fingerprint, machine)
        free = host.n_free_nodes
        insort(
            self._buckets.setdefault(fingerprint, {}).setdefault(free, []),
            host.host_id,
        )
        self._free_of[host.host_id] = free
        self._size_count[free] = self._size_count.get(free, 0) + 1
        self._max_free = max(self._max_free, free)
        self.free_nodes_total += free
        self.total_nodes += machine.n_nodes
        self.used_threads += host.used_threads
        self.total_threads += machine.total_threads
        if self._capacity is not None:
            self._capacity.on_register(host)

    def attach_capacity(self, tracker) -> None:
        """Forward free-count transitions to an available-space tracker."""
        self._capacity = tracker

    def on_allocate(self, host: "FleetHost", placement: "Placement") -> None:
        """A host claimed a placement's nodes (called after the mutation)."""
        self._resize(host)
        self.used_threads += placement.vcpus

    def on_release(self, host: "FleetHost", placement: "Placement") -> None:
        """A host freed a placement's nodes (called after the mutation)."""
        self._resize(host)
        self.used_threads -= placement.vcpus

    def record_fit_failure(self) -> None:
        self.fit_failures += 1

    def _resize(self, host: "FleetHost") -> None:
        """Move a host to the bucket matching its current free count."""
        host_id = host.host_id
        old = self._free_of[host_id]
        new = host.n_free_nodes
        if new == old:
            return
        fingerprint = host.machine.fingerprint()
        buckets = self._buckets[fingerprint]
        bucket = buckets[old]
        del bucket[bisect_left(bucket, host_id)]
        if not bucket:
            del buckets[old]
        insort(buckets.setdefault(new, []), host_id)
        self._free_of[host_id] = new
        self.free_nodes_total += new - old

        count = self._size_count[old] - 1
        if count:
            self._size_count[old] = count
        else:
            del self._size_count[old]
        self._size_count[new] = self._size_count.get(new, 0) + 1
        if new > self._max_free:
            self._max_free = new
        elif old == self._max_free and old not in self._size_count:
            while self._max_free > 0 and self._max_free not in self._size_count:
                self._max_free -= 1
        if self._capacity is not None:
            self._capacity.on_resize(host.machine, old, new)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def largest_free_block(self) -> int:
        """Largest node block any indexed host can still grant (0 when no
        hosts are indexed)."""
        return self._max_free

    def machines(self) -> Iterable[Tuple[Tuple, MachineTopology]]:
        """(fingerprint, machine) per distinct shape, first-seen order —
        the same order ``Fleet.shapes`` derives from a full host scan."""
        return self._machines.items()

    def shapes(self) -> List[MachineTopology]:
        return list(self._machines.values())

    def buckets(self, fingerprint: Tuple) -> Dict[int, List[int]]:
        """free-node count -> id-ascending host ids for one shape.  Live
        views: treat as read-only."""
        return self._buckets.get(fingerprint, {})

    def lowest(self, fingerprint: Tuple, min_free: int) -> int | None:
        """Smallest host id of one shape with at least ``min_free`` free
        nodes, or None — the min over qualifying bucket heads, so the cost
        is O(#buckets) however many hosts qualify."""
        return min(
            (
                ids[0]
                for size, ids in self._buckets.get(fingerprint, {}).items()
                if size >= min_free
            ),
            default=None,
        )

    def in_id_order(
        self, wanted: Iterable[Tuple[Tuple, int]]
    ) -> Iterator[int]:
        """Ascending host ids that satisfy any ``(fingerprint, min_free)``
        pair of ``wanted``, each id once.

        A lazy ``heapq.merge`` over the qualifying bucket lists: setup is
        O(#buckets) and each id consumed costs O(log #buckets), so a search
        that accepts one of its first hosts never touches the rest.  The
        merge reads the live buckets, so the fleet must not be mutated
        while the iterator is in use — stop iterating before (or right
        after) allocating.
        """
        floors: Dict[Tuple, int] = {}
        for fingerprint, min_free in wanted:
            floors[fingerprint] = min(
                min_free, floors.get(fingerprint, min_free)
            )
        return heapq.merge(
            *(
                ids
                for fingerprint, min_free in floors.items()
                for size, ids in self._buckets.get(fingerprint, {}).items()
                if size >= min_free
            )
        )

    def candidates(self, fingerprint: Tuple, min_free: int) -> List[int]:
        """The reference query: every host id of one shape with at least
        ``min_free`` free nodes, materialized.  The policies' hot paths use
        :meth:`lowest` and :meth:`in_id_order` instead; tests compare both
        against this."""
        found: List[int] = []
        for size, ids in self._buckets.get(fingerprint, {}).items():
            if size >= min_free:
                found.extend(ids)
        return found

    # ------------------------------------------------------------------
    # Debugging / test support
    # ------------------------------------------------------------------

    def assert_consistent(self, hosts: Iterable["FleetHost"]) -> None:
        """Cross-check every counter and bucket against a from-scratch
        recomputation; raises AssertionError on any drift.  Used by the
        randomized replay tests and the benchmark smoke job."""
        hosts = list(hosts)
        free_total = sum(h.n_free_nodes for h in hosts)
        assert self.free_nodes_total == free_total, (
            f"free_nodes_total {self.free_nodes_total} != {free_total}"
        )
        used = sum(h.used_threads for h in hosts)
        assert self.used_threads == used, (
            f"used_threads {self.used_threads} != {used}"
        )
        largest = max((h.largest_free_block for h in hosts), default=0)
        assert self._max_free == largest, (
            f"largest_free_block {self._max_free} != {largest}"
        )
        assert self.total_nodes == sum(h.machine.n_nodes for h in hosts)
        assert self.total_threads == sum(
            h.machine.total_threads for h in hosts
        )
        for fingerprint, buckets in self._buckets.items():
            for size, ids in buckets.items():
                assert ids, f"empty bucket ({size}) kept for a shape"
                assert all(a < b for a, b in zip(ids, ids[1:])), (
                    f"bucket ({size}) is not strictly ascending: first-fit "
                    "would no longer match the linear scan"
                )
        for host in hosts:
            fingerprint = host.machine.fingerprint()
            assert self._free_of.get(host.host_id) == host.n_free_nodes
            bucket = self._buckets.get(fingerprint, {}).get(
                host.n_free_nodes, []
            )
            at = bisect_left(bucket, host.host_id)
            assert at < len(bucket) and bucket[at] == host.host_id, (
                f"host {host.host_id} not in its ({host.n_free_nodes}) bucket"
            )
        indexed = sorted(
            host_id
            for buckets in self._buckets.values()
            for ids in buckets.values()
            for host_id in ids
        )
        assert indexed == sorted(h.host_id for h in hosts), (
            "index tracks a different host set than the fleet"
        )
        sizes: Dict[int, int] = {}
        for host in hosts:
            sizes[host.n_free_nodes] = sizes.get(host.n_free_nodes, 0) + 1
        assert self._size_count == sizes, (
            f"size counts {self._size_count} != {sizes}"
        )
        if self._capacity is not None:
            self._capacity.assert_consistent(hosts)
