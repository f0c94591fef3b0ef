"""Shard dispatch: split protocol, deadlines, and overlapped round trips.

The contracts under test:

* **Split protocol** — ``send()``/``recv()`` pair FIFO on both
  transports, ``request_many`` pipelines (process) or loops (inline)
  with identical results, and a ``recv()`` without a pending ``send()``
  is a programming error.
* **Deadline semantics** — the reply deadline is stamped at ``send()``;
  ``recv()`` polls with the *remaining* budget, so time the front-end
  spends elsewhere between send and recv is charged against the same
  deadline instead of resetting it.
* **Overlap** — the service fires every shard's message before
  gathering, so several sends are in flight at once and, on the process
  transport, the summed shard service time exceeds the wall clock.
  Decision equivalence with the former sequential baseline is pinned by
  the golden digests in ``test_dispatch_golden.py``.
"""

import os
import signal
import time

import pytest

from repro.scheduler import (
    InlineShardClient,
    ProcessShardClient,
    ScheduleConfig,
    SchedulerService,
    ShardError,
    ShardTimeoutError,
)
from tests.scheduler.test_service import CHURN_REFERENCE


def _client_config(**overrides):
    values = dict(machine="amd", hosts=4, requests=8, shards=2, window=2)
    values.update(overrides)
    return ScheduleConfig(**values)


def _serve(config):
    with SchedulerService(config) as service:
        report = service.serve()
        return report, service.stats


class TestInlineSplitProtocol:
    def _client(self):
        config = _client_config()
        return InlineShardClient(
            0, config, machines=config.machine_list()[::2]
        )

    def test_send_recv_pair_fifo(self):
        client = self._client()
        client.send({"op": "summary"})
        client.send({"op": "report"})
        first = client.recv()
        second = client.recv()
        assert "summary" in first
        assert "report" in second

    def test_recv_without_send_is_an_error(self):
        client = self._client()
        with pytest.raises(ShardError, match="without a pending send"):
            client.recv()

    def test_request_many_invokes_callback_in_order(self):
        client = self._client()
        seen = []
        responses = client.request_many(
            [{"op": "summary"}, {"op": "summary"}],
            on_response=seen.append,
        )
        assert responses == seen
        assert len(responses) == 2

    def test_gather_surface(self):
        client = self._client()
        assert client.reply_ready() is False
        assert client.gather_connection() is None
        client.send({"op": "summary"})
        assert client.reply_ready() is True
        client.recv()
        assert client.reply_ready() is False


class TestProcessSplitProtocol:
    def test_split_matches_request(self):
        config = _client_config(workers="process")
        client = ProcessShardClient(0, config, timeout_s=30.0)
        try:
            via_request = client.request({"op": "summary"})
            client.send({"op": "summary"})
            via_split = client.recv()
            assert via_split == via_request
        finally:
            client.close()

    def test_request_many_pipelines(self):
        config = _client_config(workers="process")
        client = ProcessShardClient(0, config, timeout_s=30.0)
        try:
            seen = []
            responses = client.request_many(
                [{"op": "summary"}] * 4, on_response=seen.append
            )
            assert responses == seen
            assert len(responses) == 4
        finally:
            client.close()

    def test_recv_charges_the_remaining_deadline(self):
        """The deadline is stamped at send(): a stalled worker times out
        after the *remaining* budget, not a fresh full timeout per
        recv() call."""
        config = _client_config(workers="process")
        client = ProcessShardClient(0, config, timeout_s=30.0)
        try:
            client.request({"op": "summary"})  # worker fully up
            os.kill(client._process.pid, signal.SIGSTOP)
            try:
                budget = 0.6
                client.send({"op": "summary"}, timeout_s=budget)
                time.sleep(budget / 2)
                start = time.monotonic()
                with pytest.raises(ShardTimeoutError):
                    client.recv()
                waited = time.monotonic() - start
                # Remaining budget is ~0.3s; a fixed full-timeout poll
                # would have waited the whole 0.6s again.
                assert waited < budget
            finally:
                os.kill(client._process.pid, signal.SIGCONT)
        finally:
            client.close()

    def test_explicit_recv_timeout_overrides_deadline(self):
        config = _client_config(workers="process")
        client = ProcessShardClient(0, config, timeout_s=30.0)
        try:
            client.request({"op": "summary"})
            os.kill(client._process.pid, signal.SIGSTOP)
            try:
                client.send({"op": "summary"}, timeout_s=30.0)
                start = time.monotonic()
                with pytest.raises(ShardTimeoutError):
                    client.recv(timeout_s=0.2)
                assert time.monotonic() - start < 5.0
            finally:
                os.kill(client._process.pid, signal.SIGCONT)
        finally:
            client.close()


class TestOverlapEquivalence:
    """The one dispatch path overlaps every shard's round trip.  Its
    decisions equal those of the former sequential baseline: pinned by
    the golden digests in ``test_dispatch_golden.py``."""

    def test_overlap_records_split_timing(self):
        config = dict(CHURN_REFERENCE, shards=2, window=4)
        _, stats = _serve(ScheduleConfig(**config))
        assert stats.window_wall_seconds > 0.0
        assert stats.shard_service_seconds > 0.0

    def test_supervisor_tracks_multiple_in_flight_sends(self):
        config = ScheduleConfig(**dict(CHURN_REFERENCE, shards=2, window=4))
        with SchedulerService(config) as service:
            service.serve()
            assert service.supervisor.max_in_flight >= 2
            assert service.supervisor.in_flight() == {}

    def test_process_round_trips_overlap(self):
        """On the process transport the shards' round trips of one
        routing round run concurrently: their summed service time
        exceeds the window wall clock."""
        config = ScheduleConfig(
            machine="amd",
            hosts=64,
            requests=60,
            seed=11,
            churn=True,
            policy="first-fit",
            arrival_rate=10.0,
            mean_lifetime=30.0,
            heavy_tail=True,
            vcpus=(8, 8, 16, 32),
            shards=2,
            window=8,
            workers="process",
        )
        _, stats = _serve(config)
        assert stats.shard_service_seconds > stats.window_wall_seconds
