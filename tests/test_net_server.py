"""The asyncio frame server, in process: concurrency, replication, drain.

The headline property: N concurrent clients interleaving ingest and
query batches observe exactly the states a *serial* oracle produces
when it replays the acked batches in epoch order.  The server's lock
makes every ingest ack carry ``(epoch_before, epoch)``; those acks must
form one contiguous chain across all clients, and every wire answer
must equal the oracle's answer at the answering snapshot's epoch.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.cli import _service_structures
from repro.engine import ShardedPipeline, checkpoint as snapshot_structure
from repro.net import NetError, ReproClient, ServerThread, SocketFollower
from repro.service import QueryService, ServiceStats

N = 256
SEED = 7


def _factory(structure="count-sketch", n=N, seed=SEED):
    factories, _ = _service_structures(n, seed)
    return factories[structure]


def _service(structure="count-sketch", shards=2, keep=64,
             refresh_every=1, cache_size=32):
    pipeline = ShardedPipeline(_factory(structure), shards=shards,
                               chunk_size=64, backend="serial")
    return QueryService(pipeline, refresh_every=refresh_every,
                        keep=keep, cache_size=cache_size)


def _stream(seed, length=300):
    rng = np.random.default_rng(seed)
    return (rng.integers(0, N, size=length, dtype=np.int64),
            rng.integers(-3, 6, size=length, dtype=np.int64))


class TestConcurrentClients:

    CLIENTS = 4
    BATCHES = 5

    def _client_loop(self, host, port, seed, acks, answers, barrier):
        indices, deltas = _stream(seed)
        per_batch = len(indices) // self.BATCHES
        with ReproClient(host, port) as client:
            barrier.wait(timeout=30)
            for b in range(self.BATCHES):
                lo, hi = b * per_batch, (b + 1) * per_batch
                reply = client.ingest(indices[lo:hi], deltas[lo:hi])
                acks.append((reply.result["epoch_before"],
                             reply.result["epoch"],
                             indices[lo:hi], deltas[lo:hi]))
                # One pinned-epoch query (the ack we just got) and one
                # floating query (whatever snapshot is current).
                pinned = client.query("point", index=int(indices[lo]),
                                      at=reply.result["epoch"])
                answers.append(("point",
                                {"index": int(indices[lo])},
                                pinned.epoch, pinned.result))
                floating = client.query("top", count=4)
                answers.append(("top", {"count": 4},
                                floating.epoch, floating.result))

    def test_interleaved_ingest_query_matches_oracle(self):
        from repro.net.protocol import to_jsonable

        acks, answers = [], []
        barrier = threading.Barrier(self.CLIENTS)
        with _service() as svc, ServerThread(svc) as server:
            threads = [
                threading.Thread(
                    target=self._client_loop,
                    args=(server.host, server.port, 100 + i, acks,
                          answers, barrier))
                for i in range(self.CLIENTS)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            wire_final = None
            with ReproClient(server.host, server.port) as probe:
                wire_final = probe.checkpoint()

        # The acks form one contiguous chain: total order, no gaps.
        acks.sort(key=lambda ack: ack[0])
        assert acks[0][0] == 0
        for (_, prev_end, _, _), (start, _, _, _) in zip(acks,
                                                         acks[1:]):
            assert start == prev_end, "epoch chain has a gap"

        # Serial replay: same factory, same batches, ack order.
        by_epoch = {}
        with _service(shards=1) as oracle:
            router = oracle.router
            by_epoch[0] = oracle.refresh()
            for _, epoch, indices, deltas in acks:
                oracle.ingest(indices, deltas)
                oracle.pipeline.flush()
                assert oracle.pipeline.updates_ingested == epoch
                by_epoch[epoch] = oracle.refresh()
            # Every wire answer equals the oracle at the answering
            # snapshot's epoch.
            assert len(answers) == self.CLIENTS * self.BATCHES * 2
            for op, args, epoch, wire_result in answers:
                expected = router.query(by_epoch[epoch], op, **args)
                assert wire_result == to_jsonable(expected), \
                    f"{op}({args}) @ {epoch} diverged"
            oracle_bytes = snapshot_structure(oracle.pipeline.merged())

        restored = ShardedPipeline.restore(wire_final)
        assert snapshot_structure(restored.merged()) == oracle_bytes
        restored.close()


class TestControlOps:

    def test_ping_health_ready_operations(self):
        with _service() as svc, ServerThread(svc) as server, \
                ReproClient(server.host, server.port) as client:
            assert client.ping().result == "pong"
            health = client.health()
            assert health["status"] == "serving"
            assert health["structure"] == "CountSketch"
            assert health["epoch"] == 0
            assert health["shards"] == 2
            assert client.ready() is True
            ops = client.operations()
            assert set(ops) == set(svc.operations())

    def test_stats_op_is_a_consistent_copy(self):
        with _service() as svc, ServerThread(svc) as server, \
                ReproClient(server.host, server.port) as client:
            indices, deltas = _stream(1, length=64)
            client.ingest(indices, deltas)
            client.query("top", count=2)
            stats = client.stats()
            assert stats["ingest_calls"] == 1
            assert stats["ingest_updates"] == 64
            assert stats["queries"] >= 1
            assert isinstance(stats["per_op"], dict)
            # Mutating the wire answer cannot touch the live counters.
            stats["per_op"]["top"] = 10 ** 6
            assert svc.stats.per_op.get("top", 0) < 10 ** 6

    def test_query_errors_are_answered_not_fatal(self):
        with _service() as svc, ServerThread(svc) as server, \
                ReproClient(server.host, server.port) as client:
            with pytest.raises(NetError) as exc:
                client.query("no_such_op")
            assert "no_such_op" in str(exc.value)
            with pytest.raises(NetError) as exc:
                client.query("point", wrong_arg=1)
            assert exc.value.error == "TypeError"
            with pytest.raises(NetError) as exc:
                client.query("top", count=2, at=999)
            assert exc.value.error == "KeyError"
            # The connection survived all three errors.
            assert client.ping().result == "pong"

    def test_each_ingest_epoch_is_queryable(self):
        with _service(keep=8) as svc, ServerThread(svc) as server, \
                ReproClient(server.host, server.port) as client:
            indices, deltas = _stream(2, length=90)
            epochs = []
            for lo in range(0, 90, 30):
                reply = client.ingest(indices[lo:lo + 30],
                                      deltas[lo:lo + 30])
                epochs.append(reply.result["epoch"])
            for epoch in epochs:
                answer = client.query("top", count=2, at=epoch)
                assert answer.epoch == epoch


class TestServiceStatsSnapshot:

    def test_snapshot_is_independent(self):
        stats = ServiceStats()
        stats.record_query("point", 0.5, cached=False)
        frozen = stats.snapshot()
        stats.record_query("point", 0.5, cached=False)
        stats.per_op["top"] = 3
        assert frozen.queries == 1
        assert frozen.per_op == {"point": 1}

    def test_to_dict_round_trips_counters(self):
        import json
        stats = ServiceStats()
        stats.record_query("point", 0.25, cached=False)
        stats.record_query("point", 0.01, cached=True)
        stats.record_ingest(100, 0.5)
        doc = stats.to_dict()
        assert doc["queries"] == 2
        assert doc["hit_rate"] == 0.5
        assert doc["ingest_rate"] == 200.0
        assert doc["per_op"] == {"point": 2}
        json.dumps(doc)                      # JSON-able end to end


class TestReplication:

    def test_follower_ends_byte_identical_and_promotes(self):
        with _service() as svc, ServerThread(svc) as server, \
                ReproClient(server.host, server.port) as client:
            indices, deltas = _stream(3)
            client.ingest(indices[:100], deltas[:100])
            with SocketFollower(server.host, server.port) as follower:
                assert follower.base_epoch == 100
                client.ingest(indices[100:200], deltas[100:200])
                client.ingest(indices[200:], deltas[200:])
                follower.wait_for_epoch(300, timeout=30)
                assert follower.epoch == 300
                assert follower.acked_epochs == (100, 200, 300)
                wire = client.checkpoint()
                restored = ShardedPipeline.restore(wire)
                assert snapshot_structure(restored.merged()) \
                    == snapshot_structure(follower.merged())
                restored.close()
                promoted = follower.promote()
                try:
                    assert promoted.updates_ingested == 300
                    assert type(promoted.merged()).__name__ \
                        == "CountSketch"
                    promoted.ingest(indices[:10], deltas[:10])
                finally:
                    promoted.close()

    def test_health_counts_subscribers(self):
        with _service() as svc, ServerThread(svc) as server, \
                ReproClient(server.host, server.port) as client:
            assert client.health()["subscribers"] == 0
            with SocketFollower(server.host, server.port):
                indices, deltas = _stream(4, length=30)
                client.ingest(indices, deltas)
                assert client.health()["subscribers"] == 1

    def test_max_subscribers_limit(self):
        with _service() as svc, \
                ServerThread(svc, max_subscribers=1) as server:
            with SocketFollower(server.host, server.port):
                with pytest.raises(NetError) as exc:
                    SocketFollower(server.host, server.port)
                assert exc.value.error == "SubscriberLimit"


class TestErrorAccounting:

    def test_failed_requests_count_in_service_errors(self):
        with _service() as svc, ServerThread(svc) as server, \
                ReproClient(server.host, server.port) as client:
            assert svc.stats.errors == 0
            with pytest.raises(NetError):
                client.query("no_such_op")
            with pytest.raises(NetError):
                client.query("point", wrong_arg=1)
            assert svc.stats.errors == 2
            # ... and the error frame still names the failing op.
            with pytest.raises(NetError) as exc:
                client.query("no_such_op")
            assert exc.value.op == "no_such_op"


class TestIngestDedup:

    def test_replayed_rid_returns_the_original_ack(self):
        indices, deltas = _stream(6, length=64)
        with _service() as svc, ServerThread(svc) as server, \
                ReproClient(server.host, server.port) as client:
            first = client.request("ingest", {"rid": "peer:1"},
                                   sections=(indices, deltas))
            replay = client.request("ingest", {"rid": "peer:1"},
                                    sections=(indices, deltas))
            assert first.result["epoch"] == 64
            assert replay.result["epoch"] == 64
            assert replay.result["epoch_before"] \
                == first.result["epoch_before"]
            assert replay.result.get("deduped") is True
            assert "deduped" not in first.result
            # the batch was applied exactly once
            assert svc.pipeline.updates_ingested == 64

    def test_distinct_rids_are_not_deduped(self):
        indices, deltas = _stream(7, length=32)
        with _service() as svc, ServerThread(svc) as server, \
                ReproClient(server.host, server.port) as client:
            client.request("ingest", {"rid": "peer:1"},
                           sections=(indices, deltas))
            second = client.request("ingest", {"rid": "peer:2"},
                                    sections=(indices, deltas))
            assert second.result["epoch"] == 64
            assert "deduped" not in second.result

    def test_dedup_window_is_bounded(self):
        indices, deltas = _stream(8, length=16)
        with _service() as svc, \
                ServerThread(svc, dedup_window=2) as server, \
                ReproClient(server.host, server.port) as client:
            for k in range(3):
                client.request("ingest", {"rid": f"peer:{k}"},
                               sections=(indices, deltas))
            # peer:0 was evicted (window=2): its replay re-applies.
            replay = client.request("ingest", {"rid": "peer:0"},
                                    sections=(indices, deltas))
            assert "deduped" not in replay.result
            assert replay.result["epoch"] == 64

    def test_dedup_window_validation(self):
        from repro.net import ReproServer
        with _service() as svc:
            with pytest.raises(ValueError):
                ReproServer(svc, dedup_window=0)


class TestFollowerWaitDeadline:

    def test_wait_for_epoch_deadline_is_wall_clock(self):
        """The wait budget is a monotonic-clock deadline, not an
        iteration count: with an injected clock already past the
        deadline, an unreachable epoch times out after zero polls."""
        ticks = iter([0.0, 100.0, 200.0, 300.0])
        with _service() as svc, ServerThread(svc) as server:
            with SocketFollower(server.host, server.port,
                                clock=lambda: next(ticks)) as follower:
                with pytest.raises(TimeoutError) as exc:
                    follower.wait_for_epoch(10 ** 6, timeout=30)
                assert "stuck at epoch 0" in str(exc.value)

    def test_wait_for_epoch_still_returns_promptly_on_arrival(self):
        with _service() as svc, ServerThread(svc) as server, \
                ReproClient(server.host, server.port) as client:
            with SocketFollower(server.host, server.port) as follower:
                indices, deltas = _stream(9, length=40)
                client.ingest(indices, deltas)
                assert follower.wait_for_epoch(40, timeout=30) == 1
                assert follower.epoch == 40


class TestGracefulShutdown:

    def test_stop_drains_and_checkpoints(self, tmp_path):
        out = tmp_path / "final.rprowf"
        indices, deltas = _stream(5)
        with _service() as svc:
            with ServerThread(svc, checkpoint_out=out) as server:
                with ReproClient(server.host, server.port) as client:
                    client.ingest(indices, deltas)
                blob = server.stop()
            assert blob is not None
            assert out.read_bytes() == blob
            restored = ShardedPipeline.restore(blob)
            assert restored.updates_ingested == len(indices)
            leader = snapshot_structure(svc.pipeline.merged())
            assert snapshot_structure(restored.merged()) == leader
            restored.close()

    def test_constructor_validation(self):
        from repro.net import ReproServer
        with _service() as svc:
            with pytest.raises(ValueError):
                ReproServer(svc, queue_depth=0)
            with pytest.raises(ValueError):
                ReproServer(svc, drain_timeout=0)
            with pytest.raises(ValueError):
                ReproServer(svc, max_subscribers=0)
