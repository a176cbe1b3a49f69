"""Chaos properties: injected faults, healed runs, byte-identical state.

Every test drives a seeded :class:`FaultPlan` against the supervised
runtime and pins the headline invariant of the fault layer: a healed
run converges to *byte-identical* merged state against a crash-free
oracle (or, over the wire, against a serial replay of exactly the
acked batches — each applied once, in epoch order).  The schedules are
deterministic, so every failure here replays exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (RestartPolicy, ShardedPipeline, checkpoint,
                          checkpoint as snapshot_structure)
from repro.faults import (ACK_DELAY, DELTA_TRUNCATE, SOCKET_DROP,
                          WORKER_CRASH, FaultPlan)
from repro.net import (NetError, ReproClient, RetryPolicy, ServerThread,
                       SocketFollower)
from repro.service import QueryService

from _engine_cases import (SHARDABLE, SHARDABLE_IDS, EngineCase,
                           random_turnstile)

UNIVERSE = 128
POLICY = RestartPolicy(backoff_s=0.001)


def _pipeline(case: EngineCase, backend: str, *, faults=None,
              restarts=None, shards=2, chunk=32,
              seed=5) -> ShardedPipeline:
    extra = {}
    if faults is not None:
        extra["faults"] = faults
    if restarts is not None:
        extra["restarts"] = restarts
    return ShardedPipeline(lambda: case.factory(UNIVERSE, seed),
                           shards=shards, chunk_size=chunk,
                           backend=backend, **extra)


def _batches(count=4, length=32, seed=11):
    indices, deltas = random_turnstile(UNIVERSE, count * length, seed)
    return [(indices[k * length:(k + 1) * length],
             deltas[k * length:(k + 1) * length]) for k in range(count)]


def _merged_bytes(pipe) -> bytes:
    pipe.flush()
    return checkpoint(pipe.merged())


def _oracle_bytes(case: EngineCase, batches, **kwargs) -> bytes:
    with _pipeline(case, "serial", **kwargs) as oracle:
        for indices, deltas in batches:
            oracle.ingest(indices, deltas)
        return _merged_bytes(oracle)


# ---------------------------------------------------------------------------
# Worker crashes, both backends, every shardable registered type


@pytest.mark.parametrize("backend", ["serial", "process"])
@pytest.mark.parametrize("case", SHARDABLE, ids=SHARDABLE_IDS)
class TestCrashConvergence:
    def test_healed_run_is_byte_identical_to_crash_free(
            self, case, backend):
        """Two mid-stream crashes, healed from checkpoint + replay:
        the merged state converges to the crash-free bytes (replay is
        bit-exact, so this holds even for float-state structures)."""
        batches = _batches()
        want = _oracle_bytes(case, batches)

        plan = FaultPlan(seed=5, at={WORKER_CRASH: (2, 7)})
        with _pipeline(case, backend, faults=plan,
                       restarts=POLICY) as pipe:
            for indices, deltas in batches:
                pipe.ingest(indices, deltas)
            # flush first: crash detection is lazy for process pools
            # (the poison pill surfaces on the next queue round-trip)
            assert _merged_bytes(pipe) == want
            assert pipe.worker_restarts == 2
            assert pipe.healthy
        assert plan.schedule() == ((WORKER_CRASH, 2), (WORKER_CRASH, 7))


# ---------------------------------------------------------------------------
# Schedule replay: one seed, two runs, identical everything


class TestScheduleReplay:
    CASE = SHARDABLE[0]

    def _run(self, seed):
        plan = FaultPlan(seed=seed, rates={WORKER_CRASH: 0.25})
        policy = RestartPolicy(max_restarts=64, backoff_s=0.0005)
        with _pipeline(self.CASE, "serial", faults=plan,
                       restarts=policy) as pipe:
            for indices, deltas in _batches(count=6):
                pipe.ingest(indices, deltas)
            return (plan.schedule(), pipe.worker_restarts,
                    _merged_bytes(pipe))

    def test_same_seed_replays_identically(self):
        first_schedule, first_restarts, first_bytes = self._run(19)
        again_schedule, again_restarts, again_bytes = self._run(19)
        assert first_schedule == again_schedule
        assert first_restarts == again_restarts
        assert first_bytes == again_bytes
        assert first_restarts >= 1          # the rate actually fired
        # ... and the healed state still matches the crash-free oracle.
        assert first_bytes == _oracle_bytes(self.CASE,
                                            _batches(count=6))


# ---------------------------------------------------------------------------
# Socket chaos: drops, delayed acks, truncated deltas


def _service(shards=2):
    case = SHARDABLE[0]
    return QueryService(_pipeline(case, "serial", shards=shards),
                        refresh_every=1)


def _fast_retry(**overrides) -> RetryPolicy:
    kwargs = dict(attempts=5, base_s=0.01, max_s=0.05, deadline_s=30.0,
                  seed=2)
    kwargs.update(overrides)
    return RetryPolicy(**kwargs)


class TestSocketChaos:
    def test_dropped_sends_with_retry_match_acked_replay(self):
        """Client-side connection drops mid-send: the retrying client
        re-submits, the epoch chain stays gapless and the daemon state
        equals a serial replay of exactly the acked batches."""
        batches = _batches(count=6, length=48)
        plan = FaultPlan(seed=5, at={SOCKET_DROP: (2, 5)})
        acks = []
        with _service() as svc, ServerThread(svc) as server:
            with ReproClient(server.host, server.port, timeout=5.0,
                             retry=_fast_retry(),
                             faults=plan) as client:
                for indices, deltas in batches:
                    reply = client.ingest(indices, deltas)
                    acks.append((reply.result["epoch_before"],
                                 reply.result["epoch"]))
                wire = client.checkpoint()
            assert len(plan.schedule()) == 2

        # Gapless ack chain covering every batch exactly once.
        assert acks[0][0] == 0
        for (_, prev_end), (start, _) in zip(acks, acks[1:]):
            assert start == prev_end
        assert acks[-1][1] == sum(len(i) for i, _ in batches)

        want = _oracle_bytes(SHARDABLE[0], batches)
        with ShardedPipeline.restore(wire) as restored:
            assert _merged_bytes(restored) == want

    def test_delayed_ack_dedup_applies_each_batch_once(self):
        """A delayed ack times the client out; the retry replays the
        same rid and the server answers from its dedup window instead
        of double-applying the batch."""
        batches = _batches(count=4, length=48)
        server_plan = FaultPlan(seed=5, at={ACK_DELAY: (2,)},
                                ack_delay_s=0.6)
        acks = []
        with _service() as svc, \
                ServerThread(svc, faults=server_plan) as server:
            with ReproClient(server.host, server.port, timeout=0.2,
                             retry=_fast_retry()) as client:
                for indices, deltas in batches:
                    reply = client.ingest(indices, deltas)
                    acks.append((reply.result["epoch_before"],
                                 reply.result["epoch"],
                                 reply.result.get("deduped", False)))
                wire = client.checkpoint()

        assert any(deduped for _, _, deduped in acks)
        assert acks[0][0] == 0
        for (_, prev_end, _), (start, _, _) in zip(acks, acks[1:]):
            assert start == prev_end
        assert acks[-1][1] == sum(len(i) for i, _ in batches)

        want = _oracle_bytes(SHARDABLE[0], batches)
        with ShardedPipeline.restore(wire) as restored:
            assert _merged_bytes(restored) == want

    def test_truncated_delta_resyncs_the_follower(self):
        """A truncated replication frame kills that subscription; the
        follower resyncs from a fresh base and still converges to the
        leader's exact bytes."""
        batches = _batches(count=3, length=48)
        server_plan = FaultPlan(seed=5, at={DELTA_TRUNCATE: (2,)})
        total = sum(len(i) for i, _ in batches)
        with _service() as svc, \
                ServerThread(svc, faults=server_plan) as server:
            with ReproClient(server.host, server.port) as client, \
                    SocketFollower(server.host, server.port) as follower:
                for indices, deltas in batches:
                    client.ingest(indices, deltas)
                follower.wait_for_epoch(total, timeout=30)
                assert follower.resyncs == 1
                assert follower.epoch == total
                svc.pipeline.flush()
                assert snapshot_structure(follower.merged()) \
                    == snapshot_structure(svc.pipeline.merged())

    def test_resync_disabled_surfaces_the_failure(self):
        batches = _batches(count=3, length=48)
        server_plan = FaultPlan(seed=5, at={DELTA_TRUNCATE: (2,)})
        with _service() as svc, \
                ServerThread(svc, faults=server_plan) as server:
            with ReproClient(server.host, server.port) as client, \
                    SocketFollower(server.host, server.port,
                                   resync=False) as follower:
                for indices, deltas in batches:
                    client.ingest(indices, deltas)
                with pytest.raises((ConnectionError, TimeoutError)):
                    follower.wait_for_epoch(
                        sum(len(i) for i, _ in batches), timeout=2)
                assert follower.resyncs == 0


# ---------------------------------------------------------------------------
# Degraded serving over the wire


class TestDegradedServing:
    def test_degraded_service_answers_and_reports(self):
        """A poisoned pipeline (no supervision, no auto-recovery)
        degrades the daemon: health says so, ingest answers the typed
        retryable error, queries still serve from the last good
        snapshot."""
        case = SHARDABLE[0]
        batches = _batches(count=2, length=48)
        # each 48-update batch is 2 chunks x 2 shards = 4 crash-site
        # visits; visit 6 lands in the second batch
        plan = FaultPlan(seed=5, at={WORKER_CRASH: (6,)})
        pipeline = _pipeline(case, "serial", faults=plan)
        service = QueryService(pipeline, refresh_every=1,
                               auto_recover=False)
        with service as svc, ServerThread(svc) as server:
            with ReproClient(server.host, server.port,
                             retry=_fast_retry(attempts=1)) as client:
                client.ingest(*batches[0])
                with pytest.raises(NetError) as exc:
                    client.ingest(*batches[1])
                assert exc.value.error == "ServiceDegraded"
                health = client.health()
                assert health["status"] == "degraded"
                assert "WorkerCrashed" in health["reason"]
                assert client.ready() is False
                # Queries still answer, pinned to the last good epoch.
                answer = client.query("top", count=2)
                assert answer.epoch == len(batches[0][0])
                assert svc.stats.degraded_queries >= 1

    def test_auto_recovering_daemon_flips_back_to_serving(self):
        """With auto-recovery on (the default), the same crash heals
        inside the ingest call: every batch acks, the daemon stays
        'serving' and the final bytes match the crash-free oracle."""
        case = SHARDABLE[0]
        batches = _batches(count=4, length=48)
        plan = FaultPlan(seed=5, at={WORKER_CRASH: (6,)})
        pipeline = _pipeline(case, "serial", faults=plan)
        with QueryService(pipeline, refresh_every=1) as svc, \
                ServerThread(svc) as server:
            with ReproClient(server.host, server.port,
                             retry=_fast_retry()) as client:
                for indices, deltas in batches:
                    client.ingest(indices, deltas)
                assert client.health()["status"] == "serving"
                wire = client.checkpoint()
            assert svc.stats.recoveries == 1

        want = _oracle_bytes(case, batches)
        with ShardedPipeline.restore(wire) as restored:
            assert _merged_bytes(restored) == want
