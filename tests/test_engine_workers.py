"""The execution-backend layer: process workers vs the serial reference.

The load-bearing property: for every shardable registered type, a
``backend="process"`` pipeline produces *byte-identical* merged state
to the ``backend="serial"`` pipeline (same routing, same chunk
boundaries, bit-exact checkpoint transport — even float state sees the
identical operation sequence), which in turn equals the
single-instance run exactly for integer-state structures.  Plus the
lifecycle contract: checkpoints interoperate across backends, close()
is graceful and idempotent, and a dead worker raises
:class:`WorkerCrashed` instead of hanging.
"""

import numpy as np
import pytest

from repro.core import L0Sampler
from repro.engine import (IncompatibleShards, ProcessPool, RestartPolicy,
                          SerialPool, ShardedPipeline, Supervisor,
                          WorkerCrashed, checkpoint, state_arrays)
from repro.engine import workers as workers_module
from repro.sketch import CountSketch

from _engine_cases import (SHARDABLE, SHARDABLE_IDS, EngineCase,
                           random_turnstile, states_equal)


def _pipeline(case: EngineCase, backend: str, universe=128, shards=3,
              chunk=32, seed=5, partition="hash") -> ShardedPipeline:
    return ShardedPipeline(lambda: case.factory(universe, seed),
                           shards=shards, partition=partition,
                           chunk_size=chunk, backend=backend)


@pytest.mark.parametrize("case", SHARDABLE, ids=SHARDABLE_IDS)
class TestProcessMatchesSerial:
    def test_merged_state_identical_across_backends(self, case):
        """process == serial == single instance, for every shardable
        registered type (byte-identical between backends; exactness vs
        the single run per the registry's own claim)."""
        universe, chunk = 128, 32
        indices, deltas = random_turnstile(universe, 4 * chunk, 11)

        single = case.factory(universe, 5)
        single.update_many(indices, deltas)

        serial = _pipeline(case, "serial")
        serial.ingest(indices, deltas)

        with _pipeline(case, "process") as process:
            process.ingest(indices, deltas)
            merged_process = process.merged()

        merged_serial = serial.merged()
        # Same routing, same chunks, bit-exact transport: the backends
        # must agree to the last bit even for float-state structures.
        assert states_equal(merged_serial, merged_process, exact=True)
        assert states_equal(single, merged_process, case.exact)

    def test_checkpoints_interoperate_across_backends(self, case):
        """A blob written under one backend resumes under the other and
        finishes byte-identical to the uninterrupted serial run."""
        universe, chunk = 128, 32
        indices, deltas = random_turnstile(universe, 4 * chunk, 3)
        split = 2 * chunk

        plain = _pipeline(case, "serial", seed=9)
        plain.ingest(indices, deltas)

        with _pipeline(case, "process", seed=9) as first:
            first.ingest(indices[:split], deltas[:split])
            blob = first.checkpoint()
        resumed = ShardedPipeline.restore(blob, backend="serial")
        assert resumed.backend == "serial"
        assert resumed.updates_ingested == split
        resumed.ingest(indices[split:], deltas[split:])
        assert states_equal(plain.merged(), resumed.merged(), exact=True)

        serial_start = _pipeline(case, "serial", seed=9)
        serial_start.ingest(indices[:split], deltas[:split])
        with ShardedPipeline.restore(serial_start.checkpoint(),
                                     backend="process") as other_way:
            assert other_way.backend == "process"
            other_way.ingest(indices[split:], deltas[split:])
            assert states_equal(plain.merged(), other_way.merged(),
                                exact=True)


class TestLifecycle:
    FACTORY = staticmethod(lambda: L0Sampler(64, delta=0.2, seed=1))

    def test_context_manager_closes(self):
        with ShardedPipeline(self.FACTORY, shards=2,
                             backend="process") as pipeline:
            pipeline.ingest([1, 2, 3], [1, -1, 2])
        with pytest.raises(RuntimeError, match="closed"):
            pipeline.ingest([1], [1])
        with pytest.raises(RuntimeError, match="closed"):
            pipeline.checkpoint()

    def test_close_is_idempotent_and_workers_exit(self):
        pipeline = ShardedPipeline(self.FACTORY, shards=2,
                                   backend="process")
        workers = [worker.process for worker in pipeline._pool._workers]
        pipeline.close()
        pipeline.close()
        assert all(not process.is_alive() for process in workers)
        assert all(process.exitcode == 0 for process in workers)

    def test_close_with_backlogged_queue_still_graceful(self):
        """close() right after a large ingest: the workers drain their
        backlog, receive the stop message, and exit cleanly — no
        SIGTERM for a merely busy worker."""
        indices, deltas = random_turnstile(64, 6000, 13)
        pipeline = ShardedPipeline(self.FACTORY, shards=2, chunk_size=64,
                                   backend="process")
        workers = [worker.process for worker in pipeline._pool._workers]
        pipeline.ingest(indices, deltas)   # no flush: queues backlogged
        pipeline.close()
        assert all(process.exitcode == 0 for process in workers)

    def test_serial_close_also_finalizes(self):
        pipeline = ShardedPipeline(self.FACTORY, shards=2)
        pipeline.close()
        with pytest.raises(RuntimeError, match="closed"):
            pipeline.merged()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            ShardedPipeline(self.FACTORY, shards=2, backend="threads")
        blob = ShardedPipeline(self.FACTORY, shards=2).checkpoint()
        with pytest.raises(ValueError, match="backend"):
            ShardedPipeline.restore(blob, backend="threads")

    def test_mismatched_shard_blob_rejected_under_both_backends(self):
        """A pipeline blob whose shard blobs carry different maps must
        be rejected at restore time — under the process backend this
        happens from the blob headers alone, before workers touch it."""
        from repro.wire import KIND_PIPELINE, decode_frame, encode_frame

        pipeline = ShardedPipeline(self.FACTORY, shards=2)
        blob = pipeline.checkpoint()
        alien = checkpoint(L0Sampler(64, delta=0.2, seed=99))
        frame = decode_frame(blob, expect_kind=KIND_PIPELINE)
        tampered = encode_frame(
            KIND_PIPELINE, frame.header,
            [frame.sections[0], np.frombuffer(alien, dtype=np.uint8)])
        for backend in ("serial", "process"):
            with pytest.raises(IncompatibleShards, match="seed|map"):
                ShardedPipeline.restore(tampered, backend=backend)

    def test_flush_is_a_barrier(self):
        indices, deltas = random_turnstile(64, 400, 7)
        single = L0Sampler(64, delta=0.2, seed=1)
        single.update_many(indices, deltas)
        with ShardedPipeline(self.FACTORY, shards=2, chunk_size=16,
                             backend="process") as pipeline:
            pipeline.ingest(indices, deltas)
            pipeline.flush()
            # post-flush snapshots must already hold every update
            merged = pipeline.merged()
            assert states_equal(single, merged, exact=True)


@pytest.mark.parametrize("shards", [2, 3], ids=lambda k: f"K{k}")
class TestMergedIsIdempotentUnderProcessBackend:
    """merged() consumes worker snapshot *copies*; two consecutive
    calls, and a merged() followed by more ingestion, must leave the
    workers' live state untouched (regression companion to the serial
    suite in test_engine_properties.py)."""

    FACTORY = staticmethod(lambda: L0Sampler(96, delta=0.2, seed=6))

    def test_repeated_merged_and_continue(self, shards):
        single = self.FACTORY()
        indices, deltas = random_turnstile(96, 64, 21)
        single.update_many(indices, deltas)
        with ShardedPipeline(self.FACTORY, shards=shards, chunk_size=16,
                             backend="process") as pipeline:
            pipeline.ingest(indices[:32], deltas[:32])
            first = state_arrays(pipeline.merged())
            second = state_arrays(pipeline.merged())
            assert all(np.array_equal(a, b)
                       for a, b in zip(first, second))
            pipeline.ingest(indices[32:], deltas[32:])
            merged = pipeline.merged()
        assert states_equal(single, merged, exact=True)


class TestDirectSubmit:
    """``ProcessPool.submit`` is public, so it takes chunks the pipeline
    never routes; each must arrive and apply exactly as
    ``update_many`` would apply it in-process."""

    FACTORY = staticmethod(lambda: CountSketch(256, m=4, rows=3, seed=2))

    def _applied(self, chunks):
        pool = ProcessPool([checkpoint(self.FACTORY())])
        try:
            for indices, deltas in chunks:
                pool.submit(0, indices, deltas)
            pool.flush()
            return pool.structures()[0]
        finally:
            pool.close()

    def test_scalar_delta_broadcasts(self):
        chunks = [(np.arange(8, dtype=np.int64), np.int64(2))]
        twin = self.FACTORY()
        twin.update_many(*chunks[0])
        assert states_equal(twin, self._applied(chunks), exact=True)

    def test_chunk_larger_than_a_pipeline_chunk(self):
        # 10,000 updates: more than the pipeline's default 4096-update
        # chunk, so only direct pool use can send this.
        indices, deltas = random_turnstile(256, 10_000, 37)
        chunks = [(indices, deltas), (indices[:5], deltas[:5])]
        twin = self.FACTORY()
        for chunk in chunks:
            twin.update_many(*chunk)
        assert states_equal(twin, self._applied(chunks), exact=True)


class TestWorkerCrash:
    FACTORY = staticmethod(lambda: L0Sampler(64, delta=0.2, seed=1))

    def test_killed_worker_raises_not_hangs(self):
        pipeline = ShardedPipeline(self.FACTORY, shards=2,
                                   backend="process")
        try:
            pipeline.ingest([1, 2, 3, 4], [1, 1, 1, 1])
            pipeline.flush()
            victim = pipeline._pool._workers[0].process
            victim.terminate()
            victim.join(10)
            with pytest.raises(WorkerCrashed, match="died"):
                pipeline.flush()
            # the pipeline is poisoned: no checkpoint can be taken that
            # would misreport the dead worker's lost state
            with pytest.raises(WorkerCrashed):
                pipeline.checkpoint()
            with pytest.raises(WorkerCrashed):
                pipeline.ingest([1], [1])
        finally:
            pipeline.close()       # close after a crash must not raise

    def test_worker_exception_ships_the_traceback(self):
        pipeline = ShardedPipeline(self.FACTORY, shards=2,
                                   backend="process")
        try:
            # mismatched shapes blow up inside the worker's update_many
            pipeline._pool._workers[0].inbox.put(
                ("ingest", np.arange(4), np.arange(3)))
            with pytest.raises(WorkerCrashed, match="Traceback"):
                pipeline.flush()
        finally:
            pipeline.close()


class TestUpdateCounterHonesty:
    """`updates_ingested` advances per applied chunk, never past a
    failure — so checkpoints after a partial ingest tell the truth."""

    def test_counter_stops_at_last_complete_chunk(self):
        # round_robin: exactly one submit per chunk, so the failure
        # point is deterministic — chunk 1 applies, chunk 2 raises
        pipeline = ShardedPipeline(lambda: L0Sampler(64, delta=0.2,
                                                     seed=1),
                                   shards=2, chunk_size=4,
                                   partition="round_robin")
        calls = {"n": 0}
        original = pipeline._pool.submit

        def failing_submit(shard, idx, dlt):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise RuntimeError("simulated mid-batch failure")
            original(shard, idx, dlt)

        pipeline._pool.submit = failing_submit
        with pytest.raises(RuntimeError, match="mid-batch"):
            pipeline.ingest(np.arange(8), np.ones(8, dtype=np.int64))
        # only the chunk that fully applied is counted ...
        assert pipeline.updates_ingested == 4
        # ... and the pipeline is poisoned: the failed chunk may have
        # partially mutated a shard, so no checkpoint may claim it
        with pytest.raises(RuntimeError, match="inconsistent"):
            pipeline.checkpoint()

    def test_partial_hash_fanout_poisons_checkpoint(self):
        """Under hash partitioning one chunk fans out to K shards; if
        that fails partway some shards hold the chunk and others do
        not — checkpoint() must refuse rather than snapshot the lie."""
        pipeline = ShardedPipeline(lambda: L0Sampler(64, delta=0.2,
                                                     seed=1),
                                   shards=2, chunk_size=8,
                                   partition="hash")
        original = pipeline._pool.submit
        calls = {"n": 0}

        def failing_submit(shard, idx, dlt):
            calls["n"] += 1
            if calls["n"] >= 2:    # second shard of the same chunk
                raise RuntimeError("fan-out interrupted")
            original(shard, idx, dlt)

        pipeline._pool.submit = failing_submit
        # indices 0..7 mix onto both shards, so the chunk fans out twice
        with pytest.raises(RuntimeError, match="interrupted"):
            pipeline.ingest(np.arange(8), np.ones(8, dtype=np.int64))
        assert calls["n"] == 2
        assert pipeline.updates_ingested == 0
        with pytest.raises(RuntimeError, match="inconsistent"):
            pipeline.checkpoint()
        # merged() and shard_instances would serve the same torn
        # state; further ingestion could never repair it
        with pytest.raises(RuntimeError, match="inconsistent"):
            pipeline.merged()
        with pytest.raises(RuntimeError, match="inconsistent"):
            pipeline.shard_instances
        with pytest.raises(RuntimeError, match="inconsistent"):
            pipeline.ingest([1], [1])
        pipeline._pool.submit = original
        with pytest.raises(RuntimeError, match="inconsistent"):
            pipeline.checkpoint()  # poisoning is permanent

    def test_pre_failure_checkpoint_remains_an_honest_resume_point(self):
        pipeline = ShardedPipeline(lambda: L0Sampler(64, delta=0.2,
                                                     seed=1),
                                   shards=1, chunk_size=4)
        pipeline.ingest(np.arange(4), np.ones(4, dtype=np.int64))
        blob = pipeline.checkpoint()   # clean chunk boundary

        def failing_submit(shard, idx, dlt):
            raise RuntimeError("boom")

        pipeline._pool.submit = failing_submit
        with pytest.raises(RuntimeError, match="boom"):
            pipeline.ingest(np.arange(8), np.ones(8, dtype=np.int64))
        assert pipeline.updates_ingested == 4   # counter did not lie
        with pytest.raises(RuntimeError, match="inconsistent"):
            pipeline.checkpoint()               # poisoned from here on
        # the snapshot taken before the failure restores and resumes
        restored = ShardedPipeline.restore(blob)
        assert restored.updates_ingested == 4
        restored.ingest(np.arange(4), np.ones(4, dtype=np.int64))
        assert restored.updates_ingested == 8


class TestDeltaRangeGuards:
    """uint64 >= 2^63 passed the old ``kind in 'iu'`` check and wrapped
    negative under ``astype(np.int64)``; now it raises."""

    FACTORY = staticmethod(lambda: L0Sampler(64, delta=0.2, seed=1))

    def test_uint64_delta_overflow_rejected(self):
        pipeline = ShardedPipeline(self.FACTORY, shards=2)
        huge = np.array([1, 2 ** 63], dtype=np.uint64)
        with pytest.raises(ValueError, match="wrap"):
            pipeline.ingest([1, 2], huge)
        assert pipeline.updates_ingested == 0

    def test_uint64_index_overflow_rejected(self):
        pipeline = ShardedPipeline(self.FACTORY, shards=2)
        huge = np.array([1, 2 ** 63 + 5], dtype=np.uint64)
        with pytest.raises(ValueError, match="wrap"):
            pipeline.ingest(huge, [1, 1])

    def test_small_uint64_still_accepted(self):
        pipeline = ShardedPipeline(self.FACTORY, shards=2)
        small = np.array([3, 7], dtype=np.uint64)
        assert pipeline.ingest(small, small) == 2
        assert pipeline.updates_ingested == 2

    def test_stream_path_cannot_smuggle_wrapped_deltas(self):
        """`ingest_stream` trusts UpdateStream's arrays, so the wrap
        guard must live in UpdateStream itself — a uint64 >= 2^63
        delta is rejected at stream construction, closing the same
        hole on the second ingestion entry point."""
        from repro.streams.model import UpdateStream

        with pytest.raises(ValueError, match="wrap"):
            UpdateStream(64, np.array([5], dtype=np.uint64),
                         np.array([2 ** 63], dtype=np.uint64))
        with pytest.raises(ValueError, match="int64"):
            UpdateStream(64, np.array([5]), np.array([2.0 ** 63]))
        # in-range uint64 still constructs
        stream = UpdateStream(64, np.array([5], dtype=np.uint64),
                              np.array([3], dtype=np.uint64))
        pipeline = ShardedPipeline(self.FACTORY, shards=2, chunk_size=4)
        assert pipeline.ingest_stream(stream) == 1

    def test_huge_float_delta_rejected(self):
        pipeline = ShardedPipeline(self.FACTORY, shards=2)
        with pytest.raises(ValueError, match="int64"):
            pipeline.ingest([1], np.array([1e30]))

    def test_fractional_float_indices_rejected(self):
        """Truncating 1.5 -> coordinate 1 silently is the same
        corruption class as the delta guards close; indices get the
        integral check too."""
        pipeline = ShardedPipeline(self.FACTORY, shards=2)
        with pytest.raises(ValueError, match="integral"):
            pipeline.ingest(np.array([1.5]), [1])
        # integral float indices remain fine (producer artefact)
        assert pipeline.ingest(np.array([2.0, 3.0]), [1, 1]) == 2

    def test_float_exactly_2_63_rejected(self):
        """float64 2^63 slips past a `<= iinfo(int64).max` comparison
        (the bound promotes to float 2^63) and wraps to INT64_MIN
        under astype; the guard must be a strict `< 2^63`."""
        pipeline = ShardedPipeline(self.FACTORY, shards=2)
        with pytest.raises(ValueError, match="int64"):
            pipeline.ingest([1], np.array([2.0 ** 63]))
        with pytest.raises(ValueError, match="int64"):
            pipeline.ingest(np.array([2.0 ** 63]), [1])


class _FakePool:
    """The three operations a :class:`Supervisor` calls, recorded.

    ``crashes`` delivers raise :class:`WorkerCrashed` before any
    succeeds, so replay-time crashes can be staged exactly.
    """

    def __init__(self, crashes=0):
        self.calls = []
        self.crashes = crashes

    def _snapshot(self, shards):
        shards = list(shards)
        self.calls.append(("snapshot", tuple(shards)))
        return [f"snap-{shard}".encode() for shard in shards]

    def _respawn(self, shard, blob):
        self.calls.append(("respawn", shard, blob))

    def _deliver(self, shard, indices, deltas):
        if self.crashes:
            self.crashes -= 1
            raise WorkerCrashed("dead again", shard=shard)
        self.calls.append(("deliver", shard, list(indices), list(deltas)))


class TestSupervisor:
    """The healing bookkeeping both pools share, against a fake pool:
    bases, the chunk log, per-shard budgets and backoff."""

    @staticmethod
    def _supervisor(policy=None, shards=2):
        policy = policy or RestartPolicy(backoff_s=0.0)
        return Supervisor(policy, [f"base-{s}".encode()
                                   for s in range(shards)])

    def test_unsupervised_is_inert_and_escalates_at_once(self):
        supervisor = Supervisor(None, iter(()))
        pool = _FakePool()
        supervisor.record(pool, 0, [1], [1])
        supervisor.commit(pool)
        supervisor.adopt([0], [b"x"])
        assert pool.calls == []
        with pytest.raises(WorkerCrashed, match="supervision is off") as err:
            supervisor.heal(pool, WorkerCrashed("boom", shard=1))
        assert err.value.shard == 1
        assert "supervision is off" in supervisor.fatal
        assert supervisor.restarts == 0 and pool.calls == []

    def test_record_keeps_a_private_copy_of_the_chunk(self):
        supervisor = self._supervisor()
        pool = _FakePool()
        indices = np.array([3, 4], dtype=np.int64)
        deltas = np.array([1, -1], dtype=np.int64)
        supervisor.record(pool, 0, indices, deltas)
        indices[:] = 99          # caller reuses its buffers
        deltas[:] = 7
        supervisor.heal(pool, WorkerCrashed("x", shard=0))
        assert pool.calls[-1] == ("deliver", 0, [3, 4], [1, -1])

    def test_full_log_rebases_that_shard_first(self):
        supervisor = self._supervisor(RestartPolicy(backoff_s=0.0,
                                                    log_limit=2))
        pool = _FakePool()
        for value in range(3):
            supervisor.record(pool, 1, [value], [1])
        # the third chunk found a full log: shard 1 (only) re-based
        assert pool.calls == [("snapshot", (1,))]
        supervisor.heal(pool, WorkerCrashed("x", shard=1))
        assert pool.calls[1:] == [("respawn", 1, b"snap-1"),
                                  ("deliver", 1, [2], [1])]

    def test_commit_snapshots_only_dirty_shards(self):
        supervisor = self._supervisor(shards=3)
        pool = _FakePool()
        supervisor.record(pool, 2, [5], [1])
        supervisor.commit(pool)
        assert pool.calls == [("snapshot", (2,))]
        # committed chunks are never replayed
        supervisor.heal(pool, WorkerCrashed("x", shard=2))
        assert pool.calls[1:] == [("respawn", 2, b"snap-2")]

    def test_commit_with_nothing_logged_takes_no_snapshot(self):
        supervisor = self._supervisor()
        pool = _FakePool()
        supervisor.commit(pool)
        assert pool.calls == []

    def test_adopt_sets_the_base_and_clears_the_log(self):
        supervisor = self._supervisor()
        pool = _FakePool()
        supervisor.record(pool, 0, [1], [1])
        supervisor.record(pool, 1, [2], [1])
        supervisor.adopt([0], [bytearray(b"fresh")])
        supervisor.heal(pool, WorkerCrashed("x", shard=0))
        supervisor.heal(pool, WorkerCrashed("x", shard=1))
        assert pool.calls == [("respawn", 0, b"fresh"),
                              ("respawn", 1, b"base-1"),
                              ("deliver", 1, [2], [1])]
        assert type(pool.calls[0][2]) is bytes

    def test_heal_replays_the_log_in_submission_order(self):
        supervisor = self._supervisor()
        pool = _FakePool()
        for value in (7, 3, 5):
            supervisor.record(pool, 0, [value], [value])
        supervisor.heal(pool, WorkerCrashed("x", shard=0))
        assert pool.calls == [("respawn", 0, b"base-0"),
                              ("deliver", 0, [7], [7]),
                              ("deliver", 0, [3], [3]),
                              ("deliver", 0, [5], [5])]
        assert supervisor.restarts == 1 and supervisor.fatal is None

    def test_crash_during_replay_restarts_again(self):
        supervisor = self._supervisor(RestartPolicy(max_restarts=3,
                                                    backoff_s=0.0))
        pool = _FakePool(crashes=2)
        supervisor.record(pool, 0, [1], [1])
        supervisor.heal(pool, WorkerCrashed("x", shard=0))
        assert [call[0] for call in pool.calls] == \
            ["respawn", "respawn", "respawn", "deliver"]
        # one heal, three attempts of the shard's budget
        assert supervisor.restarts == 1
        with pytest.raises(WorkerCrashed, match="budget is spent"):
            supervisor.heal(pool, WorkerCrashed("x", shard=0))

    def test_spent_budget_escalates_and_records_why(self):
        supervisor = self._supervisor(RestartPolicy(max_restarts=1,
                                                    backoff_s=0.0))
        pool = _FakePool()
        supervisor.heal(pool, WorkerCrashed("first", shard=0))
        with pytest.raises(WorkerCrashed, match="budget is spent") as err:
            supervisor.heal(pool, WorkerCrashed("second", shard=0))
        assert err.value.shard == 0
        assert "shard 0" in supervisor.fatal
        assert "second" in supervisor.fatal
        assert supervisor.restarts == 1

    def test_zero_budget_escalates_on_the_first_crash(self):
        supervisor = self._supervisor(RestartPolicy(max_restarts=0))
        pool = _FakePool()
        with pytest.raises(WorkerCrashed, match="budget is spent"):
            supervisor.heal(pool, WorkerCrashed("x", shard=1))
        assert pool.calls == []

    def test_budgets_are_per_shard(self):
        supervisor = self._supervisor(RestartPolicy(max_restarts=1,
                                                    backoff_s=0.0))
        pool = _FakePool()
        supervisor.heal(pool, WorkerCrashed("x", shard=0))
        supervisor.heal(pool, WorkerCrashed("x", shard=1))
        assert supervisor.restarts == 2
        with pytest.raises(WorkerCrashed):
            supervisor.heal(pool, WorkerCrashed("x", shard=1))

    def test_backoff_grows_per_attempt(self, monkeypatch):
        slept = []
        monkeypatch.setattr(workers_module.time, "sleep", slept.append)
        policy = RestartPolicy(max_restarts=3, backoff_s=0.5,
                               backoff_factor=3.0)
        supervisor = self._supervisor(policy)
        pool = _FakePool(crashes=1)
        supervisor.record(pool, 0, [1], [1])
        supervisor.heal(pool, WorkerCrashed("x", shard=0))
        supervisor.heal(pool, WorkerCrashed("x", shard=1))
        assert slept == [0.5, 1.5, 0.5]
        assert [policy.delay(n) for n in range(3)] == [0.5, 1.5, 4.5]


class TestSupervisedProcessPool:
    """A worker killed from outside (no traceback, no poison pill) is
    healed by whichever pool call meets it first, and the healed shard
    holds exactly what a crash-free serial pool holds."""

    FACTORY = staticmethod(lambda: CountSketch(256, m=4, rows=3, seed=2))
    POLICY = RestartPolicy(backoff_s=0.0)

    def _chunks(self, count=4, seed=41):
        indices, deltas = random_turnstile(256, 32 * count, seed)
        return [(indices[k::count], deltas[k::count]) for k in range(count)]

    @staticmethod
    def _kill(pool, shard):
        victim = pool._workers[shard].process
        victim.kill()
        victim.join(10)

    def _serial_blobs(self, chunks, shards=2):
        pool = SerialPool([self.FACTORY() for _ in range(shards)])
        for k, (indices, deltas) in enumerate(chunks):
            pool.submit(k % shards, indices, deltas)
        return pool.snapshots()

    def _run(self, chunks, kill_before, shards=2):
        """Submit ``chunks`` round-robin, killing shard 0 just before
        step ``kill_before`` ("submit" index, "flush" or "snapshots")."""
        pool = ProcessPool([checkpoint(self.FACTORY())
                            for _ in range(shards)], policy=self.POLICY)
        try:
            for k, (indices, deltas) in enumerate(chunks):
                if kill_before == k:
                    self._kill(pool, 0)
                pool.submit(k % shards, indices, deltas)
            if kill_before == "flush":
                self._kill(pool, 0)
            pool.flush()
            if kill_before == "snapshots":
                self._kill(pool, 0)
            blobs = pool.snapshots()
            return blobs, pool.supervisor.restarts
        finally:
            pool.close()

    @pytest.mark.parametrize("kill_before", [0, 2, "flush", "snapshots"])
    def test_kill_heals_byte_identical(self, kill_before):
        chunks = self._chunks()
        blobs, restarts = self._run(chunks, kill_before)
        assert blobs == self._serial_blobs(chunks)
        assert restarts == 1

    def test_kill_after_a_flush_replays_nothing_stale(self):
        """The flush re-based the shard, so the heal restores the
        flushed state and replays only what came after it."""
        chunks = self._chunks(count=6)
        pool = ProcessPool([checkpoint(self.FACTORY()) for _ in range(2)],
                           policy=self.POLICY)
        try:
            for k, (indices, deltas) in enumerate(chunks[:4]):
                pool.submit(k % 2, indices, deltas)
            pool.flush()
            assert all(not log for log in pool.supervisor._logs)
            pool.submit(0, *chunks[4])
            self._kill(pool, 0)
            pool.submit(1, *chunks[5])
            blobs = pool.snapshots()
            assert pool.supervisor.restarts == 1
        finally:
            pool.close()
        assert blobs == self._serial_blobs(chunks)

    def test_kill_behind_a_backlogged_inbox_heals(self):
        """More chunks in flight to one shard than its queue holds:
        the log, not the dead worker's inbox, is what gets replayed."""
        chunks = self._chunks(count=12)
        pool = ProcessPool([checkpoint(self.FACTORY())],
                           policy=self.POLICY)
        try:
            for k, chunk in enumerate(chunks):
                if k == 6:
                    self._kill(pool, 0)
                pool.submit(0, *chunk)
            blobs = pool.snapshots()
            assert pool.supervisor.restarts == 1
        finally:
            pool.close()
        assert blobs == self._serial_blobs(chunks, shards=1)

    def test_spent_budget_poisons_the_pool(self):
        pool = ProcessPool([checkpoint(self.FACTORY()) for _ in range(2)],
                           policy=RestartPolicy(max_restarts=0))
        try:
            pool.submit(1, *self._chunks()[0])
            self._kill(pool, 1)
            with pytest.raises(WorkerCrashed, match="budget is spent"):
                pool.flush()
            # every later call names the original failure
            for call in (pool.flush, pool.snapshots,
                         lambda: pool.submit(0, [1], [1])):
                with pytest.raises(WorkerCrashed, match="shard 1 crashed"):
                    call()
        finally:
            pool.close()

    def test_closed_pool_refuses_work(self):
        pool = ProcessPool([checkpoint(self.FACTORY())], policy=self.POLICY)
        pool.close()
        for call in (pool.flush, pool.snapshots,
                     lambda: pool.submit(0, [1], [1])):
            with pytest.raises(RuntimeError, match="closed"):
                call()


@pytest.mark.parametrize("case", SHARDABLE, ids=SHARDABLE_IDS)
class TestSupervisedDirectSubmit:
    def test_killed_worker_heals_to_the_serial_bytes(self, case):
        """Direct pool use, for every shardable type: uneven chunks
        (one longer than a pipeline chunk) with a worker killed
        mid-stream; the supervised process pool's snapshots equal a
        crash-free serial pool's, byte for byte."""
        indices, deltas = random_turnstile(128, 5000, 43)
        cuts = [0, 7, 4500, 4531, 5000]
        chunks = [(indices[a:b], deltas[a:b])
                  for a, b in zip(cuts, cuts[1:])]
        route = [0, 1, 0, 0]

        serial = SerialPool([case.factory(128, 5) for _ in range(2)])
        pool = ProcessPool([checkpoint(case.factory(128, 5))
                            for _ in range(2)],
                           policy=RestartPolicy(backoff_s=0.0))
        try:
            for k, (shard, chunk) in enumerate(zip(route, chunks)):
                if k == 2:
                    TestSupervisedProcessPool._kill(pool, 0)
                pool.submit(shard, *chunk)
                serial.submit(shard, *chunk)
            assert pool.snapshots() == serial.snapshots()
            assert pool.supervisor.restarts == 1
        finally:
            pool.close()
