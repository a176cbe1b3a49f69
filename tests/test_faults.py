"""Fault plans, supervised restart and degraded serving (unit level).

The cross-product chaos property suite lives in ``test_chaos.py``;
this file pins the building blocks: :class:`FaultPlan` determinism and
validation, serial-backend supervision (heal = checkpoint + replay,
escalation when the budget is spent), the client retry policy's
deterministic backoff, and the service-level degrade/recover
lifecycle.  The follower's monotonic wait deadline is pinned next to
the other socket tests in ``test_net_server.py``.
"""

from __future__ import annotations

import pytest

from repro.engine import (RestartPolicy, ShardedPipeline, WorkerCrashed,
                          checkpoint)
from repro.faults import (ACK_DELAY, DELTA_TRUNCATE, NO_FAULTS, SITES,
                          SOCKET_DROP, WORKER_CRASH, FaultPlan, NoFaults)
from repro.net import RetryPolicy
from repro.service import QueryService, ServiceDegraded
from repro.sketch import CountSketch

from _engine_cases import random_turnstile


def _factory(seed=3):
    return lambda: CountSketch(1 << 10, m=6, rows=5, seed=seed)


def _batches(count=5, length=200, seed=1):
    idx, dlt = random_turnstile(1 << 10, count * length, seed)
    return [(idx[k * length:(k + 1) * length],
             dlt[k * length:(k + 1) * length]) for k in range(count)]


def _merged_bytes(pipe) -> bytes:
    pipe.flush()
    return checkpoint(pipe.merged())


# ---------------------------------------------------------------------------
# FaultPlan


class TestFaultPlan:
    def test_at_schedule_fires_exactly_at_those_visits(self):
        plan = FaultPlan(seed=0, at={WORKER_CRASH: (2, 5)})
        fires = [plan.maybe_fire(WORKER_CRASH) for _ in range(6)]
        assert fires == [False, True, False, False, True, False]
        assert plan.schedule() == ((WORKER_CRASH, 2), (WORKER_CRASH, 5))

    def test_rate_schedule_replays_identically(self):
        def drive(plan):
            for _ in range(500):
                plan.maybe_fire(SOCKET_DROP)
                plan.maybe_fire(ACK_DELAY)
            return plan.schedule()

        first = drive(FaultPlan(seed=7, rates={SOCKET_DROP: 0.05,
                                               ACK_DELAY: 0.02}))
        second = drive(FaultPlan(seed=7, rates={SOCKET_DROP: 0.05,
                                                ACK_DELAY: 0.02}))
        assert first == second
        assert any(site == SOCKET_DROP for site, _ in first)
        # a different seed decoheres the schedule
        third = drive(FaultPlan(seed=8, rates={SOCKET_DROP: 0.05,
                                               ACK_DELAY: 0.02}))
        assert first != third

    def test_per_site_streams_are_independent(self):
        """Adding a second rate site never perturbs the first site's
        draws (streams are keyed on the site's fixed index)."""
        def drops(plan):
            return [plan.maybe_fire(SOCKET_DROP) for _ in range(200)]

        alone = drops(FaultPlan(seed=3, rates={SOCKET_DROP: 0.1}))
        paired = drops(FaultPlan(seed=3, rates={SOCKET_DROP: 0.1,
                                                ACK_DELAY: 0.5}))
        assert alone == paired

    @pytest.mark.parametrize("site, seed, visits", [
        (WORKER_CRASH, 5, (5, 8, 9, 12, 20, 24)),
        (WORKER_CRASH, 19, (4, 21, 22)),
        (SOCKET_DROP, 5, (1, 5, 7, 8, 10, 17, 21)),
        (SOCKET_DROP, 19, (1, 2, 3, 4, 5, 6, 8, 17, 23)),
        (DELTA_TRUNCATE, 5, (2, 5, 6, 9, 10, 12, 13, 21, 22)),
        (DELTA_TRUNCATE, 19, (10, 12, 17, 18, 20)),
        (ACK_DELAY, 5, (2, 6, 11, 13, 16, 18, 21)),
        (ACK_DELAY, 19, (6, 8, 14, 17, 19)),
    ])
    def test_rate_schedules_are_pinned(self, site, seed, visits):
        """Each site's stream is keyed on a fixed id, so these
        schedules (the chaos suite's seeds at rate 0.25) survive any
        site being added or removed."""
        plan = FaultPlan(seed=seed, rates={site: 0.25})
        for _ in range(24):
            plan.maybe_fire(site)
        assert plan.schedule() == tuple((site, v) for v in visits)

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultPlan(rates={"bogus.site": 0.1})
        with pytest.raises(ValueError, match="both a rate and"):
            FaultPlan(rates={ACK_DELAY: 0.1}, at={ACK_DELAY: (1,)})
        with pytest.raises(ValueError, match="in \\[0, 1\\]"):
            FaultPlan(rates={ACK_DELAY: 1.5})
        with pytest.raises(ValueError, match="1-based"):
            FaultPlan(at={ACK_DELAY: (0,)})
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultPlan().maybe_fire("bogus.site")

    def test_no_faults_is_inert(self):
        assert NO_FAULTS.active is False
        assert all(NO_FAULTS.maybe_fire(site) is False for site in SITES)
        assert isinstance(NO_FAULTS, NoFaults)


# ---------------------------------------------------------------------------
# Serial-backend supervision


class TestSerialSupervision:
    def test_heal_is_byte_identical_to_crash_free(self):
        batches = _batches()
        with ShardedPipeline(_factory(), shards=3, chunk_size=64) \
                as oracle:
            for idx, dlt in batches:
                oracle.ingest(idx, dlt)
            want = _merged_bytes(oracle)

        plan = FaultPlan(seed=5, at={WORKER_CRASH: (3, 11)})
        with ShardedPipeline(_factory(), shards=3, chunk_size=64,
                             faults=plan,
                             restarts=RestartPolicy(backoff_s=0.001)) \
                as pipe:
            for idx, dlt in batches:
                pipe.ingest(idx, dlt)
            assert pipe.worker_restarts == 2
            assert pipe.healthy
            assert _merged_bytes(pipe) == want
        assert plan.schedule() == ((WORKER_CRASH, 3), (WORKER_CRASH, 11))

    def test_unsupervised_crash_escalates_immediately(self):
        plan = FaultPlan(seed=5, at={WORKER_CRASH: (1,)})
        with ShardedPipeline(_factory(), shards=2, chunk_size=64,
                             faults=plan) as pipe:
            with pytest.raises(WorkerCrashed, match="supervision is off"):
                pipe.ingest(*_batches(count=1)[0])
            assert not pipe.healthy

    def test_exhausted_budget_poisons_the_pipeline(self):
        plan = FaultPlan(seed=5, at={WORKER_CRASH: (1, 2, 3)})
        policy = RestartPolicy(max_restarts=2, backoff_s=0.001)
        with ShardedPipeline(_factory(), shards=1, chunk_size=64,
                             faults=plan, restarts=policy) as pipe:
            with pytest.raises(WorkerCrashed,
                               match="restart budget is spent"):
                pipe.ingest(*_batches(count=1)[0])
            assert not pipe.healthy
            assert pipe.worker_restarts == 2

    def test_restart_policy_validation(self):
        with pytest.raises(ValueError):
            RestartPolicy(max_restarts=-1)
        with pytest.raises(ValueError):
            RestartPolicy(backoff_s=-0.1)
        with pytest.raises(ValueError):
            RestartPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RestartPolicy(log_limit=0)
        policy = RestartPolicy(backoff_s=0.01, backoff_factor=2.0)
        assert policy.delay(0) == pytest.approx(0.01)
        assert policy.delay(2) == pytest.approx(0.04)

    def test_restarts_survive_a_reshard(self):
        plan = FaultPlan(seed=5, at={WORKER_CRASH: (2,)})
        with ShardedPipeline(_factory(), shards=2, chunk_size=64,
                             faults=plan,
                             restarts=RestartPolicy(backoff_s=0.001)) \
                as pipe:
            pipe.ingest(*_batches(count=1)[0])
            assert pipe.worker_restarts == 1
            pipe.reshard(3)
            assert pipe.worker_restarts == 1   # carried across pools


# ---------------------------------------------------------------------------
# Client retry policy


class TestRetryPolicy:
    def test_delays_replay_under_one_seed(self):
        a = RetryPolicy(seed=9, base_s=0.05, factor=2.0, jitter=0.5)
        b = RetryPolicy(seed=9, base_s=0.05, factor=2.0, jitter=0.5)
        assert [a.delay(k) for k in range(5)] \
            == [b.delay(k) for k in range(5)]
        c = RetryPolicy(seed=10, base_s=0.05, factor=2.0, jitter=0.5)
        assert [a.delay(k) for k in range(5)] \
            != [c.delay(k) for k in range(5)]

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(seed=0, base_s=0.1, factor=2.0, max_s=0.3,
                             jitter=0.0)
        assert policy.delay(0) == pytest.approx(0.1)
        assert policy.delay(1) == pytest.approx(0.2)
        assert policy.delay(5) == pytest.approx(0.3)     # capped

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=-1)
        with pytest.raises(ValueError):
            RetryPolicy(deadline_s=0)
        with pytest.raises(ValueError):
            RetryPolicy(factor=0.5)

    def test_service_degraded_is_retried_by_default(self):
        assert "ServiceDegraded" in RetryPolicy().retry_errors


# ---------------------------------------------------------------------------
# Degraded serving and self-healing


class TestDegradedService:
    def test_auto_recovery_is_byte_identical(self):
        batches = _batches(count=6)
        with ShardedPipeline(_factory(), shards=2, chunk_size=64) \
                as oracle:
            for idx, dlt in batches:
                oracle.ingest(idx, dlt)
            want = _merged_bytes(oracle)

        plan = FaultPlan(seed=5, at={WORKER_CRASH: (9,)})
        pipe = ShardedPipeline(_factory(), shards=2, chunk_size=64,
                               faults=plan)          # no supervision
        with QueryService(pipe, refresh_every=1) as service:
            for idx, dlt in batches:
                service.ingest(idx, dlt)
                service.current()         # snapshot at the ack boundary
            assert service.status == ("ok", None)
            assert service.stats.recoveries == 1
            assert service.stats.errors == 1
            assert _merged_bytes(service.pipeline) == want

    def test_degraded_lifecycle_and_manual_recovery(self):
        batches = _batches(count=2)
        plan = FaultPlan(seed=5, at={WORKER_CRASH: (2,)})
        pipe = ShardedPipeline(_factory(), shards=2, chunk_size=64,
                               faults=plan)
        with QueryService(pipe, refresh_every=None,
                          auto_recover=False) as service:
            with pytest.raises(ServiceDegraded) as err:
                service.ingest(*batches[0])
            assert err.value.retryable is True
            status, reason = service.status
            assert status == "degraded" and "WorkerCrashed" in reason
            # queries still answer, from the newest good snapshot
            snap = service.serving_snapshot()
            assert snap.epoch == 0
            assert service.stats.degraded_queries == 1
            assert isinstance(service.query("point", index=0), float)
            # ingest keeps refusing with the typed retryable error
            with pytest.raises(ServiceDegraded):
                service.ingest(*batches[1])
            # manual recovery flips back to ok and accepts writes
            assert service.recover() is True
            assert service.status == ("ok", None)
            assert service.ingest(*batches[0]) == batches[0][0].size

    def test_recovery_never_rolls_back_acked_epochs(self):
        """No snapshot at the last good epoch -> stay degraded (a
        rebuild from an older snapshot would silently lose acks)."""
        batches = _batches(count=3)
        plan = FaultPlan(seed=5, at={WORKER_CRASH: (9,)})
        pipe = ShardedPipeline(_factory(), shards=2, chunk_size=64,
                               faults=plan)
        with QueryService(pipe, refresh_every=None) as service:
            service.ingest(*batches[0])     # acked, but never snapshot
            with pytest.raises(ServiceDegraded):
                service.ingest(*batches[1])
            assert service.status[0] == "degraded"
            assert service.stats.recoveries == 0

    def test_stats_expose_the_fault_counters(self):
        report = QueryService(
            ShardedPipeline(_factory(), shards=1)).stats.to_dict()
        for key in ("errors", "degraded_queries", "recoveries",
                    "worker_restarts"):
            assert report[key] == 0
