"""The query service: ingest-while-query serving over one pipeline.

:class:`QueryService` is the facade the apps/CLI/benchmarks use.  It
owns a running :class:`~repro.engine.pipeline.ShardedPipeline` plus

* a :class:`~repro.service.snapshot.SnapshotManager` (epoch-versioned
  frozen views, refresh policy, retention),
* a :class:`~repro.service.router.QueryRouter` over the engine's
  capability table (loud :class:`UnsupportedQuery` gaps, read-only
  queries, the epoch-keyed LRU result cache),
* a :class:`~repro.service.autoscale.LoadMonitor` implementing the
  automatic reshard trigger (offered-load watermarks).

The division of labour with the engine: the engine guarantees that
folding shard states reproduces the single-stream state; the service
guarantees *when* that fold is taken (epochs), *what* may be asked of
it (capabilities), and *how often* it is recomputed (snapshot refresh
+ result cache).

Degraded serving
----------------
A pipeline whose worker pool exhausts its restart budget is poisoned —
but the service still holds frozen snapshots of every *acked* state.
Rather than turning one crashed shard into a full outage, the service
degrades: queries keep answering from the newest good snapshot,
``status`` reports ``("degraded", reason)``, and ingest raises the
typed, retryable :class:`ServiceDegraded`.  When the newest snapshot
sits exactly at the last acked epoch (nothing acknowledged would be
lost), the service *self-heals*: it rebuilds a fresh pipeline from
that snapshot — same backend, shards, transport, fault plan and
restart policy — swaps it in, re-applies the failed batch exactly
once, and flips back to ``ok`` automatically.
"""

from __future__ import annotations

import numpy as np

from ..engine.checkpoint import (FORMAT_VERSION,
                                 checkpoint as snapshot_structure)
from ..engine.pipeline import ShardedPipeline
from ..engine.registry import query_capabilities
from ..wire import KIND_PIPELINE, encode_frame
from .autoscale import LoadMonitor, WatermarkPolicy
from .cache import ResultCache, ServiceStats, timer as default_timer
from .router import QueryRouter
from .snapshot import Snapshot, SnapshotManager


class ServiceDegraded(RuntimeError):
    """Ingest refused because the pipeline is poisoned.

    Retryable by design: the service may self-heal between attempts
    (and :class:`~repro.net.client.RetryPolicy` retries this error
    type by default), so a client that backs off and resends usually
    lands on a recovered pipeline.
    """

    #: Clients may safely resend the same batch (dedup makes it safe).
    retryable = True

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class QueryService:
    """Serve named queries from epoch-versioned snapshots of a stream.

    Parameters
    ----------
    pipeline:
        The live pipeline to serve.  The service *owns* it: ``close()``
        closes it (build it yourself and use the service as a context
        manager, or hand over a restored one).
    refresh_every:
        Auto-capture a fresh snapshot once this many updates have been
        ingested past the newest epoch; None = explicit
        :meth:`refresh` only.
    keep:
        How many epochs stay queryable (time-travel window).
    cache_size:
        LRU capacity for query results; 0 disables caching.
    prewarm:
        Cache admission at refresh time: when a new snapshot is
        captured, precompute its answers for up to this many of the
        previous epoch's hottest queries (most-accessed cache keys),
        so a steady query mix stays hot across epochs.  0 disables.
    policy:
        A :class:`WatermarkPolicy` enabling the automatic reshard
        trigger, or None to leave the topology alone.
    auto_recover:
        Self-heal a poisoned pipeline by rebuilding from the newest
        snapshot when that snapshot is exactly at the last acked epoch
        (so recovery can never drop an acknowledged update); ``False``
        keeps the service degraded until :meth:`recover` is called.
    timer:
        Monotonic clock, injectable for deterministic tests.
    """

    def __init__(self, pipeline: ShardedPipeline, *,
                 refresh_every: int | None = None, keep: int = 4,
                 cache_size: int = 128, prewarm: int = 8,
                 policy: WatermarkPolicy | None = None,
                 auto_recover: bool = True,
                 timer=default_timer):
        if int(prewarm) < 0:
            raise ValueError(f"prewarm must be >= 0, not {prewarm}")
        self._prewarm = int(prewarm)
        self._auto_recover = bool(auto_recover)
        self._degraded_reason: str | None = None
        #: The last epoch known good (set when degradation strikes);
        #: recovery is allowed only from a snapshot at exactly this
        #: epoch.
        self._good_epoch: int | None = None
        self.pipeline = pipeline
        self.stats = ServiceStats()
        self.snapshots = SnapshotManager(pipeline,
                                         refresh_every=refresh_every,
                                         keep=keep)
        self.router = QueryRouter(cache=ResultCache(cache_size),
                                  stats=self.stats, timer=timer)
        self.monitor = LoadMonitor(policy) if policy is not None else None
        self._timer = timer
        self._last_ingest_start: float | None = None
        #: The structure class every query dispatches against.
        self.served_type = pipeline.shard_type
        # A baseline snapshot at the starting epoch: degraded serving
        # and self-healing both need a known-good state to fall back
        # on, including for a crash inside the very first batch.
        self.snapshots.refresh()

    @classmethod
    def from_checkpoint(cls, blob: bytes, backend: str = "serial",
                        shards: int | None = None,
                        transport: str | None = None,
                        **kwargs) -> "QueryService":
        """Boot a service straight from a pipeline checkpoint — a
        restored stream (or a remote site's blob) is queryable without
        its original factory or process."""
        return cls(ShardedPipeline.restore(blob, backend=backend,
                                           shards=shards,
                                           transport=transport), **kwargs)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        self.pipeline.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # -- the write path ------------------------------------------------------

    def ingest(self, indices, deltas) -> int:
        """Feed a batch through the pipeline, recording load metrics.

        One call is one autoscale observation: the offered load is the
        batch size over the wall-clock span since the previous call
        started (capturing both the ingest cost and the producer gap).
        When the watermark policy demands it, the pipeline reshards
        in-line — the merged state is preserved exactly, so queries
        before and after the topology change agree.

        A poisoned pipeline raises the retryable
        :class:`ServiceDegraded` — after first attempting to self-heal
        (see ``auto_recover``): rebuild from the newest snapshot if it
        sits at the last acked epoch, re-apply this batch exactly
        once, and carry on as if nothing happened.
        """
        if not self.pipeline.healthy:
            if not (self._auto_recover and self._try_recover()):
                raise ServiceDegraded(self._degraded_reason
                                      or "pipeline unhealthy")
        start = self._timer()
        before = self.pipeline.updates_ingested
        try:
            count = self.pipeline.ingest(indices, deltas)
        except Exception as exc:
            if self.pipeline.healthy or getattr(
                    self.pipeline, "_closed", False):
                raise   # bad input (or a closed pipeline): not a fault
            self.stats.errors += 1
            self._degraded_reason = f"{type(exc).__name__}: {exc}"
            self._good_epoch = before
            if not (self._auto_recover and self._try_recover()):
                raise ServiceDegraded(self._degraded_reason) from exc
            # Recovered onto the pre-batch state: the failed batch was
            # never acked, so re-applying it exactly once keeps the
            # total order intact.
            try:
                count = self.pipeline.ingest(indices, deltas)
            except Exception as retry_exc:
                self.stats.errors += 1
                self._degraded_reason = (f"{type(retry_exc).__name__}: "
                                         f"{retry_exc}")
                self._good_epoch = before
                raise ServiceDegraded(self._degraded_reason) \
                    from retry_exc
        end = self._timer()
        # Offered load uses the start-to-start period (in steady state
        # exactly one batch arrives per period); the first call has no
        # period yet, so its own duration stands in.
        span = (end - start if self._last_ingest_start is None
                else start - self._last_ingest_start)
        self._last_ingest_start = start
        self.stats.record_ingest(count, end - start)
        self.stats.shm_fallbacks = self.pipeline.shm_fallbacks
        self.stats.worker_restarts = self.pipeline.worker_restarts
        if self.monitor is not None:
            target = self.monitor.observe(count, span,
                                          self.pipeline.shards)
            if target is not None:
                self.pipeline.reshard(target)
                self.stats.reshards += 1
        return count

    # -- health & recovery ---------------------------------------------------

    @property
    def status(self) -> tuple:
        """``("ok", None)`` or ``("degraded", reason)``.

        Flips back to ``ok`` automatically once the pipeline is
        healthy again (a successful recovery, or the pool healing a
        crash within its restart budget).
        """
        if not self.pipeline.healthy:
            return ("degraded",
                    self._degraded_reason or "pipeline unhealthy")
        if self._degraded_reason is not None:
            self._degraded_reason = None
            self._good_epoch = None
        return ("ok", None)

    def recover(self) -> bool:
        """Manually attempt the snapshot rebuild; ``True`` on success.

        Succeeds only when the newest snapshot sits exactly at the
        last known-good epoch — recovery must never silently roll back
        an acknowledged update.
        """
        if self.pipeline.healthy:
            return True
        return self._try_recover()

    def _try_recover(self) -> bool:
        """Swap in a pipeline rebuilt from the newest snapshot, iff
        that snapshot is at the last known-good epoch."""
        newest = self.snapshots.newest()
        if (newest is None or self._good_epoch is None
                or newest.epoch != self._good_epoch):
            return False
        self._rebuild_from(newest)
        self._degraded_reason = None
        self._good_epoch = None
        self.stats.recoveries += 1
        return True

    def snapshot_frame(self, snapshot: Snapshot,
                       compress: str = "none") -> bytes:
        """A restorable single-shard pipeline frame holding the
        snapshot's state at its epoch — the recovery (and degraded
        final-checkpoint) image."""
        header = {
            "format": FORMAT_VERSION,
            "partition": self.pipeline.partition,
            "chunk_size": self.pipeline.chunk_size,
            "cursor": 0,
            "updates_ingested": snapshot.epoch,
            "shards": 1,
        }
        blob = snapshot_structure(snapshot.structure)
        return encode_frame(KIND_PIPELINE, header,
                            [np.frombuffer(blob, dtype=np.uint8)],
                            compress=compress)

    def _rebuild_from(self, snapshot: Snapshot) -> None:
        """Replace the poisoned pipeline with a fresh one holding the
        snapshot's state, preserving every execution knob (backend,
        shards, transport, fault plan, restart policy)."""
        old = self.pipeline
        rebuilt = ShardedPipeline.restore(
            self.snapshot_frame(snapshot), backend=old.backend,
            shards=old.shards, transport=old.transport,
            faults=old.faults, restarts=old.restart_policy)
        self.pipeline = rebuilt
        self.snapshots.pipeline = rebuilt
        self._last_ingest_start = None
        try:
            old.close()
        except Exception:  # repro-lint: disable=R008 -- tearing down an already-poisoned pipeline; its crash is the reason we are here and is recorded in _degraded_reason
            pass

    def serving_snapshot(self) -> Snapshot:
        """The snapshot queries should answer from right now.

        Healthy: the current serving snapshot (auto-refresh applies).
        Degraded: the newest retained snapshot — stale but consistent
        — counted in ``stats.degraded_queries``; raises
        :class:`ServiceDegraded` only when no snapshot exists at all.
        """
        if self.status[0] == "ok":
            return self.current()
        newest = self.snapshots.newest()
        if newest is None:
            raise ServiceDegraded(self._degraded_reason
                                  or "pipeline unhealthy")
        self.stats.degraded_queries += 1
        return newest

    # -- the read path -------------------------------------------------------

    def refresh(self) -> Snapshot:
        """Force a snapshot at the current epoch (no-op if unchanged)."""
        return self._advance(self.snapshots.refresh)

    def current(self) -> Snapshot:
        """The serving snapshot (auto-refreshing per policy)."""
        return self._advance(self.snapshots.current)

    def _advance(self, capture) -> Snapshot:
        """Run one snapshot-manager capture call, booking captures and
        prewarming the new epoch's cache from the epoch it displaced
        (see :meth:`QueryRouter.prewarm`)."""
        previous = self.snapshots.newest()
        captures_before = self.snapshots.captures
        snapshot = capture()
        captured = self.snapshots.captures - captures_before
        self.stats.snapshots_captured += captured
        if captured and previous is not None and self._prewarm:
            self.router.prewarm(snapshot, previous.cache_token,
                                self._prewarm)
        return snapshot

    def query(self, op: str, *, at: int | None = None, **args):
        """Answer ``op(**args)`` from a frozen snapshot.

        ``at`` queries a retained older epoch (KeyError if it aged
        out); the default is the current serving snapshot, which may
        capture a fresh one per the refresh policy — or, while the
        service is degraded, the newest retained snapshot (stale but
        consistent).  Unsupported ops raise
        :class:`~repro.engine.registry.UnsupportedQuery`.
        """
        snapshot = (self.snapshots.snapshot_at(at) if at is not None
                    else self.serving_snapshot())
        return self.router.query(snapshot, op, **args)

    def operations(self) -> dict[str, str]:
        """op name -> doc for the served structure type."""
        return {op: capability.doc for op, capability in sorted(
            query_capabilities(self.served_type).items())}

    @property
    def epochs(self) -> list[int]:
        """Queryable epochs, oldest first."""
        return self.snapshots.epochs
