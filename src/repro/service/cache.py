"""The epoch-keyed LRU result cache and the service's counters.

Why the cache is safe: a :class:`~repro.service.snapshot.Snapshot` is
immutable, and every query op only reads it (an L0 draw uses a copy
of the sampler's choice generator), so every cacheable query is a
*pure function* of ``(epoch, op, canonical args)``.  A hit therefore
returns exactly what recomputation would — no TTLs, no invalidation
protocol, no staleness bugs; a new epoch simply keys new entries and
old ones age out of the LRU.

Cached results are shared between callers; treat them as read-only
(the same contract as the snapshot structures themselves).
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace


class ResultCache:
    """A bounded LRU over ``(epoch, op, args)`` query keys.

    ``capacity=0`` disables caching (every lookup misses, nothing is
    stored) without callers having to special-case ``None``.
    """

    def __init__(self, capacity: int = 128):
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, not {capacity}")
        self.capacity = int(capacity)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: OrderedDict[tuple, object] = OrderedDict()
        self._accesses: dict[tuple, int] = {}   # key -> lifetime uses

    def __len__(self) -> int:
        return len(self._entries)

    def contains(self, key: tuple) -> bool:
        """Membership peek: no counters, no LRU reordering (so a
        prewarm probe never skews the hit-rate statistics)."""
        return key in self._entries

    @staticmethod
    def key(token: int, epoch: int, op: str, args: dict) -> tuple:
        """The canonical cache key; raises TypeError on unhashable
        args (the router only calls this for cacheable ops).

        ``token`` is the snapshot's :attr:`~repro.service.snapshot.
        Snapshot.cache_token` — it pins the key to one frozen snapshot
        so a router serving several streams (which can share epoch
        numbers) never crosses their answers; ``epoch`` stays in the
        key for debuggability.
        """
        canonical = tuple(sorted(args.items()))
        hash(canonical)            # fail loudly here, not inside the dict
        return (int(token), int(epoch), str(op), canonical)

    def get(self, key: tuple):
        """``(hit, value)`` — hit is False on a miss (value None)."""
        if self.capacity and key in self._entries:
            self._entries.move_to_end(key)
            self.hits += 1
            self._accesses[key] = self._accesses.get(key, 0) + 1
            return True, self._entries[key]
        self.misses += 1
        return False, None

    def put(self, key: tuple, value) -> None:
        if not self.capacity:
            return
        if key not in self._accesses:
            self._accesses[key] = 1    # the miss that computed it
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            evicted, _ = self._entries.popitem(last=False)
            self._accesses.pop(evicted, None)
            self.evictions += 1

    def hottest(self, token: int, limit: int) -> list[tuple]:
        """The most-used live ``(op, args)`` pairs under one snapshot
        token, hottest first (ties broken most-recently-used first).

        This is the admission signal for cache prewarming: when a new
        epoch's snapshot is captured, the previous epoch's hottest
        queries are the ones a steady dashboard will ask again.
        """
        token = int(token)
        # reversed() walks most-recent first; the sort is stable, so
        # equal access counts keep that recency order.
        candidates = [key for key in reversed(self._entries)
                      if key[0] == token]
        candidates.sort(key=lambda key: -self._accesses.get(key, 0))
        return [(key[2], key[3]) for key in candidates[:max(0, limit)]]

    def clear(self) -> None:
        self._entries.clear()
        self._accesses.clear()


@dataclass
class ServiceStats:
    """Running counters a :class:`~repro.service.service.QueryService`
    exposes — cache effectiveness, latency split, ingest load and the
    autoscaler's actions, all in one report."""

    queries: int = 0               # total query() calls answered
    cache_hits: int = 0
    cache_misses: int = 0          # cacheable queries that computed
    uncacheable: int = 0           # ops that can never cache (inner)
    evictions: int = 0
    query_seconds: float = 0.0     # time spent computing (misses only)
    hit_seconds: float = 0.0       # time spent serving hits
    ingest_calls: int = 0
    ingest_updates: int = 0
    ingest_seconds: float = 0.0
    snapshots_captured: int = 0
    prewarmed: int = 0             # results precomputed at refresh time
    prewarm_seconds: float = 0.0
    reshards: int = 0
    shm_fallbacks: int = 0         # shm-transport chunks that rode pickle
    errors: int = 0                # failed requests / poisoned ingests
    degraded_queries: int = 0      # queries served from a stale snapshot
    recoveries: int = 0            # pipelines rebuilt from a snapshot
    worker_restarts: int = 0       # supervised worker heals (cumulative)
    per_op: dict = field(default_factory=dict)   # op -> count

    def record_query(self, op: str, seconds: float, cached: bool,
                     cacheable: bool = True) -> None:
        self.queries += 1
        self.per_op[op] = self.per_op.get(op, 0) + 1
        if not cacheable:
            self.uncacheable += 1
            self.query_seconds += seconds
        elif cached:
            self.cache_hits += 1
            self.hit_seconds += seconds
        else:
            self.cache_misses += 1
            self.query_seconds += seconds

    def record_ingest(self, updates: int, seconds: float) -> None:
        self.ingest_calls += 1
        self.ingest_updates += int(updates)
        self.ingest_seconds += seconds

    @property
    def hit_rate(self) -> float:
        """Hits over cacheable queries (0.0 when none ran)."""
        cacheable = self.cache_hits + self.cache_misses
        return self.cache_hits / cacheable if cacheable else 0.0

    @property
    def ingest_rate(self) -> float:
        """Updates per second of ingest wall time (0.0 when idle)."""
        return (self.ingest_updates / self.ingest_seconds
                if self.ingest_seconds > 0 else 0.0)

    def snapshot(self) -> "ServiceStats":
        """A consistent point-in-time copy.

        The live object keeps mutating while the service serves;
        anything that serializes or iterates the counters (the
        daemon's ``stats`` op, a dashboard diffing two reads) must
        work from a copy, not the mutable original — ``per_op`` is
        duplicated so the copy cannot change mid-read either.
        """
        return replace(self, per_op=dict(self.per_op))

    def to_dict(self) -> dict:
        """A JSON-able flat view (for benches, CLIs and dashboards):
        every counter plus the derived ``hit_rate``/``ingest_rate``."""
        return {
            "queries": self.queries,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "uncacheable": self.uncacheable,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
            "query_seconds": self.query_seconds,
            "hit_seconds": self.hit_seconds,
            "ingest_calls": self.ingest_calls,
            "ingest_updates": self.ingest_updates,
            "ingest_seconds": self.ingest_seconds,
            "ingest_rate": self.ingest_rate,
            "snapshots_captured": self.snapshots_captured,
            "prewarmed": self.prewarmed,
            "prewarm_seconds": self.prewarm_seconds,
            "reshards": self.reshards,
            "shm_fallbacks": self.shm_fallbacks,
            "errors": self.errors,
            "degraded_queries": self.degraded_queries,
            "recoveries": self.recoveries,
            "worker_restarts": self.worker_restarts,
            "per_op": dict(self.per_op),
        }


def timer() -> float:
    """The service's default clock (separable for deterministic tests)."""
    # repro-lint: disable=R001 -- this is the injectable wall clock for
    # *metrics only*; no sketch or snapshot state ever depends on it,
    # and deterministic tests swap it out wholesale.
    return time.perf_counter()
