"""Dispatching the query algebra against snapshots.

:class:`QueryRouter` is deliberately thin: the per-type capability
table lives in :mod:`repro.engine.registry` (next to the
checkpoint/merge registry it mirrors), and the router adds the three
serving concerns on top of raw dispatch:

1. **Loud capability gaps** — an op the snapshot's type does not
   support raises :class:`~repro.engine.registry.UnsupportedQuery`
   naming the type, the op and what *is* supported;
2. **Snapshot frozenness** — every capability only reads the
   snapshot (an L0 draw uses a copy of the choice generator), so its
   bytes never change and a draw sequence at epoch E is reproducible;
3. **Caching** — cacheable results are looked up/stored in an
   epoch-keyed :class:`~repro.service.cache.ResultCache`, with the
   hit/miss/latency accounting recorded into a
   :class:`~repro.service.cache.ServiceStats`.
"""

from __future__ import annotations

from ..engine.registry import (UnsupportedQuery, query_capabilities,
                               query_capability)
from .cache import ResultCache, ServiceStats, timer as default_timer


class QueryRouter:
    """Route named queries to a snapshot's structure.

    Parameters
    ----------
    cache:
        A :class:`ResultCache` (pass capacity 0 to disable), or None
        for a fresh default-sized one.
    stats:
        The :class:`ServiceStats` to record into (fresh if None).
    timer:
        Monotonic clock, injectable for deterministic tests.
    """

    def __init__(self, cache: ResultCache | None = None,
                 stats: ServiceStats | None = None, timer=default_timer):
        self.cache = ResultCache() if cache is None else cache
        self.stats = ServiceStats() if stats is None else stats
        self._timer = timer

    def operations(self, snapshot) -> dict[str, str]:
        """op name -> one-line doc for this snapshot's type."""
        return {op: capability.doc for op, capability
                in sorted(query_capabilities(snapshot.structure).items())}

    def query(self, snapshot, op: str, **args):
        """Answer ``op(**args)`` from the snapshot's frozen state.

        Raises :class:`UnsupportedQuery` when the type lacks the op,
        and whatever the capability's own validation raises on bad
        arguments.  Cache hits return the stored object (shared —
        treat results as read-only).
        """
        capability = query_capability(snapshot.structure, op)
        key = None
        if capability.cacheable:
            key = self.cache.key(snapshot.cache_token, snapshot.epoch,
                                 op, args)
            start = self._timer()
            hit, value = self.cache.get(key)
            if hit:
                self.stats.record_query(op, self._timer() - start,
                                        cached=True)
                return value
        start = self._timer()
        result = capability.run(snapshot.structure, dict(args))
        elapsed = self._timer() - start
        self.stats.record_query(op, elapsed, cached=False,
                                cacheable=capability.cacheable)
        if key is not None:
            evictions_before = self.cache.evictions
            self.cache.put(key, result)
            self.stats.evictions += self.cache.evictions - evictions_before
        return result

    def prewarm(self, snapshot, from_token: int, limit: int = 8) -> int:
        """Cache admission: precompute the new snapshot's answers for
        the previous epoch's hottest queries.

        Called when a refresh captures ``snapshot``: the queries most
        used under the old snapshot (``from_token``) are exactly what
        a steady dashboard asks again, so computing them now converts
        the first post-refresh round from misses into hits.  Runs at
        most ``limit`` queries, skips ops the (possibly different)
        structure no longer supports and keys already present, and
        books the work under ``stats.prewarmed``/``prewarm_seconds``
        rather than the query counters — prewarming is the service
        spending its own time, not answering anyone.  Returns how many
        results were computed.
        """
        warmed = 0
        start = self._timer()
        evictions_before = self.cache.evictions
        for op, args in self.cache.hottest(from_token, limit):
            try:
                capability = query_capability(snapshot.structure, op)
            except UnsupportedQuery:
                continue
            if not capability.cacheable:
                continue
            key = self.cache.key(snapshot.cache_token, snapshot.epoch,
                                 op, dict(args))
            if self.cache.contains(key):
                continue
            self.cache.put(key, capability.run(snapshot.structure,
                                               dict(args)))
            warmed += 1
        self.stats.prewarmed += warmed
        self.stats.prewarm_seconds += self._timer() - start
        self.stats.evictions += self.cache.evictions - evictions_before
        return warmed


__all__ = ["QueryRouter", "UnsupportedQuery"]
