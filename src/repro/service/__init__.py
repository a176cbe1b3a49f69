"""Snapshot-isolated query serving over the sharded engine.

The engine (``repro.engine``) gives the stream a write path — shard,
ingest, checkpoint, reshard.  This package gives it the read path: a
:class:`QueryService` that answers a small query algebra
(``heavy_hitters``, ``duplicates``, ``sample_l0``/``sample_lp``,
``norm``, ``point``, ``top``, ``inner``, ``moment``, ``recover``,
``support``) from **epoch-versioned immutable snapshots**, so heavy
query traffic runs concurrently with ingestion under well-defined
consistency:

* every answer is stamped with an epoch = ``updates_ingested`` at
  snapshot capture, and equals the answer an offline pipeline stopped
  at that epoch would give;
* queries never block writers (capture is a merged clone, itself a
  barrier; queries run against the frozen clone);
* repeated queries are cheap: results are cached keyed by
  ``(epoch, op, args)``, which snapshot immutability makes provably
  safe;
* capability gaps fail loudly (:class:`UnsupportedQuery` names the
  type and the op);
* sustained ingest load reshards the pipeline automatically
  (:class:`WatermarkPolicy`).

>>> from repro.engine import ShardedPipeline
>>> from repro.service import QueryService
>>> from repro.apps.heavy_hitters import CountMedianHeavyHitters
>>> pipe = ShardedPipeline(lambda: CountMedianHeavyHitters(1 << 12,
...                                                        phi=0.1),
...                        shards=4)
>>> with QueryService(pipe, refresh_every=10_000) as service:
...     _ = service.ingest([1, 2, 1], [5, 1, 7])
...     hot = service.query("heavy_hitters")
...     again = service.query("heavy_hitters")   # cache hit, same epoch
"""

from ..engine.registry import (QueryCapability, UnsupportedQuery,
                               query_algebra, query_capabilities,
                               query_capability, register_query)
from .autoscale import LoadMonitor, WatermarkPolicy
from .cache import ResultCache, ServiceStats
from .router import QueryRouter
from .service import QueryService, ServiceDegraded
from .snapshot import Snapshot, SnapshotManager

__all__ = [
    "LoadMonitor", "QueryCapability", "QueryRouter", "QueryService",
    "ResultCache", "ServiceDegraded", "ServiceStats", "Snapshot",
    "SnapshotManager",
    "UnsupportedQuery", "WatermarkPolicy", "query_algebra",
    "query_capabilities", "query_capability", "register_query",
]
