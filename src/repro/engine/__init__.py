"""The sharded streaming engine: partition, merge, checkpoint, resume.

Everything in this library is a linear sketch, so shard-and-merge
parallelism and snapshot/restore are theoretically free; this package
makes them operational:

* :class:`ShardedPipeline` — chunked multi-shard ingestion of turnstile
  streams with a binary merge tree producing one query-able structure,
  executing serially in-process or on one worker process per shard
  (``backend="process"``; see :mod:`repro.engine.workers`);
* :func:`checkpoint` / :func:`restore` — universal, versioned
  snapshot/restore for every registered sketch, sampler and app
  wrapper (mid-stream, resumable, deterministic);
* :func:`clone`, :func:`merge_into`, :func:`map_mismatches` — the
  shard-reconciliation primitives the pipeline is built from;
* :func:`registered_types` — the registry (importing this package
  registers every built-in structure).

>>> from repro.engine import ShardedPipeline
>>> from repro.core import L0Sampler
>>> pipe = ShardedPipeline(lambda: L0Sampler(1 << 12, seed=7), shards=4)
>>> _ = pipe.ingest([1, 2, 3], [5, -1, 2])
>>> blob = pipe.checkpoint()            # snapshot mid-stream ...
>>> pipe = ShardedPipeline.restore(blob)  # ... resume elsewhere
>>> result = pipe.merged().sample()
"""

from .checkpoint import (FORMAT_VERSION, EngineSpec, IncompatibleShards,
                         StaleCheckpoint, checkpoint, clone, fresh_twin,
                         is_exact, is_registered, is_shardable,
                         map_mismatches, merge_into, params_of,
                         registered_types, register_linear_sketch,
                         register_spec, restore, state_arrays)
from .delta import (DeltaError, OutOfOrderDelta, WrongBaseDelta,
                    state_digest)
from .follower import FollowerPipeline
from .pipeline import DELTA_BASE_RETENTION, ShardedPipeline
from .workers import (BACKENDS, ProcessPool, RestartPolicy, SerialPool,
                      Supervisor, WorkerCrashed, WorkerPool, build_pool)

from . import registry as _registry  # noqa: F401  (fills the registry)
from .registry import (QueryCapability, UnsupportedQuery, audit,
                       query_algebra, query_capabilities, query_capability,
                       register_query)

__all__ = [
    "BACKENDS", "DELTA_BASE_RETENTION", "DeltaError", "FORMAT_VERSION",
    "EngineSpec", "FollowerPipeline", "IncompatibleShards",
    "OutOfOrderDelta", "ProcessPool", "QueryCapability", "RestartPolicy",
    "SerialPool", "StaleCheckpoint", "Supervisor", "UnsupportedQuery",
    "WorkerCrashed", "WorkerPool", "WrongBaseDelta", "build_pool", "audit",
    "checkpoint", "clone", "fresh_twin", "is_exact", "is_registered",
    "is_shardable", "map_mismatches", "merge_into", "params_of",
    "query_algebra", "query_capabilities", "query_capability",
    "registered_types", "register_linear_sketch", "register_query",
    "register_spec", "restore", "state_arrays", "state_digest",
    "ShardedPipeline",
]
