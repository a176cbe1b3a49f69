"""Sharded ingestion of turnstile streams with merge-tree reconciliation.

The paper's structures are all linear sketches, so shard-and-merge
parallelism is theoretically free: partition the update stream across
``K`` identically-seeded shard instances, let each absorb its share,
and add the states back together — linearity guarantees the merged
state sketches the full vector.  :class:`ShardedPipeline` makes that
operational:

* **Partitioning.**  ``hash`` (default) routes each coordinate to a
  fixed shard via a Fibonacci-mix of the index — deterministic,
  stateless, and immune to adversarial index clustering; or
  ``round_robin`` assigns whole chunks to shards cyclically (better
  cache behaviour for pre-batched feeds).
* **Execution backends.**  ``backend="serial"`` runs every shard in
  this process (the reference semantics); ``backend="process"`` gives
  each shard its own worker process fed over a bounded queue, so
  ingestion overlaps across shards on real cores.  Both backends share
  routing, chunking and the checkpoint wire format — a blob written by
  one restores under the other.  See :mod:`repro.engine.workers`.
* **Chunked driving.**  Ingestion walks the stream in ``chunk_size``
  slices and fans each slice out through the shards' vectorised
  ``update_many`` — the same fast path every sketch already optimises.
* **Merging.**  ``merged()`` folds shard states with a binary merge
  tree (`O(log K)` depth, the distributed-reduce shape), returning a
  single query-able structure.  Shard compatibility is validated by
  the engine; mismatched maps raise
  :class:`~repro.engine.checkpoint.IncompatibleShards`.
* **Elastic resharding.**  :meth:`ShardedPipeline.reshard` moves a
  *running* pipeline to a new shard count (and optionally a new
  partition scheme) without replaying the stream: linearity lets the
  current states fold into one and re-seat next to fresh empty twins,
  so the merged result is unchanged while subsequent ingestion routes
  across the new K.  :meth:`ShardedPipeline.restore` accepts the same
  override (``shards=``), booting a checkpoint taken at one K straight
  into another.
* **Checkpoint/restore.**  ``checkpoint()`` snapshots every shard plus
  the pipeline's partition state; :meth:`ShardedPipeline.restore`
  rebuilds the pipeline mid-stream and ingestion continues
  deterministically (chunk boundaries and the round-robin cursor are
  part of the snapshot).  The header is validated field by field and
  the payload must frame exactly ``shards`` blobs with no trailing
  bytes — a tampered or truncated blob raises instead of restoring a
  lying pipeline.

Lifecycle: pipelines are context managers.  ``close()`` shuts worker
processes down gracefully; a worker crash surfaces as
:class:`~repro.engine.workers.WorkerCrashed` on the next operation
(never a hang), and a crashed pipeline refuses to checkpoint, so
checkpoints stay honest.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..wire import (KIND_PIPELINE, WireError, decode_frame, encode_frame,
                    peek_header)
from .checkpoint import (FORMAT_VERSION, IncompatibleShards, StaleCheckpoint,
                         _load_state, build_twin,
                         checkpoint as snapshot, clone, fresh_twin,
                         map_mismatches, merge_into, params_of,
                         restore as restore_blob, spec_for, state_arrays)
from .delta import (DeltaError, OutOfOrderDelta,
                    apply as apply_delta, decode as decode_delta,
                    encode as encode_delta)
from .workers import BACKENDS, ProcessPool, build_pool

#: How many epochs of delta bases a pipeline retains for
#: ``checkpoint(since=...)``.  Each base is one merged state's worth of
#: memory; the ring evicts oldest-first.
DELTA_BASE_RETENTION = 8

#: Fibonacci hashing multiplier (2^64 / golden ratio, odd).
_MIX = np.uint64(0x9E3779B97F4A7C15)

_PARTITIONS = ("hash", "round_robin")

_I64_MAX = np.iinfo(np.int64).max


def _mix_coordinates(indices: np.ndarray) -> np.ndarray:
    """A cheap deterministic 64-bit mix so shard routing is unclustered."""
    mixed = indices.astype(np.uint64) * _MIX
    return mixed >> np.uint64(33)


def _as_int64(values, what: str, integral_only: bool = False) -> np.ndarray:
    """``asarray`` + int64 cast that refuses to wrap out-of-range input.

    ``np.uint64`` values >= 2^63 pass a ``kind in 'iu'`` check and then
    silently wrap negative under ``astype(np.int64)``; floats at or
    above 2^63 do the same (the comparison must be a strict ``< 2^63``
    — ``<= iinfo.max`` promotes the bound to float64 2^63 and lets the
    wrapping value through).  Both would corrupt the stream, so detect
    and raise.  With ``integral_only`` fractional values are rejected
    too (integral floats are a common producer artefact and allowed).
    """
    arr = np.asarray(values)
    if arr.dtype.kind == "u":
        if arr.size and int(arr.max()) > _I64_MAX:
            raise ValueError(
                f"{what} exceed int64 range (uint64 value "
                f"{int(arr.max())} would wrap negative)")
    elif arr.dtype.kind not in "ib":
        # The turnstile model is integer-valued; silently truncating
        # real deltas would diverge from the single-instance run.
        if integral_only and not np.all(np.mod(arr, 1) == 0):
            raise ValueError(f"turnstile {what} must be integral "
                             f"(got non-integer values)")
        if arr.dtype.kind == "f" and arr.size \
                and not np.all(np.abs(arr) < 2.0 ** 63):
            raise ValueError(f"{what} exceed int64 range")
    # A bare int (or 0-d array) passes every check above but cannot be
    # sliced by the chunk loop; promote it to a length-1 batch.
    return np.atleast_1d(arr.astype(np.int64))


def _header_int(header: dict, key: str, minimum: int) -> int:
    """A validated integer header field; anything else is corruption."""
    value = header.get(key)
    if not isinstance(value, int) or isinstance(value, bool) \
            or value < minimum:
        raise ValueError(
            f"corrupt pipeline checkpoint: {key}={value!r} "
            f"(expected an integer >= {minimum})")
    return value


def _fold_tree(structures: list, clone_targets: bool):
    """Fold shard states into one with a binary merge tree.

    ``O(log K)`` depth — the distributed-reduce shape.  With
    ``clone_targets`` the first level merges into clones so the input
    structures are never mutated (``merge_into`` never touches its
    source); without it the inputs are consumed as accumulators.
    """
    level = []
    for i in range(0, len(structures), 2):
        accumulator = clone(structures[i]) if clone_targets \
            else structures[i]
        if i + 1 < len(structures):
            merge_into(accumulator, structures[i + 1])
        level.append(accumulator)
    while len(level) > 1:
        paired = []
        for i in range(0, len(level) - 1, 2):
            merge_into(level[i], level[i + 1])
            paired.append(level[i])
        if len(level) % 2:
            paired.append(level[-1])
        level = paired
    return level[0]


def _seat_states(folded, shards: int) -> list:
    """The folded state plus ``shards - 1`` empty identically-seeded
    twins: by linearity this K'-shard layout merges back to exactly
    ``folded``, and subsequent routing distributes across all K'."""
    return [folded] + [fresh_twin(folded) for _ in range(shards - 1)]


def _proven(pool):
    """The pool, once a flush barrier proves every worker healthy —
    a worker that fails to restore its blob surfaces here, and the
    half-built pool is torn down before the error propagates.  (The
    serial backend's flush is a no-op: construction already ran.)"""
    try:
        pool.flush()
    except BaseException:
        pool.close()
        raise
    return pool


class ShardedPipeline:
    """Partition a turnstile stream across K shard structures.

    Parameters
    ----------
    factory:
        Zero-argument callable building one shard.  Every call must
        produce an identically-parameterised (same seed!) structure —
        shards must share their linear map to be mergeable; the
        constructor validates this via the engine registry.  The
        factory is only ever called in the constructing process, so it
        may be a closure even under ``backend="process"``.
    shards:
        The shard count K.
    partition:
        ``"hash"`` routes by coordinate (a coordinate's updates always
        land on the same shard), ``"round_robin"`` routes whole chunks
        cyclically.
    chunk_size:
        Slice length for chunked ingestion.
    backend:
        ``"serial"`` (in-process, default) or ``"process"`` (one
        worker process per shard).
    faults:
        A :class:`~repro.faults.FaultPlan` for deterministic fault
        injection (``None`` — the default — is inert).  An execution
        knob like ``backend``: never part of the checkpoint.
    restarts:
        A :class:`~repro.engine.workers.RestartPolicy` enabling
        supervised restart of crashed shard workers: the pool rebuilds
        the dead shard from its last per-shard checkpoint and replays
        the unacked chunk log, byte-identical to a crash-free run,
        before the crash ever reaches (and poisons) this pipeline.
        ``None`` keeps the crash-poisons semantics.
    """

    def __init__(self, factory, shards: int = 4, partition: str = "hash",
                 chunk_size: int = 4096, backend: str = "serial",
                 faults=None, restarts=None):
        if shards < 1:
            raise ValueError("need at least one shard")
        if partition not in _PARTITIONS:
            raise ValueError("partition must be 'hash' or 'round_robin'")
        if chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        if backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, not {backend!r}")
        self.partition = partition
        self.chunk_size = int(chunk_size)
        self.backend = backend
        self.faults = faults          # FaultPlan | None (execution knob)
        self.restart_policy = restarts  # RestartPolicy | None
        self.updates_ingested = 0
        self._cursor = 0  # next round-robin shard
        self._closed = False
        self._poisoned = False  # a chunk failed after partial fan-out
        self._merged_cache = None  # (epoch, folded) — see merged()
        self._delta_bases = OrderedDict()  # epoch -> merged state arrays
        self._restarts_base = 0       # carried across reshards
        built = [factory() for _ in range(int(shards))]
        self._validate_shards(built)
        self._shard_class = type(built[0])
        self._k = len(built)
        # Under "process" the workers restore from checkpoint blobs,
        # so the factory (often a closure) never crosses the boundary.
        self._pool = build_pool(backend, built, faults=self.faults,
                                policy=self.restart_policy)

    @staticmethod
    def _validate_shards(built: list) -> None:
        head = built[0]
        spec = spec_for(head)  # raises TypeError when unregistered
        if not spec.shardable:
            raise TypeError(
                f"{type(head).__name__} is not shardable: it consumes "
                f"item streams with a construction-time baseline, so K "
                f"shards would not partition one turnstile stream "
                f"(checkpoint/restore still applies)")
        if not hasattr(head, "update_many"):
            raise TypeError(f"{type(head).__name__} lacks update_many")
        for other in built[1:]:
            mismatches = map_mismatches(head, other)
            if mismatches:
                raise IncompatibleShards(
                    f"factory produced shards with different maps "
                    f"({'; '.join(mismatches)}); every call must return "
                    f"an identically-seeded structure")

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Shut the backend down; idempotent.  Process workers receive
        a stop message and are joined (terminated after a grace
        period).  Every subsequent operation raises."""
        if self._closed:
            return
        self._closed = True
        self._pool.close()

    def __enter__(self) -> "ShardedPipeline":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass

    def _require_open(self) -> None:
        if self._closed:
            raise RuntimeError("pipeline is closed")
        if self._poisoned:
            # Not just checkpoint(): merged() and shard_instances
            # would serve the same torn state, and further ingestion
            # could never un-tear it.
            raise RuntimeError(
                "pipeline state is inconsistent: a chunk failed while "
                "being applied (shards may hold part of it); restore "
                "a checkpoint taken before the failure")

    # -- introspection -------------------------------------------------------

    @property
    def shards(self) -> int:
        return self._k

    @property
    def shard_type(self) -> type:
        """The structure class every shard holds.  Stable across
        reshard/restore, and free to read: no worker round-trip, unlike
        peeking at :attr:`shard_instances` under the process backend."""
        return self._shard_class

    @property
    def shard_instances(self) -> list:
        """The shard structures: the live objects under the serial
        backend (read-only use intended), point-in-time snapshot
        copies under the process backend."""
        self._require_open()
        return self._pool.structures()

    @property
    def worker_restarts(self) -> int:
        """How many supervised worker restarts have healed this
        pipeline (0 without a :class:`RestartPolicy`).  Carried across
        :meth:`reshard`; surfaced in ``ServiceStats`` so self-healing
        is observable, not silent."""
        return self._restarts_base + self._pool.supervisor.restarts

    @property
    def healthy(self) -> bool:
        """False once this pipeline can no longer ingest: closed,
        poisoned by a failed chunk, or its pool recorded a fatal
        worker crash (which can also happen outside ingest — e.g. at a
        flush barrier).  The query service keys degraded serving off
        this."""
        return not (self._closed or self._poisoned
                    or self._pool.supervisor.fatal is not None)

    @property
    def delta_epochs(self) -> tuple:
        """Epochs (``updates_ingested`` values) with a retained delta
        base — the valid ``since=`` arguments to :meth:`checkpoint`."""
        return tuple(self._delta_bases)

    # -- ingestion -----------------------------------------------------------

    def ingest(self, indices, deltas) -> int:
        """Feed a batch of updates through the partition; returns count.

        The batch is walked in ``chunk_size`` slices; each slice is
        routed to shards and applied via their vectorised
        ``update_many``.  ``updates_ingested`` advances per chunk, as
        each chunk is handed to the backend — if a chunk raises
        mid-batch, the counter stops at the last completed chunk
        boundary instead of claiming the whole batch, and the
        pipeline is poisoned: a failed chunk may have partially
        mutated a shard (``update_many`` is not atomic) or reached
        only some shards of a hash fan-out, so ``checkpoint()``
        refuses rather than snapshot state that could misrepresent
        what was ingested.  Checkpoints taken *before* the failure
        remain valid resume points.

        Integer/modular-state structures are insensitive to the
        slicing; for float-state structures a checkpoint/resume run
        reproduces the uninterrupted run byte-for-byte when ingestion
        batches split at ``chunk_size`` boundaries (each ``ingest``
        call starts a fresh chunk).
        """
        self._require_open()
        idx = _as_int64(indices, "indices", integral_only=True)
        dlt = _as_int64(deltas, "deltas", integral_only=True)
        if idx.shape != dlt.shape:
            raise ValueError("indices and deltas must have equal length")
        for start in range(0, idx.size, self.chunk_size):
            stop = min(start + self.chunk_size, idx.size)
            self._ingest_chunk(idx[start:stop], dlt[start:stop])
            self.updates_ingested += stop - start
        return int(idx.size)

    def ingest_stream(self, stream) -> int:
        """Feed an :class:`~repro.streams.model.UpdateStream`, pulling
        its :meth:`~repro.streams.model.UpdateStream.chunks` directly."""
        self._require_open()
        total = 0
        for indices, deltas in stream.chunks(self.chunk_size):
            self._ingest_chunk(indices, deltas)
            self.updates_ingested += int(indices.size)
            total += int(indices.size)
        return total

    def flush(self) -> None:
        """Block until every routed chunk has been applied.

        A no-op under the serial backend; under the process backend a
        barrier across all workers (also the point where a worker
        crash surfaces if one happened mid-ingest)."""
        self._require_open()
        self._pool.flush()

    def _ingest_chunk(self, idx: np.ndarray, dlt: np.ndarray) -> None:
        k = self._k
        try:
            if k == 1:
                self._pool.submit(0, idx, dlt)
                return
            if self.partition == "round_robin":
                self._pool.submit(self._cursor, idx, dlt)
                self._cursor = (self._cursor + 1) % k  # only on success
                return
            routes = _mix_coordinates(idx) % np.uint64(k)
            for s in range(k):
                mask = routes == s
                if mask.any():
                    self._pool.submit(s, idx[mask], dlt[mask])
        except BaseException:
            # A failed submit may have mutated a shard partway
            # (``update_many`` applies row by row and is not atomic)
            # or reached only some shards of a hash fan-out; either
            # way no checkpoint may be taken of that state.
            self._poisoned = True
            raise

    # -- reconciliation ------------------------------------------------------

    def merged(self):
        """One query-able structure equal to the single-instance run.

        Folds the shard states with a binary merge tree.  Under the
        serial backend only the merge targets are cloned
        (``merge_into`` never mutates its source), so the pipeline
        stays usable and ceil(K/2) state copies suffice; the process
        backend folds the workers' snapshot copies in place.  For
        integer/modular-state structures the result is byte-identical
        to feeding the whole stream into one instance; float-state
        structures agree up to reassociation ulps (see
        :mod:`repro.engine.registry`).

        The fold is memoized per epoch: repeated calls at the same
        ``updates_ingested`` reuse one fold (under the process backend
        that also skips the per-shard snapshot IPC) and each call
        returns an independent clone, so mutating one result — say,
        ingesting into it — never leaks into the next.  Ingestion and
        :meth:`reshard` invalidate the memo; the retained fold costs
        one extra structure's worth of memory.  A clone derives no
        hash function: it deep-copies the map's memoized prototype,
        sharing its immutable hashes, and copies the state in (see
        :func:`~repro.engine.checkpoint.build_twin`), so its cost is
        the state copy plus the structure's Python objects.
        """
        self._require_open()
        return clone(self._folded())

    def _folded(self) -> object:
        """The epoch-memoized fold itself (callers must clone before
        mutating; checkpoint paths only read its state arrays)."""
        cached = self._merged_cache
        if cached is None or cached[0] != self.updates_ingested:
            folded = _fold_tree(self._pool.structures(),
                                clone_targets=self._pool.shares_state)
            cached = (self.updates_ingested, folded)
            self._merged_cache = cached
        return cached[1]

    # -- elastic resharding --------------------------------------------------

    def reshard(self, new_shards: int, *,
                partition: str | None = None) -> "ShardedPipeline":
        """Re-partition the live pipeline onto ``new_shards`` shards.

        Exploits linearity: the current shard states are folded with
        the merge tree, the worker pool is rebuilt at the new K with
        identically-seeded fresh instances (empty twins built from the
        registry, so a restored pipeline without its factory reshards
        too), and the folded state is seated into shard 0 — the new
        layout's :meth:`merged` result is byte-identical to the
        pre-reshard pipeline for integer/modular-state structures
        (adding an all-zero twin is exact) and ulp-close for
        float-state ones.  Subsequent :meth:`ingest` calls route under
        the new K; ``updates_ingested`` carries over and the
        round-robin cursor restarts at shard 0 (the old rotation is
        meaningless at a different K).

        Under ``backend="process"`` the old workers are drained with a
        flush barrier before their states are folded, the new workers
        are spawned from the seated states as checkpoint blobs (the
        ordinary wire format) and proven healthy with a flush before
        the old pool is torn down — a failure while spawning leaves
        the pipeline running on its old topology.

        ``partition`` optionally switches the routing scheme in the
        same step (growing K is a natural moment to move from
        round-robin to hash, say).  Returns ``self`` so a reshard can
        be chained into an ingest pipeline.
        """
        self._require_open()
        new_k = int(new_shards)
        if new_k < 1:
            raise ValueError("need at least one shard")
        if partition is None:
            partition = self.partition
        elif partition not in _PARTITIONS:
            raise ValueError("partition must be 'hash' or 'round_robin'")
        self._pool.flush()     # drain in-flight chunks (and surface crashes)
        folded = _fold_tree(self._pool.structures(),
                            clone_targets=self._pool.shares_state)
        new_pool = _proven(build_pool(self.backend,
                                      _seat_states(folded, new_k),
                                      faults=self.faults,
                                      policy=self.restart_policy))
        old_pool, self._pool = self._pool, new_pool
        self._restarts_base += old_pool.supervisor.restarts
        self._k = new_k
        self.partition = partition
        self._cursor = 0
        # The reshard fold was *seated* into the new pool (shard 0 is
        # that very object under the serial backend), so it cannot
        # double as the merged() memo — subsequent ingestion would
        # mutate it.  Drop the memo instead.
        self._merged_cache = None
        old_pool.close()
        return self

    # -- checkpoint / restore ------------------------------------------------

    def checkpoint(self, since: int | None = None,
                   compress: str | None = None) -> bytes:
        """Snapshot the pipeline as a wire frame — full or delta.

        With ``since=None`` (default) the frame is a full
        ``KIND_PIPELINE`` checkpoint (backend-agnostic; see README
        "Wire format & replication"): the JSON header carries
        ``format``, ``partition``, ``chunk_size``, ``cursor``,
        ``updates_ingested`` and ``shards``, and each section is one
        shard's own ``KIND_STRUCTURE`` frame.

        With ``since=E`` the frame is a ``KIND_DELTA`` checkpoint:
        only the difference between the merged state at epoch ``E``
        (``updates_ingested`` value) and the merged state now.
        Sketches are linear, so that difference *is* a sketch of the
        interim stream.  A base is retained every time
        :meth:`checkpoint` runs (the newest
        ``DELTA_BASE_RETENTION`` epochs; see :attr:`delta_epochs`),
        so the natural cadence is one full checkpoint followed by
        deltas chained epoch to epoch.  Restore the chain with
        ``restore(base, deltas=[...])`` — the result is byte-identical
        to the equivalent full checkpoint's merged state.

        ``compress`` selects per-section zlib (``"none"``/``"zlib"``);
        it defaults to ``"none"`` for full checkpoints and ``"zlib"``
        for deltas, whose payloads are mostly zeros.
        """
        self._require_open()
        if since is None:
            blobs = self._pool.snapshots()
            header = {
                "format": FORMAT_VERSION,
                "partition": self.partition,
                "chunk_size": self.chunk_size,
                "cursor": self._cursor,
                "updates_ingested": self.updates_ingested,
                "shards": len(blobs),
            }
            sections = [np.frombuffer(blob, dtype=np.uint8)
                        for blob in blobs]
            frame = encode_frame(
                KIND_PIPELINE, header, sections,
                compress="none" if compress is None else compress)
            self._remember_base()
            return frame
        base_epoch = int(since)
        base = self._delta_bases.get(base_epoch)
        if base is None:
            raise ValueError(
                f"no delta base retained for epoch {base_epoch}; "
                f"retained epochs: {list(self._delta_bases)} (every "
                f"checkpoint() call retains its epoch, newest "
                f"{DELTA_BASE_RETENTION} kept)")
        folded = self._folded()
        meta = {
            "format": FORMAT_VERSION,
            "class": type(folded).__name__,
            "params": params_of(folded),
            "base_epoch": base_epoch,
            "epoch": self.updates_ingested,
        }
        frame = encode_delta(
            meta, base, state_arrays(folded),
            compress="zlib" if compress is None else compress)
        self._remember_base()
        return frame

    def _remember_base(self) -> None:
        """Retain the current merged state as a future delta base."""
        arrays = [np.array(a, copy=True)
                  for a in state_arrays(self._folded())]
        epoch = self.updates_ingested
        self._delta_bases[epoch] = arrays
        self._delta_bases.move_to_end(epoch)
        while len(self._delta_bases) > DELTA_BASE_RETENTION:
            self._delta_bases.popitem(last=False)

    @classmethod
    def restore(cls, data: bytes, backend: str = "serial",
                shards: int | None = None, deltas=(), faults=None,
                restarts=None) -> "ShardedPipeline":
        """Rebuild a pipeline from :meth:`checkpoint`; resume ingesting.

        The header is fully validated (unknown partition, nonsense
        chunk size, negative counters, a cursor out of range for the
        checkpointed K and a shard count that does not match the
        framed payload all raise ``ValueError``) and the frame must
        end exactly at the last shard section — trailing garbage is
        rejected rather than silently ignored.  ``backend`` chooses
        where the restored shards execute — an execution choice, not
        part of the wire format: a blob written under one backend
        restores under the other.  ``faults`` / ``restarts`` attach a
        fault plan and a supervised restart policy to the restored
        pipeline — execution knobs like the backend, never part of
        the blob.

        ``shards`` optionally restores onto a *different* shard count
        than the checkpoint was taken at: the checkpointed states are
        folded with the merge tree and re-seated exactly as
        :meth:`reshard` does, so a blob written at K=4 boots straight
        into a K=8 (or K=1) pipeline whose merged state is
        byte-identical for integer/modular-state structures.  The
        full header (including the original cursor) is validated
        against the checkpointed K first; after a cross-K restore the
        round-robin cursor restarts at shard 0.  Cross-K restore folds
        all checkpointed states in the restoring process even under
        ``backend="process"``.

        ``deltas`` is an ordered chain of ``KIND_DELTA`` frames from
        ``checkpoint(since=...)``: the checkpointed states are folded,
        each delta is applied in order (epochs and state digests are
        verified — :class:`~repro.engine.delta.OutOfOrderDelta` /
        :class:`~repro.engine.delta.WrongBaseDelta` on violation) and
        the advanced state is re-seated like a cross-K restore.  The
        merged state is byte-identical to the full checkpoint taken
        at the last delta's epoch, and ``updates_ingested`` lands
        there too.
        """
        header, blobs = _parse_wire_pipeline(bytes(data))
        partition = header.get("partition")
        if partition not in _PARTITIONS:
            raise ValueError(
                f"corrupt pipeline checkpoint: unknown partition "
                f"{partition!r} (expected one of {_PARTITIONS})")
        chunk_size = _header_int(header, "chunk_size", minimum=1)
        updates_ingested = _header_int(header, "updates_ingested",
                                       minimum=0)
        declared = _header_int(header, "shards", minimum=1)
        cursor = _header_int(header, "cursor", minimum=0)
        if cursor >= declared:
            raise ValueError(f"corrupt pipeline checkpoint: cursor "
                             f"{cursor} out of range for "
                             f"{declared} shards")
        if len(blobs) != declared:
            raise ValueError(
                f"corrupt pipeline checkpoint: header declares "
                f"{declared} shards but the frame carries "
                f"{len(blobs)} shard sections")
        if backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, not {backend!r}")
        delta_blobs = [bytes(blob) for blob in deltas]
        if shards is not None and int(shards) != declared:
            new_k = int(shards)
            if new_k < 1:
                raise ValueError("need at least one shard")
        else:
            new_k = None
        if new_k is None and backend == "process" and not delta_blobs:
            # Workers restore their own blobs, so the parent never
            # needs all K states in memory: restore only the head
            # shard for the registry checks, compare the other blobs'
            # headers (same class + params == same linear map), and
            # let the flush barrier surface any blob a worker fails
            # to restore — still an error at restore time, not a hang
            # at the first ingest.
            head = restore_blob(blobs[0])
            cls._validate_shards([head])
            shard_class = type(head)
            head_class, head_params = _shard_blob_signature(blobs[0], 0)
            for i, blob in enumerate(blobs[1:], 1):
                blob_class, blob_params = _shard_blob_signature(blob, i)
                if (blob_class, blob_params) != (head_class, head_params):
                    raise IncompatibleShards(
                        f"shard blob {i} ({blob_class}, {blob_params}) "
                        f"does not share shard 0's map "
                        f"({head_class}, {head_params})")
            pool = _proven(ProcessPool(blobs, faults=faults,
                                       policy=restarts))
        else:
            states = [restore_blob(blob) for blob in blobs]
            cls._validate_shards(states)
            shard_class = type(states[0])
            if delta_blobs:
                # Fold the checkpointed states to the merged arrays
                # the deltas were encoded against, advance through
                # the chain, then seat the result exactly as a
                # cross-K restore would.
                folded = _fold_tree(states, clone_targets=False)
                arrays, updates_ingested = _apply_delta_chain(
                    folded, updates_ingested, delta_blobs)
                twin = build_twin(type(folded).__name__,
                                  params_of(folded))
                _load_state(twin, arrays)
                states = _seat_states(
                    twin, new_k if new_k is not None else declared)
                declared = len(states)
                cursor = 0
            elif new_k is not None:
                # Cross-K restore: fold the checkpointed states and
                # seat them at the requested K, exactly as reshard()
                # does on a live pipeline.  The header above was
                # already validated against the *checkpointed*
                # topology (cursor < declared), so a corrupt blob
                # cannot hide behind the override.
                states = _seat_states(
                    _fold_tree(states, clone_targets=False), new_k)
                declared = new_k
                cursor = 0     # the old rotation is meaningless at new K
            pool = _proven(build_pool(backend, states, faults=faults,
                                      policy=restarts))
        pipeline = cls.__new__(cls)
        pipeline.partition = partition
        pipeline.chunk_size = chunk_size
        pipeline.backend = backend
        pipeline.faults = faults
        pipeline.restart_policy = restarts
        pipeline.updates_ingested = updates_ingested
        pipeline._cursor = cursor
        pipeline._closed = False
        pipeline._poisoned = False
        pipeline._merged_cache = None
        pipeline._delta_bases = OrderedDict()
        pipeline._restarts_base = 0
        pipeline._shard_class = shard_class
        pipeline._k = declared
        pipeline._pool = pool
        return pipeline


def _parse_wire_pipeline(data: bytes) -> tuple:
    """(header, shard blobs) from a ``KIND_PIPELINE`` wire frame."""
    try:
        frame = decode_frame(data, expect_kind=KIND_PIPELINE)
    except WireError as exc:
        raise ValueError(f"not a pipeline checkpoint: {exc}") from exc
    header = frame.header
    if header.get("format") != FORMAT_VERSION:
        raise StaleCheckpoint(
            f"pipeline checkpoint format {header.get('format')!r} is "
            f"not supported (this build reads {FORMAT_VERSION})")
    blobs = []
    for i, section in enumerate(frame.sections):
        if section.dtype != np.uint8 or section.ndim != 1:
            raise ValueError(
                f"corrupt pipeline checkpoint: shard section {i} is "
                f"{section.dtype} ndim={section.ndim}, expected a "
                f"flat u1 blob")
        blobs.append(section.tobytes())
    return header, blobs


def _apply_delta_chain(folded, epoch: int, delta_blobs: list) -> tuple:
    """Advance ``folded``'s state arrays through an ordered delta
    chain; returns ``(arrays, final epoch)``."""
    arrays = state_arrays(folded)
    class_name = type(folded).__name__
    params = params_of(folded)
    for index, blob in enumerate(delta_blobs):
        header, _ = decode_delta(blob)
        if header.get("class") != class_name \
                or header.get("params") != params:
            raise DeltaError(
                f"delta {index} describes "
                f"{header.get('class')!r} with parameters "
                f"{header.get('params')!r}; the base pipeline holds "
                f"{class_name!r} with {params!r}")
        if header.get("base_epoch") != epoch:
            raise OutOfOrderDelta(
                f"delta {index} starts at epoch "
                f"{header.get('base_epoch')!r} but the chain is at "
                f"epoch {epoch} (deltas must be applied in order, "
                f"each starting where the previous ended)")
        header, arrays = apply_delta(arrays, blob)
        epoch = header["epoch"]
    return arrays, epoch


def _shard_blob_signature(blob: bytes, index: int) -> tuple:
    """(class, params) from a structure blob's header — the two
    fields that determine its linear map — without restoring state."""
    try:
        _, header = peek_header(bytes(blob))
        return header["class"], header["params"]
    except Exception as exc:
        raise ValueError(
            f"corrupt pipeline checkpoint: shard blob {index} has an "
            f"unreadable header ({exc})") from exc


