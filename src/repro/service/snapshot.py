"""Epoch-versioned immutable snapshots of a running pipeline.

The serving layer's consistency story rests on one object:
:class:`Snapshot`, a merged view of the stream that is *frozen* at a
well-defined point.  The epoch is ``pipeline.updates_ingested`` at
capture, and the captured structure is an independent clone (the
engine's :meth:`~repro.engine.pipeline.ShardedPipeline.merged` hands
out clones of its memoized fold), so

* readers never see a torn state: ``merged()`` is itself a barrier,
  so the clone reflects exactly the ``epoch`` updates the counter
  claims, even under the process backend where ingestion is
  asynchronous (see :meth:`Snapshot.capture`);
* readers never block writers: after the clone is taken, ingestion
  proceeds against the live shards while queries run against the
  frozen copy;
* answers are reproducible: a query at epoch E equals the same query
  on an offline pipeline stopped at E (byte-identically for
  integer/modular-state structures; up to reassociation ulps for the
  documented float-state ones).

:class:`SnapshotManager` layers the refresh policy on top: capture on
demand (``refresh()``) or automatically once ``refresh_every`` updates
have been ingested past the newest epoch, keeping the last ``keep``
epochs alive for time-travel queries.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict

from ..engine.checkpoint import restore as restore_structure
from ..engine.pipeline import ShardedPipeline
from ..wire import (KIND_PIPELINE, KIND_SKETCH, KIND_STRUCTURE, WireError,
                    peek_kind)

#: Process-unique snapshot tokens (see Snapshot.cache_token).
_TOKENS = itertools.count()


class Snapshot:
    """An immutable merged view of the stream at one epoch.

    Do not mutate the exposed :attr:`structure`.  Query ops only read
    it (an L0 draw uses a copy of the choice generator), so it stays
    byte-frozen — which makes result caching keyed by ``(epoch, query,
    args)`` provably safe.
    """

    __slots__ = ("_structure", "_epoch", "_source", "_token")

    def __init__(self, structure, epoch: int, source: str = "pipeline"):
        if epoch < 0:
            raise ValueError(f"epoch must be >= 0, not {epoch}")
        self._structure = structure
        self._epoch = int(epoch)
        self._source = str(source)
        self._token = next(_TOKENS)

    # -- construction --------------------------------------------------------

    @classmethod
    def capture(cls, pipeline: ShardedPipeline) -> "Snapshot":
        """Freeze a running pipeline's merged state.

        Under the process backend ``updates_ingested`` counts
        *submitted* chunks, and ``merged()`` is already the barrier
        that puts every one of them in the clone stamped with that
        epoch, so no ``flush()`` runs here:

        * a fresh fold pulls each worker's snapshot, and that reply
          queues FIFO behind every chunk submitted to the worker;
        * a memo hit at the same ``updates_ingested`` was pulled after
          the last submit;
        * the snapshot pull heals crashed workers and re-bases
          supervised shards, as a flush would.

        (Serial submission is application.)  The daemon still flushes
        every ingest itself, because with ``refresh_every > 1`` most
        ingests capture nothing.
        """
        return cls(pipeline.merged(), pipeline.updates_ingested,
                   source="pipeline")

    @classmethod
    def from_checkpoint(cls, blob: bytes,
                        epoch: int | None = None) -> "Snapshot":
        """Serve a checkpoint without a live pipeline.

        Accepts every checkpoint shape the wire layer produces: a
        *pipeline* frame (shard states folded here, epoch read from
        its header — passing ``epoch`` is rejected because the frame
        already carries the truth), a bare *structure* frame (e.g. a
        remote site's sketch, which carries no update counter —
        ``epoch`` defaults to 0), and a *sketch* frame from
        ``sketch.to_bytes()``.
        """
        blob = bytes(blob)
        try:
            kind = peek_kind(blob)
        except WireError as exc:
            raise ValueError(f"unreadable checkpoint: {exc}") from exc
        if kind == KIND_PIPELINE:
            return cls._from_pipeline_blob(blob, epoch)
        if kind == KIND_STRUCTURE:
            return cls(restore_structure(blob),
                       0 if epoch is None else int(epoch),
                       source="checkpoint")
        if kind == KIND_SKETCH:
            from ..sketch.serialize import from_bytes
            return cls(from_bytes(blob),
                       0 if epoch is None else int(epoch),
                       source="checkpoint")
        raise ValueError(
            f"cannot snapshot a frame of kind {kind} (deltas need "
            f"a base: restore the pipeline with deltas=, or feed "
            f"them to a FollowerPipeline)")

    @classmethod
    def _from_pipeline_blob(cls, blob: bytes,
                            epoch: int | None) -> "Snapshot":
        if epoch is not None:
            raise ValueError(
                "a pipeline checkpoint carries its own epoch "
                "(updates_ingested); do not pass one")
        with ShardedPipeline.restore(blob) as pipeline:
            return cls(pipeline.merged(), pipeline.updates_ingested,
                       source="checkpoint")

    # -- the frozen view -----------------------------------------------------

    @property
    def epoch(self) -> int:
        """``updates_ingested`` at capture time."""
        return self._epoch

    @property
    def structure(self):
        """The frozen merged structure (treat as read-only)."""
        return self._structure

    @property
    def source(self) -> str:
        """``"pipeline"`` or ``"checkpoint"``."""
        return self._source

    @property
    def cache_token(self) -> int:
        """A process-unique id distinguishing this snapshot in cache
        keys.  The epoch alone is not enough when one router serves
        snapshots from *different* streams (two checkpoint-booted
        snapshots both sit at epoch 0, say); the token makes the key
        ``(snapshot, op, args)`` in effect.  Re-querying the same
        retained snapshot still hits — the manager hands out the same
        object (same token) for an unchanged epoch."""
        return self._token

    @property
    def structure_type(self) -> str:
        return type(self._structure).__name__

    def __repr__(self) -> str:
        return (f"Snapshot({self.structure_type}, epoch={self._epoch}, "
                f"source={self._source})")


class SnapshotManager:
    """Capture policy + retention for a pipeline's snapshots.

    Parameters
    ----------
    pipeline:
        The live :class:`~repro.engine.pipeline.ShardedPipeline`.
    refresh_every:
        Auto-capture a new snapshot once this many updates have been
        ingested past the newest epoch (checked by :meth:`current`).
        ``None`` disables auto-refresh: snapshots advance only on
        explicit :meth:`refresh` calls.
    keep:
        How many distinct epochs stay queryable; older snapshots are
        dropped oldest-first.
    """

    def __init__(self, pipeline: ShardedPipeline,
                 refresh_every: int | None = None, keep: int = 4):
        if refresh_every is not None and int(refresh_every) < 1:
            raise ValueError(
                f"refresh_every must be >= 1 (or None to disable "
                f"auto-refresh), not {refresh_every}")
        if int(keep) < 1:
            raise ValueError(f"keep must be >= 1, not {keep}")
        self.pipeline = pipeline
        self.refresh_every = (None if refresh_every is None
                              else int(refresh_every))
        self.keep = int(keep)
        self.captures = 0          # actual folds, not no-op refreshes
        self._snapshots: OrderedDict[int, Snapshot] = OrderedDict()

    # -- capture -------------------------------------------------------------

    def refresh(self) -> Snapshot:
        """Capture now; a no-op returning the newest snapshot when the
        pipeline has not advanced past it (same epoch, same state)."""
        newest = self.newest()
        if newest is not None \
                and newest.epoch == self.pipeline.updates_ingested:
            return newest
        snapshot = Snapshot.capture(self.pipeline)
        self.captures += 1
        self._snapshots[snapshot.epoch] = snapshot
        self._snapshots.move_to_end(snapshot.epoch)
        while len(self._snapshots) > self.keep:
            self._snapshots.popitem(last=False)
        return snapshot

    def current(self) -> Snapshot:
        """The serving snapshot, honouring the refresh policy.

        Captures on first use; afterwards re-captures only once the
        pipeline has ingested ``refresh_every`` updates past the
        newest epoch (never, if auto-refresh is disabled).
        """
        newest = self.newest()
        if newest is None:
            return self.refresh()
        if self.refresh_every is not None \
                and (self.pipeline.updates_ingested - newest.epoch
                     >= self.refresh_every):
            return self.refresh()
        return newest

    # -- retention -----------------------------------------------------------

    def newest(self) -> Snapshot | None:
        if not self._snapshots:
            return None
        return next(reversed(self._snapshots.values()))

    @property
    def epochs(self) -> list[int]:
        """Queryable epochs, oldest first."""
        return list(self._snapshots)

    def snapshot_at(self, epoch: int) -> Snapshot:
        """The retained snapshot for an epoch; KeyError names what is."""
        try:
            return self._snapshots[int(epoch)]
        except KeyError:
            raise KeyError(
                f"no snapshot retained at epoch {epoch}; available "
                f"epochs: {self.epochs}") from None
