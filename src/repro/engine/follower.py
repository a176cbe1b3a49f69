"""A warm-standby pipeline that tails a delta stream.

The first step from multiprocess to multi-node: a leader
:class:`~repro.engine.pipeline.ShardedPipeline` emits one full
checkpoint plus ``checkpoint(since=...)`` deltas, and a
:class:`FollowerPipeline` on the other end of any byte transport (an
in-process iterator, a file both sides can see, eventually a socket)
replays them into a standby copy of the merged state.  Linearity does
the heavy lifting — each delta is itself a sketch of the interim
stream — and the digest checks in :mod:`repro.engine.delta` make the
guarantee exact: after every acked delta the follower's
:meth:`merged` state is *byte-identical* to the leader's ``merged()``
at that epoch, verified, not assumed.

The follower holds one folded state, not K shards: it does no
ingestion of its own, so there is nothing to parallelise until it is
promoted.  :meth:`promote` turns the standby into a live
:class:`~repro.engine.pipeline.ShardedPipeline` (any backend, any
shard count) that can serve a
:class:`~repro.service.service.QueryService` and ingest new updates —
take-over in one call.

Catch-up is idempotent: the ``follow*`` methods skip frames the
follower already acked (a restarted follower can re-read the whole
stream), while the strict :meth:`apply` raises
:class:`~repro.engine.delta.OutOfOrderDelta` /
:class:`~repro.engine.delta.WrongBaseDelta` on anything that does not
extend the chain.
"""

from __future__ import annotations

import numpy as np

from ..wire import (KIND_DELTA, KIND_PIPELINE, WireError, encode_frame,
                    peek_header, split_frames)
from .checkpoint import (FORMAT_VERSION, build_twin, checkpoint as
                         snapshot_structure, params_of, state_arrays,
                         _load_state)
from .checkpoint import clone
from .delta import (DeltaError, OutOfOrderDelta,
                    apply as apply_delta, decode as decode_delta)
from .pipeline import ShardedPipeline


class FollowerPipeline:
    """Tail a leader's delta stream into a promotable warm standby.

    Parameters
    ----------
    base:
        A *full* pipeline checkpoint from the leader
        (``ShardedPipeline.checkpoint()``).  The follower folds the
        checkpointed shards into the one merged state the leader's
        deltas are encoded against.
    """

    def __init__(self, base: bytes):
        base = bytes(base)
        # Reuse the pipeline's own parsers/validation by restoring a
        # serial pipeline, then keep only its fold: the follower needs
        # the merged arrays plus the header fields promote() reuses.
        with ShardedPipeline.restore(base, backend="serial") as booted:
            folded = booted._folded()
            self._structure = build_twin(type(folded).__name__,
                                         params_of(folded))
            _load_state(self._structure,
                        [np.array(a, copy=True)
                         for a in state_arrays(folded)])
            self._partition = booted.partition
            self._chunk_size = booted.chunk_size
            self._epoch = booted.updates_ingested
        self._acked = [self._epoch]

    # -- introspection -------------------------------------------------------

    @property
    def epoch(self) -> int:
        """``updates_ingested`` of the last acked state."""
        return self._epoch

    @property
    def acked_epochs(self) -> tuple:
        """Every epoch this follower has held (base first)."""
        return tuple(self._acked)

    @property
    def shard_type(self) -> type:
        return type(self._structure)

    def merged(self):
        """An independent copy of the standby state — byte-identical
        to the leader's ``merged()`` at :attr:`epoch`."""
        return clone(self._structure)

    # -- tailing -------------------------------------------------------------

    def apply(self, delta_blob: bytes) -> int:
        """Apply one delta frame; returns the new epoch.

        Strict: the delta must start exactly at the current epoch
        (:class:`~repro.engine.delta.OutOfOrderDelta` otherwise) and
        its base digest must match the standby state
        (:class:`~repro.engine.delta.WrongBaseDelta` otherwise).
        """
        header, _ = decode_delta(delta_blob)
        self._check_identity(header)
        if header.get("base_epoch") != self._epoch:
            raise OutOfOrderDelta(
                f"delta starts at epoch {header.get('base_epoch')!r} "
                f"but the follower is at epoch {self._epoch}")
        arrays = state_arrays(self._structure)
        header, advanced = apply_delta(arrays, delta_blob)
        _load_state(self._structure, advanced)
        self._epoch = header["epoch"]
        self._acked.append(self._epoch)
        return self._epoch

    def _check_identity(self, header: dict) -> None:
        class_name = type(self._structure).__name__
        params = params_of(self._structure)
        if header.get("class") != class_name \
                or header.get("params") != params:
            raise DeltaError(
                f"delta describes {header.get('class')!r} with "
                f"parameters {header.get('params')!r}; this follower "
                f"holds {class_name!r} with {params!r}")

    def _maybe_apply(self, blob: bytes) -> bool:
        """Apply a delta unless it is already acked (idempotent
        catch-up); returns whether it advanced the state."""
        header, _ = decode_delta(blob)
        epoch = header.get("epoch")
        if isinstance(epoch, int) and epoch <= self._epoch:
            return False
        self.apply(blob)
        return True

    def follow(self, frames) -> int:
        """Apply an iterable of delta frames in order; already-acked
        frames are skipped.  Returns how many advanced the state."""
        applied = 0
        for blob in frames:
            if self._maybe_apply(bytes(blob)):
                applied += 1
        return applied

    def follow_file(self, path, start: int = 0) -> tuple:
        """Tail a file of concatenated delta frames.

        Reads from byte offset ``start``, applies every *complete*
        frame (already-acked ones are skipped) and returns
        ``(applied, next_offset)`` — pass ``next_offset`` back in to
        resume after the leader appends more; a partially-written
        trailing frame is left for the next call rather than
        rejected.
        """
        with open(path, "rb") as stream:
            stream.seek(start)
            data = stream.read()
        blobs, consumed = split_frames(data)
        applied = 0
        for blob in blobs:
            kind, _ = peek_header(blob)
            if kind != KIND_DELTA:
                raise WireError(
                    f"delta stream contains a non-delta frame "
                    f"(kind {kind})")
            if self._maybe_apply(blob):
                applied += 1
        return applied, start + consumed

    # -- promotion -----------------------------------------------------------

    def promote(self, backend: str = "serial", shards: int = 1,
                transport: str | None = None) -> ShardedPipeline:
        """Turn the standby into a live :class:`ShardedPipeline`.

        The promoted pipeline's ``merged()`` is byte-identical to the
        leader's at :attr:`epoch`; it ingests and reshards like any
        other pipeline, and drops straight into
        ``QueryService(pipeline=...)`` to take over serving.  The
        follower remains usable (the promoted pipeline owns copies).
        """
        header = {
            "format": FORMAT_VERSION,
            "partition": self._partition,
            "chunk_size": self._chunk_size,
            "cursor": 0,
            "updates_ingested": self._epoch,
            "shards": 1,
        }
        blob = snapshot_structure(self._structure)
        frame = encode_frame(KIND_PIPELINE, header,
                             [np.frombuffer(blob, dtype=np.uint8)])
        return ShardedPipeline.restore(frame, backend=backend,
                                       shards=shards,
                                       transport=transport)
