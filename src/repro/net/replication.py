"""Replication over the socket: the client side of ``subscribe``.

PR 7 built the whole replication calculus — full base checkpoints,
``checkpoint(since=...)`` delta frames, :class:`FollowerPipeline`
chains with digest verification — over any byte transport, and left
one follow-up: ship the stream over a socket once a daemon exists.
:class:`SocketFollower` closes it.  The frames on the wire are the
*same bytes* a file-tailing follower reads: the server checkpoints
under its service lock, so the subscription response's base is a node
of a gapless delta chain, and the follower ends byte-identical to the
leader's merged state at every acked epoch (verified by the delta
digests, not assumed).

Auto-resync
-----------
A standby that dies on the first hiccup is not a standby.  With
``resync=True`` (the default) the follower treats a broken stream —
connection loss, a torn delta frame, a delta that does not chain onto
its state — as a signal to start over: reconnect, resubscribe, boot a
*fresh* base checkpoint, and keep tailing.  The fresh base is a node of
the leader's current delta chain, so after a resync the follower is
byte-identical to the leader again at every subsequent acked epoch; a
clean shutdown (the server's ``draining`` event followed by EOF) is
recognised and **not** resynced.  ``resyncs`` counts how many times it
happened, bounded by ``max_resyncs``.
"""

from __future__ import annotations

import time

from ..engine import DeltaError, FollowerPipeline
from ..wire import KIND_DELTA, KIND_EVENT, WireError, peek_header, peek_kind
from .client import NetError, ReproClient
from .protocol import ProtocolError


class SocketFollower:
    """Tail a daemon's delta stream into a promotable warm standby.

    Connects, subscribes, boots a
    :class:`~repro.engine.follower.FollowerPipeline` from the base
    checkpoint the server sends back, then applies every pushed delta
    frame on :meth:`poll` / :meth:`wait_for_epoch`.  ``promote()``
    turns the standby into a live pipeline exactly as in the file-based
    flow — take-over in one call, socket or no socket.

    Parameters
    ----------
    resync:
        Recover from stream breaks (disconnects, torn or mis-chained
        deltas) by reconnecting and restarting from a fresh base
        checkpoint; ``False`` restores the old behaviour (a broken
        stream ends the follower, a bad delta raises).
    max_resyncs:
        Give up (the stream break surfaces as it would with
        ``resync=False``) after this many recovery attempts.
    clock:
        Injectable monotonic clock for :meth:`wait_for_epoch`
        deadlines.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0, *,
                 resync: bool = True, max_resyncs: int = 8,
                 clock=time.monotonic):
        if max_resyncs < 0:
            raise ValueError("max_resyncs must be >= 0")
        self._host = host
        self._port = int(port)
        self._timeout = float(timeout)
        self._resync = bool(resync)
        self._max_resyncs = int(max_resyncs)
        self._clock = clock
        #: How many times the stream broke and was recovered.
        self.resyncs = 0
        self._last_resync_error: Exception | None = None
        self.events: list[dict] = []
        self._closed_by_server = False
        self._draining_seen = False
        self._client: ReproClient | None = None
        self._connect()

    def _connect(self) -> None:
        """(Re)subscribe: fresh connection, fresh base, fresh chain."""
        self._client = ReproClient(self._host, self._port,
                                   timeout=self._timeout)
        self.base_epoch, base = self._client.subscribe()
        self.follower = FollowerPipeline(base)

    def _try_resync(self) -> bool:
        """Reconnect + resubscribe after a stream break; ``True`` once
        a fresh base is live, ``False`` when disabled or exhausted."""
        if not self._resync:
            return False
        if self._client is not None:
            self._client.close()
        while self.resyncs < self._max_resyncs:
            self.resyncs += 1
            try:
                self._connect()
            except (OSError, NetError, WireError, ProtocolError) as exc:
                self._last_resync_error = exc
                continue
            self._closed_by_server = False
            return True
        return False

    # -- introspection -------------------------------------------------------

    @property
    def epoch(self) -> int:
        return self.follower.epoch

    @property
    def acked_epochs(self) -> tuple:
        return self.follower.acked_epochs

    @property
    def closed_by_server(self) -> bool:
        """Whether the stream ended for good (clean drain EOF, or a
        break that exhausted the resync budget)."""
        return self._closed_by_server

    def merged(self):
        return self.follower.merged()

    # -- tailing -------------------------------------------------------------

    def poll(self, timeout: float = 0.05) -> int:
        """Apply every delta frame available within ``timeout``;
        returns how many advanced the state.  Stream breaks trigger a
        resync (when enabled) instead of ending the follower."""
        applied = 0
        while not self._closed_by_server:
            try:
                blob = self._client.next_frame(timeout=timeout)
            except ConnectionError:
                # Clean shutdown announces itself (the ``draining``
                # event): accept that EOF.  Anything else is a break
                # worth recovering from.
                if self._draining_seen or not self._try_resync():
                    self._closed_by_server = True
                break
            if blob is None:
                break
            try:
                applied += self._route(blob)
            except (WireError, DeltaError) as exc:
                # A torn frame or a delta that does not chain onto our
                # state: the stream is unusable from here — start over
                # from a fresh base.
                if not self._try_resync():
                    raise
                self._last_resync_error = exc
        return applied

    def wait_for_epoch(self, epoch: int, timeout: float = 30.0) -> int:
        """Poll until the follower reaches ``epoch``; returns the
        number of deltas applied.  Raises :class:`TimeoutError` when
        the stream does not get there before a monotonic-clock deadline
        ``timeout`` seconds out."""
        applied = 0
        deadline = self._clock() + float(timeout)
        while (self.follower.epoch < epoch
               and not self._closed_by_server):
            remaining = deadline - self._clock()
            if remaining <= 0:
                break
            applied += self.poll(timeout=min(0.05, remaining))
        if self.follower.epoch < epoch:
            raise TimeoutError(
                f"follower stuck at epoch {self.follower.epoch}, "
                f"waiting for {epoch}")
        return applied

    def _route(self, blob: bytes) -> int:
        kind = peek_kind(blob)
        if kind == KIND_DELTA:
            return self.follower.follow([blob])
        if kind == KIND_EVENT:
            _, header = peek_header(blob)
            self.events.append(header)
            if header.get("event") == "draining":
                self._draining_seen = True
            return 0
        raise ProtocolError(
            f"subscription stream carries an unexpected frame "
            f"(kind {kind})")

    # -- take-over -----------------------------------------------------------

    def promote(self, backend: str = "serial", shards: int = 1):
        """A live :class:`~repro.engine.pipeline.ShardedPipeline`
        holding the standby state (the follower stays usable)."""
        return self.follower.promote(backend=backend, shards=shards)

    def close(self) -> None:
        self._client.close()

    def __enter__(self) -> "SocketFollower":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False
