"""Spans around the calls the benchmark makes into each layer.

A :class:`Tracer` replaces chosen public functions with wrappers that
record one span per call: name, start, end, parent span, pid, thread,
request id and an optional count (bytes or updates handled).  Spans
stay in memory and are written out once, when the daemon drains.  A
shard worker forked by the process backend inherits the wrappers; its
spans are appended to ``<path>.<pid>`` as they close, because workers
are stopped without a chance to dump.

Request ids.  The daemon runs each request from ``decode_request`` to
``encode_response`` without yielding to another connection, so every
span opened in that stretch belongs to the request that
``encode_response`` answers.  ``FrameDecoder.feed`` spans are held per
decoder (one per connection) and handed to the first request their
bytes complete.  The id is ``"<op>#<request id>"``: each op is sent
over one connection only, so the pair is unique.

All times are ``time.monotonic()``, one clock for every process on the
host, so daemon, worker and generator spans share a time line.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import threading
import time

# Positions in a span record (a list, so it can be filled in on close).
NAME, START, END, PARENT, PID, THREAD, RID, COUNT = range(8)


class Tracer:
    """Record spans; ``path`` is where a forked child appends its own."""

    def __init__(self, path: str | None = None):
        self.spans: list[list] = []
        self._path = path
        self._pid = os.getpid()
        self._child_out = None
        self._local = threading.local()
        self._unstamped: list[int] = []
        self._held: dict[int, list[int]] = {}
        self._carried: list[int] = []
        self._originals: list[tuple] = []

    # -- recording ------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _check_fork(self) -> None:
        pid = os.getpid()
        if pid != self._pid:
            # A forked shard worker: drop the parent's spans and stream
            # this process's spans to its own file.
            self._pid = pid
            self.spans = []
            self._local = threading.local()
            self._unstamped, self._held, self._carried = [], {}, []
            self._child_out = open(f"{self._path}.{pid}", "a",
                                   buffering=1)

    def begin(self, name: str, held_by: int | None = None) -> int:
        self._check_fork()
        stack = self._stack()
        index = len(self.spans)
        self.spans.append([name, time.monotonic(), 0.0,
                           stack[-1] if stack else -1, self._pid,
                           threading.get_ident(), None, None])
        stack.append(index)
        if held_by is None:
            self._unstamped.append(index)
        else:
            self._held.setdefault(held_by, []).append(index)
        return index

    def end(self, index: int, count=None) -> None:
        span = self.spans[index]
        span[END] = time.monotonic()
        span[COUNT] = count
        self._stack().pop()
        if self._child_out is not None:
            self._child_out.write(json.dumps([index] + span) + "\n")

    def release(self, held_by: int) -> None:
        """The held spans of ``held_by`` completed a frame: charge them
        to the next request answered."""
        self._carried.extend(self._held.pop(held_by, ()))

    def stamp(self, rid: str) -> None:
        """Give every span since the last stamp the request id ``rid``."""
        for index in self._carried + self._unstamped:
            self.spans[index][RID] = rid
        self._carried, self._unstamped = [], []

    def wrap(self, owner, attr: str, name, *, count=None, after=None,
             held=False) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``name`` is a span name or ``(args, kwargs) -> name``;
        ``count(args, kwargs, result)`` fills the span's count;
        ``after(index, args, result)`` runs once the span is closed;
        ``held`` holds the span for :meth:`release` by ``args[0]``.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self.begin(name if isinstance(name, str)
                               else name(args, kwargs),
                               held_by=id(args[0]) if held else None)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                self.end(index)
                raise
            self.end(index, None if count is None
                     else count(args, kwargs, result))
            if after is not None:
                after(index, args, result)
            return result

        self._originals.append((owner, attr, original))
        setattr(owner, attr, traced)

    def unwrap(self) -> None:
        """Put back every function :meth:`wrap` replaced."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w") as out:
            json.dump(self.spans, out)


def load(path: str) -> tuple[list, dict]:
    """``(daemon spans, {worker pid: spans})`` as written by a traced
    daemon and its forked workers."""
    with open(path) as source:
        spans = json.load(source)
    workers: dict[int, list] = {}
    for worker_path in sorted(glob.glob(f"{glob.escape(path)}.*")):
        rows = []
        with open(worker_path) as source:
            for line in source:
                if line.endswith("\n"):      # skip a torn last line
                    rows.append(json.loads(line))
        if rows:
            # Lines arrive in closing order; parents are opening-order
            # indexes.  A span lost with a torn line becomes an empty
            # placeholder that no window contains.
            table = [["", 0.0, 0.0, -1, 0, 0, None, None]
                     for _ in range(max(row[0] for row in rows) + 1)]
            for row in rows:
                table[row[0]] = row[1:]
            workers[int(worker_path.rsplit(".", 1)[1])] = table
    return spans, workers


# -- the wrapped calls --------------------------------------------------------


def _size(args, kwargs, result) -> int:
    return len(args[1])


def install_daemon(tracer: Tracer) -> None:
    """Wrap the daemon-side public calls of every layer."""
    from repro.core import L0Sampler
    from repro.engine import pipeline
    from repro.net import protocol, server
    from repro.service import router, service, snapshot
    from repro.sketch import CountSketch

    def feed_done(index, args, frames) -> None:
        if frames:
            tracer.release(id(args[0]))

    def response_sent(index, args, result) -> None:
        tracer.stamp(f"{args[1]}#{args[0]}")

    tracer.wrap(protocol.FrameDecoder, "feed", "net.decoder",
                count=_size, after=feed_done, held=True)
    tracer.wrap(server, "decode_request", "net.decode_request")
    tracer.wrap(server, "encode_response", "net.encode_response",
                after=response_sent)
    tracer.wrap(service.QueryService, "ingest", "service.ingest")
    tracer.wrap(snapshot.SnapshotManager, "current", "service.snapshot")
    tracer.wrap(router.QueryRouter, "query", "service.query")
    tracer.wrap(router.QueryRouter, "prewarm", "service.prewarm")
    shards = pipeline.ShardedPipeline
    tracer.wrap(shards, "ingest", "engine.pipeline_ingest", count=_size)
    tracer.wrap(shards, "flush", "engine.flush")
    tracer.wrap(shards, "merged", "engine.merged")
    tracer.wrap(shards, "checkpoint",
                lambda args, kwargs: ("engine.delta_checkpoint"
                                      if kwargs.get("since") is not None
                                      else "engine.checkpoint"),
                count=lambda args, kwargs, blob: len(blob))
    for cls in (CountSketch, L0Sampler):
        tracer.wrap(cls, "update_many", "structure.update_many",
                    count=_size)
    tracer.wrap(CountSketch, "estimate", "structure.query")
    tracer.wrap(L0Sampler, "sample", "structure.query")
    tracer.wrap(L0Sampler, "recover_full_support", "structure.query")


def install_client(tracer: Tracer) -> None:
    """Wrap the generator-side calls: request encode, reply decode and
    the follower's delta apply."""
    from repro.engine import FollowerPipeline
    from repro.net import client

    def request_rid(index, args, result) -> None:
        tracer.spans[index][RID] = f"{args[1]}#{args[0]}"

    def reply_rid(index, args, reply) -> None:
        tracer.spans[index][RID] = f"{reply.op}#{reply.id}"

    tracer.wrap(client, "encode_request", "net.client.encode_request",
                after=request_rid)
    tracer.wrap(client, "decode_reply", "net.client.decode_reply",
                after=reply_rid)
    tracer.wrap(FollowerPipeline, "apply", "engine.follower_apply",
                count=_size)


# -- from spans to per-layer numbers ------------------------------------------


def self_times(spans: list) -> list:
    """Each span's duration minus the durations of its direct children."""
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    return own


class Layers:
    """Per-name totals of spans that start inside the window."""

    def __init__(self, window: tuple):
        self.window = window
        self.self_s: dict[str, float] = {}
        self.wall_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.by_rid: dict[str, float] = {}
        self.root_s = 0.0

    def add(self, spans: list, on_request_path: bool,
            root_busy: bool = False) -> None:
        low, high = self.window
        for span, own in zip(spans, self_times(spans)):
            if not low <= span[START] < high:
                continue
            name = span[NAME]
            self.self_s[name] = self.self_s.get(name, 0.0) + own
            self.wall_s[name] = (self.wall_s.get(name, 0.0)
                                 + span[END] - span[START])
            self.calls[name] = self.calls.get(name, 0) + 1
            if span[COUNT] is not None:
                self.counts[name] = self.counts.get(name, 0) + span[COUNT]
            if on_request_path and span[RID] is not None:
                self.by_rid[span[RID]] = (self.by_rid.get(span[RID], 0.0)
                                          + own)
            if root_busy and span[PARENT] < 0:
                self.root_s += span[END] - span[START]

    def per_request_ms(self, name: str, requests: int) -> float:
        return 1e3 * self.self_s.get(name, 0.0) / requests

    def rate(self, name: str, scale: float) -> float:
        wall = self.wall_s.get(name, 0.0)
        return self.counts.get(name, 0) / wall / scale if wall else 0.0

    def mean_count(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return self.counts.get(name, 0) / calls if calls else 0.0
