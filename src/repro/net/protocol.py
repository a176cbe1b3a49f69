"""Request/response envelopes over ``RPROWF`` frames + a stream decoder.

The daemon speaks the library's one wire format: a request is a
``KIND_REQUEST`` frame whose JSON header carries the operation name and
its keyword arguments (array payloads — ingest batches — ride as
ordinary frame sections); the server answers with a ``KIND_RESPONSE``
or ``KIND_ERROR`` frame echoing the request id, and pushes
``KIND_DELTA`` / ``KIND_EVENT`` frames at subscribers.  Nothing here
re-encodes state: a replication message on the socket is byte-for-byte
the ``ShardedPipeline.checkpoint(since=...)`` frame.

:class:`FrameDecoder` is the streaming twin of
:func:`repro.wire.split_frames`: it accumulates socket reads and yields
every complete frame, deferring a plausible *prefix* of a frame to the
next feed and raising :class:`~repro.wire.WireError` on bytes that can
never become one — the exact split/raise behaviour of ``split_frames``
on the concatenation of everything fed so far.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from ..wire import (KIND_ERROR, KIND_EVENT, KIND_REQUEST, KIND_RESPONSE,
                    MAGIC, WIRE_VERSION, WireError, decode_frame,
                    encode_frame, frame_length)

#: Bump when the envelope header layout changes; servers reject others.
PROTOCOL_VERSION = 1

#: Fixed prelude bytes before the body-length uvarint: magic + version
#: byte + kind byte.
_PRELUDE = len(MAGIC) + 2


class ProtocolError(WireError):
    """The frame is well-formed but is not a valid protocol envelope."""


def to_jsonable(value):
    """Convert a query-algebra result into plain JSON types.

    Handles everything the algebra returns — numpy arrays and scalars,
    dataclasses (``SampleResult``), tuples of any of these — so the
    server can put results in a response header and an offline oracle
    can be compared against the wire answer with plain ``==``.
    """
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {name: to_jsonable(item) for name, item
                in dataclasses.asdict(value).items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): to_jsonable(item)
                for key, item in value.items()}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(
        f"cannot convert {type(value).__name__} to a wire result")


# -- envelopes ----------------------------------------------------------------


@dataclass
class Request:
    """One decoded client request."""

    id: int
    op: str
    args: dict
    sections: list = field(default_factory=list)


@dataclass
class Reply:
    """One decoded server answer (response or error envelope)."""

    id: int
    op: str
    ok: bool
    result: object = None
    error: str = ""                  # exception type name when not ok
    message: str = ""                # human-readable detail when not ok
    meta: dict = field(default_factory=dict)   # epoch etc.
    sections: list = field(default_factory=list)


def encode_request(request_id: int, op: str, args: dict | None = None,
                   sections=(), compress: str = "none") -> bytes:
    """Encode one request envelope (args must be JSON-able)."""
    header = {"proto": PROTOCOL_VERSION, "id": int(request_id),
              "op": str(op), "args": dict(args or {})}
    return encode_frame(KIND_REQUEST, header, sections, compress)


def encode_response(request_id: int, op: str, result,
                    meta: dict | None = None, sections=(),
                    compress: str = "none") -> bytes:
    """Encode a success envelope echoing the request id."""
    header = {"proto": PROTOCOL_VERSION, "id": int(request_id),
              "op": str(op), "result": result, "meta": dict(meta or {})}
    return encode_frame(KIND_RESPONSE, header, sections, compress)


def encode_error(request_id: int, op: str, error: str,
                 message: str) -> bytes:
    """Encode a failure envelope (``error`` names the exception type)."""
    header = {"proto": PROTOCOL_VERSION, "id": int(request_id),
              "op": str(op), "error": str(error),
              "message": str(message)}
    return encode_frame(KIND_ERROR, header)


def encode_event(event: str, meta: dict | None = None) -> bytes:
    """Encode a server-push event (draining, shutdown, ...)."""
    header = {"proto": PROTOCOL_VERSION, "event": str(event),
              "meta": dict(meta or {})}
    return encode_frame(KIND_EVENT, header)


def _check_proto(header: dict) -> None:
    proto = header.get("proto")
    if proto != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version {proto!r} is not supported (this build "
            f"speaks version {PROTOCOL_VERSION})")


def decode_request(blob: bytes) -> Request:
    """Decode and validate one request envelope."""
    frame = decode_frame(blob, expect_kind=KIND_REQUEST)
    _check_proto(frame.header)
    op = frame.header.get("op")
    args = frame.header.get("args", {})
    request_id = frame.header.get("id")
    if not isinstance(op, str) or not op:
        raise ProtocolError(f"request carries no operation name "
                            f"(op={op!r})")
    if not isinstance(args, dict):
        raise ProtocolError(f"request args must be an object, not "
                            f"{type(args).__name__}")
    if not isinstance(request_id, int) or isinstance(request_id, bool):
        raise ProtocolError(f"request id must be an integer, not "
                            f"{request_id!r}")
    return Request(id=request_id, op=op, args=args,
                   sections=frame.sections)


def decode_reply(blob: bytes) -> Reply:
    """Decode one response *or* error envelope into a :class:`Reply`."""
    frame = decode_frame(blob)
    if frame.kind not in (KIND_RESPONSE, KIND_ERROR):
        raise ProtocolError(
            f"expected a response or error frame, got "
            f"{frame.kind_name}")
    _check_proto(frame.header)
    request_id = frame.header.get("id")
    if not isinstance(request_id, int) or isinstance(request_id, bool):
        raise ProtocolError(f"reply id must be an integer, not "
                            f"{request_id!r}")
    op = str(frame.header.get("op", ""))
    if frame.kind == KIND_ERROR:
        return Reply(id=request_id, op=op, ok=False,
                     error=str(frame.header.get("error", "")),
                     message=str(frame.header.get("message", "")))
    return Reply(id=request_id, op=op, ok=True,
                 result=frame.header.get("result"),
                 meta=frame.header.get("meta", {}) or {},
                 sections=frame.sections)


# -- the streaming decoder ----------------------------------------------------


class FrameDecoder:
    """Incrementally split a byte stream into complete wire frames.

    ``feed(data)`` appends ``data`` to an internal buffer and returns
    every frame completed by it, in order.  The contract is exactly
    :func:`repro.wire.split_frames` over the concatenation of all
    bytes ever fed: a buffered tail that is still a plausible frame
    prefix (short, or magic + matching version so far) is held for the
    next feed; a tail that can never become a frame raises
    :class:`~repro.wire.WireError`.  Frames already completed by the
    poisoning feed are still returned; the error is (re-)raised by
    every later call.
    """

    def __init__(self):
        self._buffer = bytearray()
        # Cheapest complete-frame precheck: don't re-parse the prelude
        # on every 1-byte feed — remember how many bytes the last parse
        # attempt said it needs before trying again.
        self._need = _PRELUDE + 1
        self._error: WireError | None = None

    @property
    def pending(self) -> int:
        """Bytes buffered towards an incomplete frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> list:
        """Buffer ``data``; return the frames it completed (as bytes)."""
        if self._error is not None:
            raise self._error
        self._buffer.extend(data)
        frames: list[bytes] = []
        # Parse in place: only the bounded prelude slice and each
        # completed frame are ever copied out of the buffer, so a large
        # frame arriving in many pieces costs linear time.
        while self._buffer:
            size = len(self._buffer)
            head = bytes(self._buffer[:_PRELUDE])
            # Short-circuit only while the prefix still looks like a
            # frame: an implausible tail must fall through and raise
            # no matter how short it is (split_frames does).
            if size < self._need and self._plausible_prefix(head):
                break
            with memoryview(self._buffer) as view:
                try:
                    total = frame_length(view)
                except WireError as exc:
                    if self._plausible_prefix(head):
                        # Incomplete prelude/length: every byte so far
                        # was consistent with a frame — wait for more.
                        self._need = size + 1
                        break
                    self._error = exc
                    if frames:
                        return frames
                    raise
                if size < total:
                    self._need = total
                    break
                frames.append(bytes(view[:total]))
            del self._buffer[:total]
            self._need = _PRELUDE + 1
        return frames

    @staticmethod
    def _plausible_prefix(remainder: bytes) -> bool:
        # The same predicate split_frames applies to its trailing
        # bytes: magic matches as far as it goes, and if the version
        # byte is present it is ours.
        return bool(MAGIC.startswith(remainder[:len(MAGIC)]) and (
            len(remainder) < _PRELUDE
            or remainder[len(MAGIC)] == WIRE_VERSION))
