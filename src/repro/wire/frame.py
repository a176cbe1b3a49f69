"""The one framed binary format every serializer in this library emits.

Sketches (``sketch/serialize.py``), engine checkpoints (``engine/
checkpoint.py``) and the comm/ layer's bit accounting all "send the
memory contents over" (Section 4 of the paper) as one *wire frame*:

========  =======================================================
bytes     meaning
========  =======================================================
0..5      magic ``RPROWF``
6         ``WIRE_VERSION`` (u8) — the layout of everything below
7         frame kind (u8): sketch / structure / pipeline / delta
          / request / response / error / event
8..       uvarint ``body_len`` — the frame is self-delimiting, so
          frames concatenate into streams/files and a tail reader
          can split them without understanding their contents
body      uvarint header length + UTF-8 JSON header, then a
          uvarint section count followed by the sections
section   flags u8 (bit 0: zlib), uvarint dtype-string length +
          ASCII numpy dtype (e.g. ``<i8``), uvarint ndim + one
          uvarint per dimension, uvarint payload length + the raw
          (possibly zlib-deflated) C-order array bytes
========  =======================================================

Design rules:

* **Self-describing sections.**  Every array carries its dtype and
  shape, so decoding never consults the receiving structure — shape
  and count validation stay the *caller's* contract checks.
* **Deterministic bytes.**  Same header dict + same arrays + same
  compression ⇒ identical frames.  Checkpoint byte-identity proofs
  (delta chains, follower promotion) compare encoded frames directly.
* **Optional per-section zlib.**  ``compress="zlib"`` deflates each
  section payload independently; sparse payloads (delta checkpoints
  are mostly zeros) shrink dramatically, and the flag byte keeps
  mixed frames legal.
* **Leaf module.**  Only numpy + stdlib: ``sketch/`` and ``engine/``
  both depend on this package, so it depends on neither.

All parse failures raise :class:`WireError` (a ``ValueError``), never
a partially-decoded frame.
"""

from __future__ import annotations

import io
import json
import sys
import zlib
from dataclasses import dataclass, field

import numpy as np

#: Bump when the frame layout itself changes; readers reject others.
WIRE_VERSION = 1

#: Every frame starts with these six bytes.
MAGIC = b"RPROWF"

#: Frame kinds (the type tag at byte 7).
KIND_SKETCH = 1      # a bare LinearSketch (sketch/serialize.py)
KIND_STRUCTURE = 2   # an engine-registered structure (checkpoint.py)
KIND_PIPELINE = 3    # a whole ShardedPipeline (pipeline.py)
KIND_DELTA = 4       # an epoch-to-epoch state delta (engine/delta.py)
KIND_REQUEST = 5     # a network request envelope (net/protocol.py)
KIND_RESPONSE = 6    # a network response envelope (net/protocol.py)
KIND_ERROR = 7       # a network error envelope (net/protocol.py)
KIND_EVENT = 8       # a server-push event envelope (net/protocol.py)

KIND_NAMES = {
    KIND_SKETCH: "sketch",
    KIND_STRUCTURE: "structure",
    KIND_PIPELINE: "pipeline",
    KIND_DELTA: "delta",
    KIND_REQUEST: "request",
    KIND_RESPONSE: "response",
    KIND_ERROR: "error",
    KIND_EVENT: "event",
}

#: Section compression choices accepted by :func:`encode_frame`.
COMPRESSIONS = ("none", "zlib")

_FLAG_ZLIB = 0x01
_KNOWN_FLAGS = _FLAG_ZLIB

#: Hard ceiling on any single uvarint (2^63 - 1): a length beyond this
#: is corruption, not a real frame.
_UVARINT_MAX_BITS = 63


class WireError(ValueError):
    """The bytes are not (or no longer) a well-formed wire frame."""


@dataclass
class Frame:
    """One decoded frame: the type tag, the JSON header and the
    dtype/shape-restored array sections (writable copies)."""

    kind: int
    header: dict
    sections: list = field(default_factory=list)

    @property
    def kind_name(self) -> str:
        return KIND_NAMES.get(self.kind, f"unknown({self.kind})")


# -- varints ------------------------------------------------------------------


def _write_uvarint(out: io.BytesIO, value: int) -> None:
    if value < 0:
        raise WireError(f"uvarint cannot encode negative value {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        out.write(bytes([byte | (0x80 if value else 0)]))
        if not value:
            return


def _read_uvarint(data: bytes, offset: int) -> tuple[int, int]:
    """(value, new offset); raises :class:`WireError` on truncation or
    an implausibly large (> 63-bit) value."""
    value = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise WireError("truncated frame (uvarint runs off the end)")
        byte = data[offset]
        offset += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, offset
        shift += 7
        if shift > _UVARINT_MAX_BITS:
            raise WireError("corrupt frame (uvarint exceeds 63 bits)")


# -- encoding -----------------------------------------------------------------


def _encode_section(out: io.BytesIO, array, compress: str) -> None:
    arr = np.ascontiguousarray(array)
    payload = arr.tobytes()
    flags = 0
    if compress == "zlib":
        payload = zlib.compress(payload)
        flags |= _FLAG_ZLIB
    dtype = arr.dtype.str.encode("ascii")
    out.write(bytes([flags]))
    _write_uvarint(out, len(dtype))
    out.write(dtype)
    _write_uvarint(out, arr.ndim)
    for dim in arr.shape:
        _write_uvarint(out, dim)
    _write_uvarint(out, len(payload))
    out.write(payload)


def encode_frame(kind: int, header: dict, sections=(),
                 compress: str = "none") -> bytes:
    """Encode one frame.  ``sections`` is an ordered iterable of numpy
    arrays; ``compress`` deflates every section payload with zlib."""
    if kind not in KIND_NAMES:
        raise WireError(f"unknown frame kind {kind!r}")
    if compress not in COMPRESSIONS:
        raise WireError(
            f"compress must be one of {COMPRESSIONS}, not {compress!r}")
    encoded_header = json.dumps(header).encode("utf-8")
    body = io.BytesIO()
    _write_uvarint(body, len(encoded_header))
    body.write(encoded_header)
    arrays = list(sections)
    _write_uvarint(body, len(arrays))
    for array in arrays:
        _encode_section(body, array, compress)
    payload = body.getvalue()
    out = io.BytesIO()
    out.write(MAGIC)
    out.write(bytes([WIRE_VERSION, kind]))
    _write_uvarint(out, len(payload))
    out.write(payload)
    return out.getvalue()


# -- decoding -----------------------------------------------------------------


def _frame_prelude(data: bytes, offset: int = 0) -> tuple[int, int, int]:
    """Validate magic + version at ``offset``; return ``(kind,
    body_len, body_start)``."""
    if len(data) - offset < len(MAGIC) + 2:
        raise WireError("truncated frame (shorter than the fixed prelude)")
    if data[offset:offset + len(MAGIC)] != MAGIC:
        raise WireError("not a wire frame (bad magic)")
    version = data[offset + len(MAGIC)]
    if version != WIRE_VERSION:
        raise WireError(
            f"wire version {version} is not supported (this build "
            f"reads version {WIRE_VERSION})")
    kind = data[offset + len(MAGIC) + 1]
    if kind not in KIND_NAMES:
        raise WireError(f"unknown frame kind {kind}")
    body_len, body_start = _read_uvarint(data, offset + len(MAGIC) + 2)
    return kind, body_len, body_start


def frame_length(data: bytes, offset: int = 0) -> int:
    """Total byte length of the frame starting at ``offset`` (prelude
    included) — what a stream splitter needs, without decoding."""
    _, body_len, body_start = _frame_prelude(data, offset)
    return (body_start - offset) + body_len


def peek_kind(data: bytes) -> int:
    """The frame's kind tag, from the fixed prelude alone."""
    kind, _, _ = _frame_prelude(data)
    return kind


def peek_header(data: bytes) -> tuple[int, dict]:
    """``(kind, header dict)`` without touching the array sections."""
    kind, body_len, body_start = _frame_prelude(data)
    if body_start + body_len > len(data):
        raise WireError("truncated frame (body shorter than declared)")
    header_len, offset = _read_uvarint(data, body_start)
    if offset + header_len > body_start + body_len:
        raise WireError("corrupt frame (header overruns the body)")
    return kind, _parse_header(data[offset:offset + header_len])


def _parse_header(raw: bytes) -> dict:
    try:
        header = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireError(f"corrupt frame header: {exc}") from exc
    if not isinstance(header, dict):
        raise WireError("corrupt frame header (not a JSON object)")
    return header


def _decode_section(data: bytes, offset: int, end: int,
                    index: int) -> tuple[np.ndarray, int]:
    def need(n: int, what: str) -> None:
        if offset + n > end:
            raise WireError(
                f"truncated frame (section {index} {what} cut short)")

    need(1, "flags")
    flags = data[offset]
    offset += 1
    if flags & ~_KNOWN_FLAGS:
        raise WireError(
            f"corrupt frame (section {index} has unknown flags "
            f"{flags:#04x})")
    dtype_len, offset = _read_uvarint(data, offset)
    need(dtype_len, "dtype")
    try:
        dtype = np.dtype(data[offset:offset + dtype_len].decode("ascii"))
    except (UnicodeDecodeError, TypeError) as exc:
        raise WireError(
            f"corrupt frame (section {index} has an unreadable dtype: "
            f"{exc})") from exc
    offset += dtype_len
    ndim, offset = _read_uvarint(data, offset)
    if ndim > 32:
        raise WireError(
            f"corrupt frame (section {index} claims {ndim} dimensions)")
    shape = []
    for _ in range(ndim):
        dim, offset = _read_uvarint(data, offset)
        shape.append(dim)
    payload_len, offset = _read_uvarint(data, offset)
    need(payload_len, "payload")
    payload = data[offset:offset + payload_len]
    offset += payload_len
    expected = int(np.prod(shape, dtype=object)) * dtype.itemsize
    if flags & _FLAG_ZLIB:
        # At most one byte past the declared size: never a zip bomb.
        inflate = zlib.decompressobj()
        try:
            payload = inflate.decompress(
                payload, min(expected, sys.maxsize - 1) + 1)
            if inflate.unconsumed_tail or inflate.unused_data \
                    or not inflate.eof:
                raise zlib.error(f"the stream does not end at the "
                                 f"declared {expected} bytes")
        except zlib.error as exc:
            raise WireError(
                f"corrupt frame (section {index} fails to inflate: "
                f"{exc})") from exc
    if len(payload) != expected:
        raise WireError(
            f"corrupt frame (section {index} holds {len(payload)} "
            f"bytes for shape {tuple(shape)} of {dtype})")
    array = np.frombuffer(payload, dtype=dtype).reshape(shape).copy()
    return array, offset


def decode_frame(data: bytes, expect_kind: int | None = None) -> Frame:
    """Decode one complete frame; trailing bytes are rejected.

    ``expect_kind`` turns a kind mismatch into a loud, typed error —
    callers restoring "a checkpoint" must not silently accept a delta.
    """
    data = bytes(data)
    kind, body_len, body_start = _frame_prelude(data)
    if body_start + body_len > len(data):
        raise WireError("truncated frame (body shorter than declared)")
    if body_start + body_len < len(data):
        raise WireError(
            f"{len(data) - body_start - body_len} trailing bytes after "
            f"the frame")
    if expect_kind is not None and kind != expect_kind:
        raise WireError(
            f"expected a {KIND_NAMES[expect_kind]} frame, got "
            f"{KIND_NAMES.get(kind, kind)}")
    end = body_start + body_len
    header_len, offset = _read_uvarint(data, body_start)
    if offset + header_len > end:
        raise WireError("corrupt frame (header overruns the body)")
    header = _parse_header(data[offset:offset + header_len])
    offset += header_len
    count, offset = _read_uvarint(data, offset)
    if count > body_len:       # each section costs >= 1 byte
        raise WireError(
            f"corrupt frame (claims {count} sections in a "
            f"{body_len}-byte body)")
    sections = []
    for index in range(count):
        array, offset = _decode_section(data, offset, end, index)
        sections.append(array)
    if offset != end:
        raise WireError(
            f"corrupt frame ({end - offset} stray bytes after the "
            f"last section)")
    return Frame(kind=kind, header=header, sections=sections)


# -- streams of frames --------------------------------------------------------


def split_frames(data: bytes) -> tuple[list[bytes], int]:
    """Split a concatenation of frames into complete frame blobs.

    Returns ``(frames, consumed)``: bytes past ``consumed`` are the
    prefix of an *incomplete* trailing frame (normal when tailing a
    file mid-write) — feed them back in once more bytes arrive.  Bytes
    that can never become a frame (wrong magic, bad version) raise
    :class:`WireError` instead of being skipped.
    """
    data = bytes(data)
    frames: list[bytes] = []
    offset = 0
    while offset < len(data):
        try:
            total = frame_length(data, offset)
        except WireError:
            remainder = data[offset:]
            # A short buffer that is still a plausible frame prefix is
            # "incomplete", not corrupt; anything else is corruption.
            if MAGIC.startswith(remainder[:len(MAGIC)]) and (
                    len(remainder) < len(MAGIC) + 2
                    or remainder[len(MAGIC)] == WIRE_VERSION):
                break
            raise
        if offset + total > len(data):
            break
        frames.append(data[offset:offset + total])
        offset += total
    return frames, offset


def read_frames(data: bytes) -> list[Frame]:
    """Decode a complete concatenation of frames (no partial tail)."""
    blobs, consumed = split_frames(data)
    if consumed != len(bytes(data)):
        raise WireError(
            f"{len(bytes(data)) - consumed} trailing bytes form an "
            f"incomplete frame")
    return [decode_frame(blob) for blob in blobs]
