"""The network protocol layer: envelopes and the streaming decoder.

The load-bearing contract is :class:`FrameDecoder` ==
:func:`split_frames`: for *any* byte stream, chopped at *any*
boundaries, the decoder must emit exactly the frames the batch splitter
finds in the concatenation, hold exactly the bytes it calls an
incomplete tail, and raise :class:`WireError` on exactly the bytes it
calls corrupt.  The fuzz tests below drive both through the same
streams and assert the equivalence directly.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.net import (FrameDecoder, PROTOCOL_VERSION, ProtocolError,
                       decode_reply, decode_request, encode_error,
                       encode_event, encode_request, encode_response,
                       to_jsonable)
from repro.wire import (KIND_ERROR, KIND_EVENT, KIND_REQUEST,
                        KIND_RESPONSE, MAGIC, WIRE_VERSION, WireError,
                        encode_frame, peek_header, peek_kind,
                        split_frames)


def _frames(count: int = 4) -> list[bytes]:
    """A mixed bag of real envelopes, some with array sections."""
    rng = np.random.default_rng(99)
    out = [
        encode_request(1, "ping"),
        encode_request(2, "ingest", sections=(
            rng.integers(0, 100, size=37, dtype=np.int64),
            rng.integers(-5, 5, size=37, dtype=np.int64))),
        encode_response(2, "ingest", {"count": 37}, meta={"epoch": 37}),
        encode_error(3, "query", "KeyError", "no such epoch"),
        encode_event("draining", {"epoch": 37}),
        encode_response(4, "checkpoint", {"bytes": 64}, sections=(
            rng.integers(0, 256, size=64).astype(np.uint8),),
            compress="zlib"),
    ]
    return out[:count] if count < len(out) else out


# -- envelope round-trips -----------------------------------------------------


class TestEnvelopes:

    def test_request_round_trip(self):
        blob = encode_request(7, "query", {"op": "point", "index": 3})
        request = decode_request(blob)
        assert request.id == 7
        assert request.op == "query"
        assert request.args == {"op": "point", "index": 3}
        assert request.sections == []

    def test_request_sections_round_trip(self):
        indices = np.arange(10, dtype=np.int64)
        deltas = -np.ones(10, dtype=np.int64)
        request = decode_request(
            encode_request(1, "ingest", sections=(indices, deltas)))
        np.testing.assert_array_equal(request.sections[0], indices)
        np.testing.assert_array_equal(request.sections[1], deltas)

    def test_response_and_error_round_trip(self):
        ok = decode_reply(encode_response(5, "stats", {"queries": 2},
                                          meta={"epoch": 10}))
        assert ok.ok and ok.id == 5 and ok.op == "stats"
        assert ok.result == {"queries": 2}
        assert ok.meta == {"epoch": 10}
        bad = decode_reply(encode_error(6, "query", "ValueError", "no"))
        assert not bad.ok and bad.id == 6
        assert bad.error == "ValueError" and bad.message == "no"

    def test_event_header(self):
        kind, header = peek_header(encode_event("draining",
                                                {"epoch": 3}))
        assert kind == KIND_EVENT
        assert header == {"proto": PROTOCOL_VERSION,
                          "event": "draining", "meta": {"epoch": 3}}

    @pytest.mark.parametrize("blob", [
        encode_frame(KIND_REQUEST, {"proto": 99, "id": 1, "op": "x",
                                    "args": {}}),
        encode_frame(KIND_REQUEST, {"proto": PROTOCOL_VERSION, "id": 1,
                                    "args": {}}),                # no op
        encode_frame(KIND_REQUEST, {"proto": PROTOCOL_VERSION, "id": 1,
                                    "op": "x", "args": [1]}),    # args
        encode_frame(KIND_REQUEST, {"proto": PROTOCOL_VERSION,
                                    "id": True, "op": "x",
                                    "args": {}}),                # bool id
        encode_frame(KIND_REQUEST, {"proto": PROTOCOL_VERSION,
                                    "id": "1", "op": "x",
                                    "args": {}}),                # str id
    ], ids=["proto", "no-op", "args-list", "bool-id", "str-id"])
    def test_request_validation(self, blob):
        with pytest.raises(ProtocolError):
            decode_request(blob)

    def test_reply_rejects_foreign_kind(self):
        with pytest.raises(ProtocolError):
            decode_reply(encode_request(1, "ping"))

    def test_protocol_error_is_wire_error(self):
        # One except-clause catches both framing and envelope problems.
        assert issubclass(ProtocolError, WireError)

    def test_kinds_are_distinct(self):
        kinds = {peek_kind(encode_request(1, "ping")),
                 peek_kind(encode_response(1, "ping", "pong")),
                 peek_kind(encode_error(1, "ping", "E", "m")),
                 peek_kind(encode_event("draining"))}
        assert kinds == {KIND_REQUEST, KIND_RESPONSE, KIND_ERROR,
                         KIND_EVENT}


class TestToJsonable:

    def test_numpy_and_containers(self):
        value = {"a": np.int64(3), "b": np.arange(3),
                 "c": (np.float64(0.5), [np.uint8(1)])}
        assert to_jsonable(value) == {"a": 3, "b": [0, 1, 2],
                                      "c": [0.5, [1]]}

    def test_dataclass(self):
        from repro.core import SampleResult
        out = to_jsonable(SampleResult(failed=False, index=3,
                                       estimate=-2.0))
        assert out["index"] == 3 and out["estimate"] == -2.0
        assert all(isinstance(k, str) for k in out)

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            to_jsonable(object())

    def test_passthrough_scalars(self):
        for value in (None, True, 3, 0.5, "x"):
            assert to_jsonable(value) == value


# -- the streaming decoder ----------------------------------------------------


def _feed_chunks(decoder: FrameDecoder, stream: bytes, sizes):
    """Feed ``stream`` in chunks of the given sizes (cycled)."""
    got, offset, i = [], 0, 0
    while offset < len(stream):
        size = sizes[i % len(sizes)]
        got.extend(decoder.feed(stream[offset:offset + size]))
        offset += size
        i += 1
    return got


class TestFrameDecoder:

    def test_whole_stream_at_once(self):
        frames = _frames(6)
        decoder = FrameDecoder()
        assert decoder.feed(b"".join(frames)) == frames
        assert decoder.pending == 0

    @pytest.mark.parametrize("size", [1, 2, 3, 7, 64])
    def test_fixed_chunk_sizes_match_split_frames(self, size):
        stream = b"".join(_frames(6))
        expected, consumed = split_frames(stream)
        assert consumed == len(stream)
        assert _feed_chunks(FrameDecoder(), stream, [size]) == expected

    def test_every_single_split_point(self):
        # Two frames, cut at every possible boundary: header bytes,
        # section bytes, uvarint bytes — all of them.
        stream = b"".join(_frames(2))
        expected, _ = split_frames(stream)
        for cut in range(len(stream) + 1):
            decoder = FrameDecoder()
            got = decoder.feed(stream[:cut])
            got.extend(decoder.feed(stream[cut:]))
            assert got == expected, f"diverged at cut {cut}"
            assert decoder.pending == 0

    def test_random_chunking_fuzz(self):
        stream = b"".join(_frames(6)) * 3
        expected, _ = split_frames(stream)
        rng = np.random.default_rng(4242)
        for _ in range(25):
            sizes = rng.integers(1, 50, size=64).tolist()
            assert _feed_chunks(FrameDecoder(), stream, sizes) \
                == expected

    def test_incomplete_tail_is_held(self):
        frame = _frames(1)[0]
        decoder = FrameDecoder()
        assert decoder.feed(frame[:-1]) == []
        assert decoder.pending == len(frame) - 1
        assert decoder.feed(frame[-1:]) == [frame]
        assert decoder.pending == 0

    def test_garbage_raises_like_split_frames(self):
        stream = b"not a frame at all"
        with pytest.raises(WireError):
            split_frames(stream)
        with pytest.raises(WireError):
            FrameDecoder().feed(stream)

    def test_trailing_garbage_after_frames(self):
        frame = _frames(1)[0]
        stream = frame + b"XXXXXXXX"
        with pytest.raises(WireError):
            split_frames(stream)
        # Streamed: the completed frame is returned by the feed that
        # also buffers the poison; the error surfaces on the next feed.
        decoder = FrameDecoder()
        assert decoder.feed(stream) == [frame]
        with pytest.raises(WireError):
            decoder.feed(b"")

    def test_poisoned_decoder_stays_poisoned(self):
        decoder = FrameDecoder()
        with pytest.raises(WireError):
            decoder.feed(b"garbage everywhere")
        for _ in range(3):
            with pytest.raises(WireError):
                decoder.feed(b"")

    def test_foreign_version_is_corruption_not_tail(self):
        frame = bytearray(_frames(1)[0])
        frame[len(MAGIC)] = WIRE_VERSION + 1
        with pytest.raises(WireError):
            split_frames(bytes(frame))
        decoder = FrameDecoder()
        with pytest.raises(WireError):
            # One byte at a time: must raise as soon as the version
            # byte lands, exactly where split_frames gives up.
            for offset in range(len(frame)):
                decoder.feed(bytes(frame[offset:offset + 1]))

    def test_unknown_kind_is_held_not_corruption(self):
        # split_frames treats a complete prelude with an unknown kind
        # byte as an incomplete tail (the version byte checks out), so
        # the streaming twin must hold it too — not raise.
        frame = bytearray(_frames(1)[0])
        frame[len(MAGIC) + 1] = 0xEE
        got, consumed = split_frames(bytes(frame))
        assert got == [] and consumed == 0
        decoder = FrameDecoder()
        assert decoder.feed(bytes(frame)) == []
        assert decoder.pending == len(frame)

    def test_wrong_magic_mid_stream(self):
        frames = _frames(2)
        stream = frames[0] + b"JUNK" + frames[1]
        with pytest.raises(WireError):
            split_frames(stream)
        decoder = FrameDecoder()
        collected = []
        with pytest.raises(WireError):
            for offset in range(0, len(stream), 5):
                collected.extend(decoder.feed(stream[offset:offset + 5]))
        assert collected == [frames[0]]

    def test_large_frame_in_small_pieces_costs_linear_time(self):
        """A 16 MiB frame fed in 64 KiB pieces is parsed in place.  Its
        cost is held to a few times the bare minimum any decoder pays
        for it, buffering the pieces and copying the frame out once
        (that floor includes the allocator's page faults, which
        dominate at this size); copying the whole buffer on every feed,
        as a quadratic decoder does, costs well over ten times it."""
        blob = encode_frame(KIND_EVENT, {}, [
            np.zeros(16 << 20, dtype=np.uint8)])
        pieces = [blob[i:i + (1 << 16)] for i in range(0, len(blob), 1 << 16)]

        def buffer_only():
            buffer = bytearray()
            for piece in pieces:
                buffer.extend(piece)
            return [bytes(buffer)]

        def decode():
            decoder, out = FrameDecoder(), []
            for piece in pieces:
                out += decoder.feed(piece)
            assert decoder.pending == 0
            return out

        best = {buffer_only: float("inf"), decode: float("inf")}
        for _ in range(5):
            for run in best:
                start = time.perf_counter()
                out = run()
                best[run] = min(best[run], time.perf_counter() - start)
                assert out == [blob]
        assert best[decode] <= 4 * best[buffer_only]

    def test_empty_feeds_are_harmless(self):
        decoder = FrameDecoder()
        assert decoder.feed(b"") == []
        frame = _frames(1)[0]
        assert decoder.feed(frame[:3]) == []
        assert decoder.feed(b"") == []
        assert decoder.feed(frame[3:]) == [frame]
