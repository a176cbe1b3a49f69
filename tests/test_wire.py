"""The wire frame codec: round trips, determinism, corruption, streams.

The unified serialization layer (``repro.wire``) carries every
checkpoint, sketch blob and delta in the repository, so its contract
is tested directly at the byte level here — the serializer suites
(test_serialize, test_engine_checkpoint, test_delta_follower) then
only test their own payload semantics on top.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro.wire import (COMPRESSIONS, KIND_DELTA, KIND_PIPELINE,
                        KIND_SKETCH, KIND_STRUCTURE, MAGIC, WIRE_VERSION,
                        WireError, decode_frame, encode_frame,
                        frame_length, peek_header, peek_kind, read_frames,
                        split_frames)

ARRAYS = [
    np.arange(17, dtype=np.int64),
    np.zeros((3, 5), dtype=np.float64),
    np.array([[1, -2], [3, -4]], dtype=np.int8),
    np.array([2**63 - 1, 7], dtype=np.uint64),
    np.array([True, False, True]),
    np.empty((0,), dtype=np.int32),
    np.arange(24, dtype=np.float32).reshape(2, 3, 4),
]

HEADER = {"class": "Thing", "params": {"n": 1024, "seed": 3},
          "note": "unicode ✓"}


class TestRoundTrip:

    @pytest.mark.parametrize("compress", COMPRESSIONS)
    def test_header_and_sections_survive(self, compress):
        blob = encode_frame(KIND_STRUCTURE, HEADER, ARRAYS,
                            compress=compress)
        frame = decode_frame(blob)
        assert frame.kind == KIND_STRUCTURE
        assert frame.kind_name == "structure"
        assert frame.header == HEADER
        assert len(frame.sections) == len(ARRAYS)
        for mine, theirs in zip(ARRAYS, frame.sections):
            assert mine.dtype == theirs.dtype
            assert mine.shape == theirs.shape
            assert np.array_equal(mine, theirs)

    def test_decoded_arrays_are_writable_copies(self):
        blob = encode_frame(KIND_SKETCH, {}, [np.arange(4)])
        frame = decode_frame(blob)
        frame.sections[0][0] = 99          # must not raise
        assert decode_frame(blob).sections[0][0] == 0

    def test_sectionless_frame(self):
        frame = decode_frame(encode_frame(KIND_DELTA, {"epoch": 3}))
        assert frame.header == {"epoch": 3}
        assert frame.sections == []

    def test_deterministic_bytes(self):
        first = encode_frame(KIND_PIPELINE, HEADER, ARRAYS, "zlib")
        second = encode_frame(KIND_PIPELINE, HEADER, ARRAYS, "zlib")
        assert first == second

    def test_zlib_shrinks_sparse_payloads(self):
        sparse = np.zeros(4096, dtype=np.int64)
        sparse[7] = 5
        plain = encode_frame(KIND_STRUCTURE, {}, [sparse], "none")
        packed = encode_frame(KIND_STRUCTURE, {}, [sparse], "zlib")
        assert len(packed) < len(plain) / 10

    def test_non_contiguous_input_encodes(self):
        arr = np.arange(24, dtype=np.int64).reshape(4, 6)[:, ::2]
        frame = decode_frame(encode_frame(KIND_SKETCH, {}, [arr]))
        assert np.array_equal(frame.sections[0], arr)


class TestEncodeValidation:

    def test_unknown_kind_rejected(self):
        with pytest.raises(WireError, match="kind"):
            encode_frame(99, {})

    def test_unknown_compression_rejected(self):
        with pytest.raises(WireError, match="compress"):
            encode_frame(KIND_SKETCH, {}, compress="lz4")


class TestDecodeValidation:

    def blob(self, **kwargs):
        return encode_frame(KIND_STRUCTURE, HEADER, ARRAYS[:2], **kwargs)

    def test_bad_magic_rejected(self):
        with pytest.raises(WireError, match="magic"):
            decode_frame(b"NOTRPROWF" + self.blob())

    def test_foreign_version_rejected(self):
        blob = bytearray(self.blob())
        blob[len(MAGIC)] = WIRE_VERSION + 1
        with pytest.raises(WireError, match="version"):
            decode_frame(bytes(blob))

    def test_unknown_kind_byte_rejected(self):
        blob = bytearray(self.blob())
        blob[len(MAGIC) + 1] = 200
        with pytest.raises(WireError, match="kind"):
            decode_frame(bytes(blob))

    @pytest.mark.parametrize("keep", [0, 3, 7, 9, 30])
    def test_truncation_always_loud(self, keep):
        with pytest.raises(WireError):
            decode_frame(self.blob()[:keep])

    def test_every_truncation_point_is_loud(self):
        blob = self.blob(compress="zlib")
        for keep in range(len(blob)):
            with pytest.raises(WireError):
                decode_frame(blob[:keep])

    def test_trailing_bytes_rejected(self):
        with pytest.raises(WireError, match="trailing"):
            decode_frame(self.blob() + b"x")

    def test_expect_kind_mismatch_is_loud(self):
        with pytest.raises(WireError,
                           match="expected a delta frame, got structure"):
            decode_frame(self.blob(), expect_kind=KIND_DELTA)

    def test_unknown_section_flags_rejected(self):
        blob = encode_frame(KIND_SKETCH, {}, [np.arange(3)])
        index = blob.index(np.arange(3, dtype=np.int64).tobytes())
        # the flags byte sits 1 (flags) + 1+3 (dtype) + 1+1 (shape) +
        # 1 (payload len) = 8 bytes before the payload
        mutated = bytearray(blob)
        mutated[index - 8] |= 0x80
        with pytest.raises(WireError, match="flags"):
            decode_frame(bytes(mutated))

    def test_corrupt_zlib_payload_rejected(self):
        blob = bytearray(self.blob(compress="zlib"))
        blob[-1] ^= 0xFF
        with pytest.raises(WireError, match="inflate"):
            decode_frame(bytes(blob))

    @staticmethod
    def _one_section_frame(flags, dtype, shape, payload):
        """A hand-built frame: one section whose declared shape and
        payload the encoder would never pair."""
        import io

        from repro.wire.frame import _write_uvarint

        body = io.BytesIO()
        _write_uvarint(body, 2)
        body.write(b"{}")
        _write_uvarint(body, 1)
        body.write(bytes([flags]))
        _write_uvarint(body, len(dtype))
        body.write(dtype)
        _write_uvarint(body, len(shape))
        for dim in shape:
            _write_uvarint(body, dim)
        _write_uvarint(body, len(payload))
        body.write(payload)
        out = io.BytesIO()
        out.write(MAGIC)
        out.write(bytes([WIRE_VERSION, KIND_SKETCH]))
        _write_uvarint(out, len(body.getvalue()))
        out.write(body.getvalue())
        return out.getvalue()

    def test_zlib_bomb_rejected_without_inflating_it(self):
        """A ~100 KiB section that inflates to 96 MiB but declares 8
        bytes fails typed, and the decoder never holds more than the
        declared size plus one byte of output."""
        import tracemalloc

        packer = zlib.compressobj()
        zeros = bytes(1 << 20)
        bomb = b"".join(packer.compress(zeros) for _ in range(96))
        bomb += packer.flush()
        assert len(bomb) < 1 << 20
        blob = self._one_section_frame(0x01, b"<i8", (1,), bomb)
        tracemalloc.start()
        try:
            with pytest.raises(WireError, match="declared 8 bytes"):
                decode_frame(blob)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * len(blob) + (1 << 20)

    def test_zlib_section_must_end_where_its_stream_ends(self):
        packed = zlib.compress(bytes(8))
        for payload in (packed + b"junk", packed[:-2]):
            blob = self._one_section_frame(0x01, b"<i8", (1,), payload)
            with pytest.raises(WireError, match="inflate"):
                decode_frame(blob)

    def test_non_object_header_rejected(self):
        import io
        import json

        from repro.wire.frame import _write_uvarint

        encoded = json.dumps([1, 2]).encode()
        body = io.BytesIO()
        _write_uvarint(body, len(encoded))
        body.write(encoded)
        _write_uvarint(body, 0)
        payload = body.getvalue()
        out = io.BytesIO()
        out.write(MAGIC)
        out.write(bytes([WIRE_VERSION, KIND_SKETCH]))
        _write_uvarint(out, len(payload))
        out.write(payload)
        with pytest.raises(WireError, match="JSON object"):
            decode_frame(out.getvalue())


class TestPeeking:

    def test_peek_kind_and_header(self):
        blob = encode_frame(KIND_PIPELINE, HEADER, ARRAYS)
        assert peek_kind(blob) == KIND_PIPELINE
        kind, header = peek_header(blob)
        assert (kind, header) == (KIND_PIPELINE, HEADER)

    def test_frame_length_matches_encoding(self):
        blob = encode_frame(KIND_SKETCH, HEADER, ARRAYS, "zlib")
        assert frame_length(blob) == len(blob)
        assert frame_length(b"\x00" * 5 + blob, offset=5) == len(blob)


class TestStreams:

    def frames(self):
        return [encode_frame(KIND_DELTA, {"epoch": i},
                             [np.arange(i + 1)]) for i in range(4)]

    def test_split_round_trips_concatenation(self):
        blobs = self.frames()
        split, consumed = split_frames(b"".join(blobs))
        assert split == blobs
        assert consumed == sum(len(b) for b in blobs)

    def test_partial_tail_left_for_later(self):
        blobs = self.frames()
        data = b"".join(blobs) + blobs[0][:7]     # a mid-write tail
        split, consumed = split_frames(data)
        assert split == blobs
        assert data[consumed:] == blobs[0][:7]

    def test_corrupt_stream_is_loud_not_skipped(self):
        with pytest.raises(WireError, match="magic"):
            split_frames(self.frames()[0] + b"garbage-not-a-frame")

    def test_read_frames_decodes_everything(self):
        frames = read_frames(b"".join(self.frames()))
        assert [f.header["epoch"] for f in frames] == [0, 1, 2, 3]

    def test_read_frames_rejects_partial_tail(self):
        data = b"".join(self.frames()) + MAGIC[:3]
        with pytest.raises(WireError, match="incomplete"):
            read_frames(data)
