"""Serialization round-trips for every engine-registered type, plus
wire-format hardening (stale versions, garbage, tampered headers)."""

import io
import json
import zipfile

import numpy as np
import pytest

from repro.core import L0Sampler
from repro.engine import (FORMAT_VERSION, ShardedPipeline, StaleCheckpoint,
                          checkpoint, clone, restore, state_arrays)
from repro.service import Snapshot
from repro.sketch import CountMin
from repro.sketch.serialize import from_bytes
from repro.wire import KIND_PIPELINE, decode_frame, encode_frame

from _engine_cases import CASES, CASE_IDS, feed


def _tamper_header(blob: bytes, mutate) -> bytes:
    """Decode the wire frame, apply ``mutate(header dict)``, re-encode
    (kind and sections untouched)."""
    frame = decode_frame(blob)
    mutate(frame.header)
    return encode_frame(frame.kind, frame.header, frame.sections)


@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
class TestRoundtrip:
    def test_state_survives(self, case):
        original = case.factory(128, 5)
        feed(case, original, 128, 90, 5)
        twin = restore(checkpoint(original))
        assert type(twin) is type(original)
        for a, b in zip(state_arrays(original), state_arrays(twin)):
            assert np.array_equal(a, b)
            assert a.dtype == b.dtype

    def test_twin_continues_the_same_linear_map(self, case):
        original = case.factory(128, 5)
        feed(case, original, 128, 40, 5)
        twin = restore(checkpoint(original))
        feed(case, original, 128, 40, 6)
        feed(case, twin, 128, 40, 6)
        for a, b in zip(state_arrays(original), state_arrays(twin)):
            assert np.array_equal(a, b)

    def test_clone_is_independent(self, case):
        original = case.factory(128, 5)
        feed(case, original, 128, 40, 5)
        twin = clone(original)
        before = [np.array(a, copy=True) for a in state_arrays(twin)]
        feed(case, original, 128, 40, 7)
        assert all(np.array_equal(a, b)
                   for a, b in zip(before, state_arrays(twin)))


class TestQueryRNGContinuity:
    def test_l0_choice_rng_survives_checkpoint(self):
        """sample() consumes the choice RNG; a restored sampler must
        *continue* the draw sequence, not replay it from the seed."""
        sampler = L0Sampler(256, delta=0.2, seed=8)
        rng = np.random.default_rng(3)
        sampler.update_many(rng.integers(0, 256, 120),
                            rng.integers(1, 5, 120))
        for _ in range(3):
            sampler.sample()           # advance the choice RNG
        twin = restore(checkpoint(sampler))
        for _ in range(5):
            mine, theirs = sampler.sample(), twin.sample()
            assert mine.failed == theirs.failed
            assert mine.index == theirs.index


class TestRestoreSkipsBaselineRebuild:
    def test_duplicate_finder_twin_is_loaded_not_refed(self):
        """The restore path builds an empty twin (include_baseline=False)
        and loads state; behaviour must match the normal constructor."""
        from repro.apps.duplicates import DuplicateFinder
        from repro.streams import duplicate_stream

        instance = duplicate_stream(128, seed=6)
        finder = DuplicateFinder(128, delta=0.2, seed=9, sampler_rounds=4)
        finder.process_items(instance.items[:70])
        twin = restore(checkpoint(finder))
        for a, b in zip(state_arrays(finder), state_arrays(twin)):
            assert np.array_equal(a, b)
        finder.process_items(instance.items[70:])
        twin.process_items(instance.items[70:])
        assert str(finder.result()) == str(twin.result())

    def test_empty_twin_really_lacks_the_baseline(self):
        from repro.apps.duplicates import DuplicateFinder

        empty = DuplicateFinder(64, delta=0.25, seed=1, sampler_rounds=2,
                                include_baseline=False)
        assert all(not arr.any() for arr in state_arrays(empty))


class TestWireFormat:
    def _blob(self):
        sampler = L0Sampler(128, delta=0.2, seed=4)
        sampler.update_many(np.arange(10), np.arange(1, 11))
        return checkpoint(sampler)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            restore(b"definitely not a checkpoint")

    def test_sketch_frame_rejected_by_structure_restore(self):
        """serialize.py frames carry a different kind tag."""
        from repro.sketch import CountSketch

        sketch_frame = CountSketch(64, m=4, rows=5, seed=1).to_bytes()
        with pytest.raises(ValueError, match="structure frame"):
            restore(sketch_frame)

    def test_truncated_blob_rejected(self):
        blob = self._blob()
        for cut in (8, 100, len(blob) - 40):
            with pytest.raises(ValueError):
                restore(blob[:cut])

    def test_stale_version_rejected(self):
        def age(header):
            header["format"] = FORMAT_VERSION - 1

        stale = _tamper_header(self._blob(), age)
        with pytest.raises(StaleCheckpoint, match="format"):
            restore(stale)

    def test_future_version_rejected(self):
        def advance(header):
            header["format"] = FORMAT_VERSION + 1

        with pytest.raises(StaleCheckpoint):
            restore(_tamper_header(self._blob(), advance))

    def test_unknown_class_rejected(self):
        def rename(header):
            header["class"] = "L0Samplezz"

        with pytest.raises(ValueError, match="unknown"):
            restore(_tamper_header(self._blob(), rename))

    def test_tampered_params_shape_mismatch_rejected(self):
        def shrink(header):
            header["params"]["sparsity"] = 2  # shrinks the syndromes

        with pytest.raises(ValueError, match="mismatch"):
            restore(_tamper_header(self._blob(), shrink))

    def test_pipeline_frame_kind_rejected(self):
        pipeline = ShardedPipeline(lambda: L0Sampler(64, seed=1), shards=2)
        blob = pipeline.checkpoint()
        with pytest.raises(ValueError, match="pipeline"):
            restore(blob)              # structure restore on pipeline frame
        with pytest.raises(ValueError, match="structure"):
            ShardedPipeline.restore(self._blob())  # and vice versa

    def test_pipeline_stale_version_rejected(self):
        pipeline = ShardedPipeline(lambda: L0Sampler(64, seed=1), shards=2)

        def advance(header):
            header["format"] = FORMAT_VERSION + 3

        tampered = _tamper_header(pipeline.checkpoint(), advance)
        with pytest.raises(StaleCheckpoint):
            ShardedPipeline.restore(tampered)

    def test_unregistered_type_has_no_checkpoint(self):
        from repro.core import ReservoirSampler

        with pytest.raises(TypeError, match="not registered"):
            checkpoint(ReservoirSampler(64, seed=1))


# Pipeline checkpoints are wire frames too — same tamper helper.
_tamper_pipeline_header = _tamper_header


class TestPipelineHeaderValidation:
    """`ShardedPipeline.restore` must reject tampered headers instead
    of restoring a pipeline that misbehaves at the next ingest."""

    def _blob(self, shards: int = 2) -> bytes:
        pipeline = ShardedPipeline(lambda: L0Sampler(64, seed=1),
                                   shards=shards, chunk_size=8)
        pipeline.ingest(np.arange(16), np.ones(16, dtype=np.int64))
        return pipeline.checkpoint()

    def test_unknown_partition_rejected(self):
        def bogus(header):
            header["partition"] = "bogus"

        with pytest.raises(ValueError, match="partition"):
            ShardedPipeline.restore(
                _tamper_pipeline_header(self._blob(), bogus))

    @pytest.mark.parametrize("bad", [0, -3, "16", 2.5, None, True])
    def test_invalid_chunk_size_rejected(self, bad):
        def poison(header):
            header["chunk_size"] = bad

        with pytest.raises(ValueError, match="chunk_size"):
            ShardedPipeline.restore(
                _tamper_pipeline_header(self._blob(), poison))

    def test_negative_updates_ingested_rejected(self):
        def negate(header):
            header["updates_ingested"] = -7

        with pytest.raises(ValueError, match="updates_ingested"):
            ShardedPipeline.restore(
                _tamper_pipeline_header(self._blob(), negate))

    def test_shards_count_below_payload_rejected(self):
        """Declaring fewer shards than framed sections — silently
        dropping a shard's state would be a lie."""
        def shrink(header):
            header["shards"] = 1

        with pytest.raises(ValueError, match="shard"):
            ShardedPipeline.restore(
                _tamper_pipeline_header(self._blob(shards=2), shrink))

    def test_shards_count_above_payload_rejected(self):
        def inflate(header):
            header["shards"] = 5

        with pytest.raises(ValueError, match="shard"):
            ShardedPipeline.restore(
                _tamper_pipeline_header(self._blob(shards=2), inflate))

    def test_zero_shards_rejected(self):
        def zero(header):
            header["shards"] = 0
            header["cursor"] = 0

        with pytest.raises(ValueError, match="shards"):
            ShardedPipeline.restore(
                _tamper_pipeline_header(self._blob(), zero))

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ValueError, match="trailing"):
            ShardedPipeline.restore(self._blob() + b"garbage")

    def test_cursor_out_of_range_rejected(self):
        def runaway(header):
            header["cursor"] = header["shards"]

        with pytest.raises(ValueError, match="cursor"):
            ShardedPipeline.restore(
                _tamper_pipeline_header(self._blob(), runaway))

    def test_non_object_header_rejected(self):
        frame = decode_frame(self._blob())
        bad = encode_frame(frame.kind, [1, 2, 3], frame.sections)
        with pytest.raises(ValueError):
            ShardedPipeline.restore(bad)

    def test_truncated_payload_rejected(self):
        blob = self._blob()
        for cut in (8, len(blob) // 2, len(blob) - 9):
            with pytest.raises(ValueError):
                ShardedPipeline.restore(blob[:cut])

    def test_intact_blob_still_restores(self):
        """The validation must not reject what checkpoint() writes."""
        restored = ShardedPipeline.restore(self._blob())
        assert restored.updates_ingested == 16
        assert restored.shards == 2

    def test_shards_override_does_not_bypass_validation(self):
        """restore(..., shards=) folds and re-seats, but only after the
        header passed the same checks as a plain restore — corruption
        cannot hide behind the cross-K path."""
        def bogus_partition(header):
            header["partition"] = "bogus"

        def inflate(header):
            header["shards"] = 5   # more than the framed payload

        with pytest.raises(ValueError, match="partition"):
            ShardedPipeline.restore(
                _tamper_pipeline_header(self._blob(), bogus_partition),
                shards=4)
        with pytest.raises(ValueError, match="shard"):
            ShardedPipeline.restore(
                _tamper_pipeline_header(self._blob(), inflate), shards=4)
        with pytest.raises(ValueError, match="trailing"):
            ShardedPipeline.restore(self._blob() + b"junk", shards=4)

    def test_shards_override_cross_k_restores_and_continues(self):
        pipeline = ShardedPipeline(lambda: L0Sampler(64, seed=1),
                                   shards=2, chunk_size=8)
        pipeline.ingest(np.arange(16), np.ones(16, dtype=np.int64))
        restored = ShardedPipeline.restore(pipeline.checkpoint(),
                                           shards=4)
        assert restored.shards == 4
        assert restored.updates_ingested == 16
        restored.ingest(np.arange(8), np.ones(8, dtype=np.int64))
        pipeline.ingest(np.arange(8), np.ones(8, dtype=np.int64))
        mine = state_arrays(pipeline.merged())
        theirs = state_arrays(restored.merged())
        assert all(np.array_equal(a, b) for a, b in zip(mine, theirs))


def _retired_header(magic: bytes, header: dict) -> bytes:
    """The retired pre-wire prefix: magic, 4-byte big-endian JSON
    header length, JSON header."""
    encoded = json.dumps(header).encode("utf-8")
    return magic + len(encoded).to_bytes(4, "big") + encoded


def _npz(arrays) -> bytes:
    buffer = io.BytesIO()
    np.savez(buffer, **{f"a{i}": np.asarray(a)
                        for i, a in enumerate(arrays)})
    return buffer.getvalue()


def _retired_blobs() -> dict:
    """One well-formed blob per retired pre-wire format: an ``RPRO1``
    sketch, a format-2 ``RPROCK`` structure and a format-2 ``RPROPL``
    pipeline holding that structure as its one shard."""
    sketch = CountMin(64, buckets=8, rows=3, seed=1)
    sketch.update_many(np.arange(16), np.ones(16, dtype=np.int64))
    described = {"class": "CountMin", "params": sketch._params()}
    structure = (_retired_header(b"RPROCK", {"format": 2, **described})
                 + _npz(state_arrays(sketch)))
    pipeline = (_retired_header(b"RPROPL", {
        "format": 2, "partition": "hash", "chunk_size": 8, "cursor": 0,
        "updates_ingested": 16, "shards": 1})
        + len(structure).to_bytes(8, "big") + structure)
    return {
        "RPRO1": _retired_header(b"RPRO1", described)
        + _npz(state_arrays(sketch)),
        "RPROCK": structure,
        "RPROPL": pipeline,
    }


_READERS = {
    "from_bytes": from_bytes,
    "restore": restore,
    "ShardedPipeline.restore": ShardedPipeline.restore,
    "Snapshot.from_checkpoint": Snapshot.from_checkpoint,
}


class TestRetiredFormats:
    """Only ``RPROWF`` wire frames are readable: every reader rejects
    the retired pre-wire formats with a typed error."""

    @pytest.mark.parametrize("reader", sorted(_READERS))
    @pytest.mark.parametrize("magic", ["RPRO1", "RPROCK", "RPROPL"])
    def test_rejected_by_every_reader(self, magic, reader):
        with pytest.raises(ValueError):
            _READERS[reader](_retired_blobs()[magic])

    def test_hostile_shard_in_pipeline_frame_is_never_loaded(
            self, monkeypatch):
        """A follower's subscribe base is a pipeline frame whose shard
        sections are peer-supplied bytes.  A retired-format shard whose
        npz header declares a (2**47, 8) int64 array (8 PiB) must be
        rejected as malformed before any payload parser sizes an
        allocation from it."""
        npy = io.BytesIO()
        np.lib.format.write_array_header_1_0(npy, {
            "descr": "<i8", "fortran_order": False, "shape": (2**47, 8)})
        archive = io.BytesIO()
        with zipfile.ZipFile(archive, "w") as bundle:
            bundle.writestr("a0.npy", npy.getvalue())
        shard = (_retired_header(b"RPROCK", {
            "format": 2, "class": "CountMin",
            "params": {"universe": 16, "buckets": 4, "rows": 2,
                       "seed": 0}}) + archive.getvalue())
        assert len(shard) < 512
        frame = encode_frame(KIND_PIPELINE, {
            "format": FORMAT_VERSION, "partition": "hash",
            "chunk_size": 8, "cursor": 0, "updates_ingested": 0,
            "shards": 1}, [np.frombuffer(shard, dtype=np.uint8)])
        loads = []
        real_load = np.load

        def spy(*args, **kwargs):
            loads.append(args)
            return real_load(*args, **kwargs)

        monkeypatch.setattr(np, "load", spy)
        with pytest.raises(ValueError):
            ShardedPipeline.restore(frame)
        assert loads == []


class TestMalformedHeaders:
    """Structure and sketch frames whose header cannot describe a
    constructible twin raise ``ValueError``, never a bare
    ``KeyError``/``TypeError``."""

    @pytest.mark.parametrize("kind", ["structure", "sketch"])
    @pytest.mark.parametrize("mutate", [
        lambda header: header.pop("class"),
        lambda header: header.update({"class": ["CountMin"]}),
        lambda header: header.pop("params"),
        lambda header: header.update(params=[64, 8, 3, 1]),
        lambda header: header["params"].update(bogus=1),
    ], ids=["no-class", "class-not-string", "no-params",
            "params-not-object", "rejected-param"])
    def test_rejected_with_value_error(self, kind, mutate):
        sketch = CountMin(64, buckets=8, rows=3, seed=1)
        if kind == "structure":
            blob, read = checkpoint(sketch), restore
        else:
            blob, read = sketch.to_bytes(), from_bytes
        with pytest.raises(ValueError):
            read(_tamper_header(blob, mutate))
