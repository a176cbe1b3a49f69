"""Tests for sketch serialization (sketch/serialize.py)."""

import numpy as np
import pytest

from repro.recovery import (IBLTSparseRecovery, OneSparseDetector,
                            SyndromeSparseRecovery)
from repro.sketch import (AMSSketch, CountMin, CountSketch, L0Estimator,
                          StableSketch)
from repro.sketch.serialize import from_bytes, wire_bits
from repro.streams import sparse_vector, vector_to_stream, zipf_vector

ALL_SKETCHES = [
    lambda: CountSketch(200, m=5, rows=7, seed=3),
    lambda: CountMin(200, buckets=16, rows=5, seed=3),
    lambda: AMSSketch(200, groups=5, per_group=4, seed=3),
    lambda: StableSketch(200, 1.0, rows=15, seed=3),
    lambda: L0Estimator(200, reps=5, seed=3),
    lambda: SyndromeSparseRecovery(200, sparsity=4, seed=3),
    lambda: IBLTSparseRecovery(200, sparsity=4, seed=3),
    lambda: OneSparseDetector(200, seed=3),
]


@pytest.mark.parametrize("factory", ALL_SKETCHES,
                         ids=lambda f: type(f()).__name__)
class TestRoundtrip:
    def test_state_survives(self, factory):
        original = factory()
        vec = zipf_vector(200, scale=40, seed=5)
        vector_to_stream(vec, seed=5).apply_to(original)
        clone = from_bytes(original.to_bytes())
        for a, b in zip(original._state_arrays(), clone._state_arrays()):
            assert np.array_equal(a, b)

    def test_clone_continues_the_same_linear_map(self, factory):
        """The protocol property: updating the shipped clone equals
        updating the original — identical maps, identical state."""
        original = factory()
        original.update(7, 3)
        clone = from_bytes(original.to_bytes())
        original.update(11, -2)
        clone.update(11, -2)
        for a, b in zip(original._state_arrays(), clone._state_arrays()):
            assert np.array_equal(a, b)

    def test_wire_bits_positive(self, factory):
        assert wire_bits(factory()) > 0


class TestProtocolUseCase:
    def test_diff_through_the_wire(self):
        """Alice sketches x, ships bytes; Bob subtracts y; recovery
        finds the sparse difference — Proposition 5 made literal."""
        n = 300
        x = sparse_vector(n, 10, seed=1)
        y = x.copy()
        y[5] += 4
        alice = SyndromeSparseRecovery(n, sparsity=4, seed=9)
        alice.sketch_vector(vector=x)
        wire = alice.to_bytes()

        bob = from_bytes(wire)
        negative_y = -y
        bob.sketch_vector(vector=negative_y)
        result = bob.recover()
        assert not result.dense
        diff = result.to_dense(n)
        assert diff[5] == -4 and np.count_nonzero(diff) == 1


class TestWireFraming:
    def test_blob_is_a_sketch_wire_frame(self):
        from repro.wire import KIND_SKETCH, peek_header

        cs = CountSketch(100, m=4, rows=5, seed=1)
        kind, header = peek_header(cs.to_bytes())
        assert kind == KIND_SKETCH
        assert header["class"] == "CountSketch"
        assert header["params"] == cs._params()

    def test_compressed_blob_round_trips(self):
        cm = CountMin(200, buckets=16, rows=5, seed=3)
        vector_to_stream(zipf_vector(200, scale=40, seed=5),
                         seed=5).apply_to(cm)
        clone = from_bytes(cm.to_bytes(compress="zlib"))
        for a, b in zip(cm._state_arrays(), clone._state_arrays()):
            assert np.array_equal(a, b)


class TestErrorHandling:
    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            from_bytes(b"not a sketch at all")

    def test_wrong_class_via_classmethod(self):
        cs = CountSketch(100, m=4, rows=5, seed=1)
        with pytest.raises(ValueError):
            AMSSketch.from_bytes(cs.to_bytes())

    def test_unknown_class_rejected(self):
        cs = CountSketch(100, m=4, rows=5, seed=1)
        data = bytearray(cs.to_bytes())
        # corrupt the class name inside the JSON header
        data = bytes(data).replace(b"CountSketch", b"CountSketzz")
        with pytest.raises(ValueError):
            from_bytes(data)
