"""Kernel-equivalence property suite for the fused ingestion fast path.

The fused kernels (stacked hash evaluation + batched scatter/reduce)
must be *byte-identical* to the historical per-row paths, which every
sketch keeps as ``_reference_update_many``.  These tests pin that
contract for every fused sketch type over random batches including the
edge shapes (empty, singleton, duplicate indices, multi-batch
sequences), plus the underlying primitives: stacked hash families
against their per-row originals and the counter-RNG block API against
the per-stream calls.  The paper's L0 sampler (Theorem 2) rides the same
suite: its fused multi-level update against the per-level loop, in
both level-derivation modes.
"""

import numpy as np
import pytest

import repro.core.l0_sampler as l0_module
from repro.core.l0_sampler import L0Sampler
from repro.engine import state_arrays
from repro.hashing.kwise import BucketHash, KWiseHash, SignHash, derive_rngs
from repro.hashing.prng import CounterRNG
from repro.sketch import AMSSketch, CountMin, CountSketch, StableSketch
from repro.sketch.l0_estimator import L0Estimator

UNIVERSE = 1 << 12

FUSED_SKETCHES = [
    ("CountSketch", lambda s: CountSketch(UNIVERSE, m=8, rows=5, seed=s)),
    ("CountMin", lambda s: CountMin(UNIVERSE, buckets=48, rows=5, seed=s)),
    ("AMSSketch", lambda s: AMSSketch(UNIVERSE, groups=5, per_group=4,
                                      seed=s)),
    ("StableSketch", lambda s: StableSketch(UNIVERSE, 0.75, rows=11,
                                            seed=s)),
    ("L0Estimator", lambda s: L0Estimator(UNIVERSE, reps=5, seed=s)),
    ("L0Sampler-kwise", lambda s: L0Sampler(UNIVERSE, seed=s)),
    ("L0Sampler-nisan", lambda s: L0Sampler(UNIVERSE, seed=s,
                                            mode="nisan")),
]
FUSED_IDS = [name for name, _ in FUSED_SKETCHES]


def _batches(rng, count=6):
    """Random turnstile batches incl. empty, singleton and duplicates."""
    batches = [
        (np.array([], dtype=np.int64), np.array([], dtype=np.int64)),
        (np.array([7], dtype=np.int64), np.array([3], dtype=np.int64)),
        (np.array([5, 5, 5, 5], dtype=np.int64),
         np.array([1, -2, 3, -4], dtype=np.int64)),
    ]
    for _ in range(count):
        n = int(rng.integers(1, 5000))
        batches.append((rng.integers(0, UNIVERSE, size=n),
                        rng.integers(-50, 50, size=n)))
    rng.shuffle(batches)
    return batches


@pytest.mark.parametrize("name,build", FUSED_SKETCHES, ids=FUSED_IDS)
class TestFusedMatchesReference:
    def test_tables_byte_identical_over_batch_sequence(self, name, build):
        """fused == reference bit for bit, float state included, after
        a whole sequence of batches (not just from a zero table)."""
        rng = np.random.default_rng(101)
        fused, reference = build(3), build(3)
        for indices, deltas in _batches(rng):
            fused.update_many(indices, deltas)
            reference._reference_update_many(indices, deltas)
            for mine, theirs in zip(state_arrays(fused),
                                    state_arrays(reference)):
                assert np.array_equal(mine, theirs)

    def test_single_update_matches(self, name, build):
        fused, reference = build(5), build(5)
        fused.update(42, -7)
        reference._reference_update_many(np.array([42]), np.array([-7]))
        for mine, theirs in zip(state_arrays(fused),
                                state_arrays(reference)):
            assert np.array_equal(mine, theirs)

    def test_empty_batch_is_noop(self, name, build):
        sketch = build(1)
        before = [arr.copy() for arr in state_arrays(sketch)]
        sketch.update_many(np.array([], dtype=np.int64),
                           np.array([], dtype=np.int64))
        for arr, ref in zip(state_arrays(sketch), before):
            assert np.array_equal(arr, ref)


def _assert_same_state(mine, theirs):
    for a, b in zip(state_arrays(mine), state_arrays(theirs)):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("mode", ["kwise", "nisan"])
class TestFusedL0Sampler:
    """The L0 sampler's fused write path: one depth pass, prefix sums
    over the depth-sorted block, stacked fingerprint powers."""

    def test_depths_reaching_the_last_level(self, mode):
        """Updates surviving to the deepest level (and a batch whose
        deepest members sit there alone) take the same path."""
        indices = np.arange(64, dtype=np.int64)
        # The first seed whose level sets reach the deepest level.
        seed = next(s for s in range(100) if np.any(
            L0Sampler(64, seed=s, mode=mode)._survival_depth(indices)
            == L0Sampler(64).levels - 1))
        fused, reference = (L0Sampler(64, seed=seed, mode=mode)
                            for _ in range(2))
        depth = fused._survival_depth(indices)
        deepest = indices[depth == fused.levels - 1]
        for batch in (deepest, indices, np.repeat(deepest, 3)):
            deltas = np.arange(1, batch.size + 1, dtype=np.int64)
            fused.update_many(batch, deltas)
            reference._reference_update_many(batch, deltas)
            _assert_same_state(fused, reference)
        assert fused._recoveries[-1].syndromes.any()

    def test_extreme_deltas_and_cancellation(self, mode):
        fused, reference = (L0Sampler(UNIVERSE, seed=8, mode=mode)
                            for _ in range(2))
        indices = np.array([0, 1, UNIVERSE - 1, 1, 0], dtype=np.int64)
        deltas = np.array([-(2**63), 2**63 - 1, -1, -(2**63 - 1), 2**63 - 1],
                          dtype=np.int64)
        fused.update_many(indices, deltas)
        reference._reference_update_many(indices, deltas)
        _assert_same_state(fused, reference)

    def test_block_size_does_not_change_state(self, mode, monkeypatch):
        """Blocked processing (tiny blocks, ragged tail) == one pass."""
        rng = np.random.default_rng(12)
        indices = rng.integers(0, UNIVERSE, size=1000)
        deltas = rng.integers(-9, 9, size=1000)
        whole = L0Sampler(UNIVERSE, seed=2, mode=mode)
        whole.update_many(indices, deltas)
        monkeypatch.setattr(l0_module, "_FUSED_BLOCK", 37)
        blocked, reference = (L0Sampler(UNIVERSE, seed=2, mode=mode)
                              for _ in range(2))
        blocked.update_many(indices, deltas)
        reference._reference_update_many(indices, deltas)
        _assert_same_state(blocked, whole)
        _assert_same_state(blocked, reference)


class TestStackedHashes:
    def test_stacked_kwise_rows_match_per_row(self):
        rngs = derive_rngs(11, 6)
        for k in (1, 2, 3, 5):
            hashes = [KWiseHash(k, r) for r in rngs]
            stacked = KWiseHash.stack(hashes)
            keys = np.random.default_rng(0).integers(
                0, 2**62, size=257, dtype=np.uint64)
            table = stacked(keys)
            assert table.shape == (len(hashes), keys.size)
            for j, h in enumerate(hashes):
                assert np.array_equal(table[j], h(keys))

    def test_stacked_bucket_rows_match_per_row(self):
        rngs = derive_rngs(13, 5)
        hashes = [BucketHash(2, 37, r) for r in rngs]
        stacked = BucketHash.stack(hashes)
        keys = np.arange(500, dtype=np.uint64)
        table = stacked(keys)
        for j, h in enumerate(hashes):
            assert np.array_equal(np.asarray(table[j], dtype=np.uint64),
                                  h(keys))

    def test_stacked_sign_rows_match_per_row(self):
        rngs = derive_rngs(17, 5)
        hashes = [SignHash(4, r) for r in rngs]
        stacked = SignHash.stack(hashes)
        keys = np.arange(500, dtype=np.uint64)
        table = stacked(keys)
        values = np.random.default_rng(1).standard_normal(keys.size)
        applied = stacked.apply(keys, values)
        for j, h in enumerate(hashes):
            assert np.array_equal(table[j], h(keys))
            assert np.array_equal(applied[j], h(keys) * values)

    def test_stack_rejects_mismatched_families(self):
        rngs = derive_rngs(19, 4)
        with pytest.raises(ValueError, match="share k"):
            KWiseHash.stack([KWiseHash(2, rngs[0]), KWiseHash(3, rngs[1])])
        with pytest.raises(ValueError, match="share a range"):
            BucketHash.stack([BucketHash(2, 8, rngs[2]),
                              BucketHash(2, 16, rngs[3])])
        with pytest.raises(ValueError, match="at least one"):
            KWiseHash.stack([])

    def test_stacked_k1_is_constant_rows(self):
        rngs = derive_rngs(23, 3)
        hashes = [KWiseHash(1, r) for r in rngs]
        stacked = KWiseHash.stack(hashes)
        keys = np.arange(40, dtype=np.uint64)
        table = stacked(keys)
        for j, h in enumerate(hashes):
            assert np.array_equal(table[j], h(keys))


class TestCounterRNGBlocks:
    def test_raw_and_uniform_blocks_match_per_stream(self):
        rng = CounterRNG(0xFEED)
        keys = np.arange(300, dtype=np.uint64)
        streams = np.array([0, 1, 5, 17], dtype=np.uint64)
        raw = rng.raw_block(keys, streams)
        uni = rng.uniform_block(keys, streams)
        for j, stream in enumerate(streams):
            assert np.array_equal(raw[j], rng.raw(keys, int(stream)))
            assert np.array_equal(uni[j], rng.uniform(keys, int(stream)))

    @pytest.mark.parametrize("p", [0.3, 0.75, 1.0, 1.4, 2.0])
    def test_stable_block_matches_per_stream(self, p):
        rng = CounterRNG(0xBEEF)
        keys = np.arange(200, dtype=np.uint64)
        streams = np.arange(6, dtype=np.uint64)
        block = rng.stable_block(p, keys, streams)
        for j in range(streams.size):
            assert np.array_equal(block[j], rng.stable(p, keys, stream=j))

    def test_stable_block_rejects_bad_p(self):
        rng = CounterRNG(1)
        with pytest.raises(ValueError):
            rng.stable_block(0.0, np.arange(4, dtype=np.uint64),
                             np.arange(2, dtype=np.uint64))


class TestChunkedEstimation:
    """Satellite: estimate_all/estimate_many run in bounded blocks."""

    def _filled(self, seed=6):
        sketch = CountSketch(UNIVERSE, m=16, rows=7, seed=seed)
        rng = np.random.default_rng(seed)
        sketch.update_many(rng.integers(0, UNIVERSE, size=20_000),
                           rng.integers(-9, 9, size=20_000))
        return sketch

    def test_block_size_does_not_change_estimates(self, monkeypatch):
        sketch = self._filled()
        full = sketch.estimate_all()
        monkeypatch.setattr("repro.sketch.count_sketch._ESTIMATE_BLOCK",
                            257)
        assert np.array_equal(sketch.estimate_all(), full)
        some = np.arange(0, UNIVERSE, 3, dtype=np.int64)
        assert np.array_equal(sketch.estimate_many(some), full[some])

    def test_matches_per_row_gather(self):
        """The chunked gather equals the definitionally per-row
        median estimate."""
        sketch = self._filled(8)
        idx = np.random.default_rng(0).integers(0, UNIVERSE, size=500)
        samples = np.empty((sketch.rows, idx.size))
        for j in range(sketch.rows):
            buckets = sketch._bucket_hashes[j](idx).astype(np.int64)
            samples[j] = sketch._sign_hashes[j](idx) \
                * sketch.table[j, buckets]
        assert np.array_equal(sketch.estimate_many(idx),
                              np.median(samples, axis=0))

    def test_scalar_and_empty(self):
        sketch = self._filled(9)
        assert sketch.estimate(5) == float(sketch.estimate_all()[5])
        empty = sketch.estimate_many(np.array([], dtype=np.int64))
        assert empty.size == 0
