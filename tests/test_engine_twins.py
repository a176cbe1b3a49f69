"""Twins built from the memoized prototype: byte-identical to the
constructor, sharing only the immutable hash objects.

:func:`repro.engine.checkpoint.build_twin` runs each structure's
constructor once per ``(class, params)`` and deep-copies that
prototype afterwards.  These tests pin what the copy must preserve
(the checkpoint bytes of a constructor-built instance, for every
registered type), what it may share (the read-only hash objects) and
what it must not (state and the L0 choice generator), plus the memo's
bound under hostile input and a call-count guard on the engine paths
that build twins.
"""

import numpy as np
import pytest

from repro.core import L0Sampler
from repro.engine import (ShardedPipeline, checkpoint, clone, params_of,
                          registered_types, restore)
from repro.engine.checkpoint import (_PROTOTYPE_SLOTS, _prototype,
                                     build_twin)
from repro.sketch import CountSketch
from repro.wire import decode_frame, encode_frame

from _engine_cases import CASES, CASE_IDS, feed, random_turnstile


def _constructed(name: str, params: dict):
    """A constructor-built instance, no prototype involved."""
    spec = registered_types()[name]
    if spec.build is None:
        return spec.cls(**params)
    return spec.build(params)


# CASES covers registered_types() (pinned in test_engine_properties).
@pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
class TestTwinBytes:
    def test_twin_checkpoint_equals_constructor(self, case):
        params = params_of(case.factory(128, 5))
        twin = build_twin(case.name, params)
        assert checkpoint(twin) == checkpoint(_constructed(case.name,
                                                           params))

    def test_ingest_into_one_twin_leaves_the_next_fresh(self, case):
        params = params_of(case.factory(128, 5))
        first = build_twin(case.name, params)
        feed(case, first, 128, 60, 5)
        second = build_twin(case.name, params)
        assert checkpoint(second) == checkpoint(_constructed(case.name,
                                                             params))
        assert checkpoint(first) != checkpoint(second)


class TestSharedHashes:
    def test_twins_share_their_hash_objects(self):
        sketch = CountSketch(256, m=4, rows=3, seed=11)
        a, b = clone(sketch), clone(sketch)
        assert a._fused_rows is b._fused_rows
        assert all(x is y for x, y in zip(a._bucket_hashes,
                                          b._bucket_hashes))
        assert all(x is y for x, y in zip(a._sign_hashes, b._sign_hashes))
        assert a.table is not b.table

    def test_writing_shared_coefficients_raises(self):
        sketch = CountSketch(256, m=4, rows=3, seed=11)
        a, b = clone(sketch), clone(sketch)
        before = checkpoint(b)
        with pytest.raises(ValueError):
            a._fused_rows.coeffs[0, 0] = 1
        with pytest.raises(ValueError):
            a._bucket_hashes[0].kwise.coeffs[0] = 1
        with pytest.raises(ValueError):
            a._sign_hashes[0].kwise.coeffs += 1
        assert checkpoint(b) == before

    def test_nisan_seed_is_immutable_and_shared(self):
        sampler = L0Sampler(64, delta=0.25, seed=3, mode="nisan")
        a, b = clone(sampler), clone(sampler)
        assert a._prg is b._prg
        with pytest.raises(TypeError):
            a._prg.mults[0] = 1
        with pytest.raises(TypeError):
            a._prg.adds[0] = 1

    def test_sample_on_one_l0_clone_leaves_the_other(self):
        # Seed 1 samples from a level holding two elements, so each
        # draw consumes the choice generator.
        sampler = L0Sampler(256, delta=0.2, seed=1)
        rng = np.random.default_rng(3)
        sampler.update_many(rng.integers(0, 256, 120),
                            rng.integers(1, 5, 120))
        a, b = clone(sampler), clone(sampler)
        assert a._choice_rng is not b._choice_rng
        before_a, before_b = checkpoint(a), checkpoint(b)
        for _ in range(20):
            a.sample()
        assert checkpoint(a) != before_a     # the draws consumed a's rng
        assert checkpoint(b) == before_b


def _with_seed(blob: bytes, seed: int) -> bytes:
    frame = decode_frame(blob)
    frame.header["params"]["seed"] = seed
    return encode_frame(frame.kind, frame.header, frame.sections)


class TestPrototypeMemo:
    def test_many_distinct_seeds_stay_within_the_bound(self):
        blob = checkpoint(CountSketch(64, m=1, rows=1, seed=0))
        for seed in range(1000):
            assert restore(_with_seed(blob, seed)).seed == seed
        assert _prototype.cache_info().currsize == _PROTOTYPE_SLOTS

    def test_rejected_params_raise_and_are_not_cached(self):
        _prototype.cache_clear()
        bad = [dict(universe=64, m=0, rows=1, seed=0),
               dict(universe=64, m=1, rows=1, seed=0, bogus=1)]
        for params in bad:
            for _ in range(2):
                with pytest.raises(ValueError):
                    build_twin("CountSketch", params)
        info = _prototype.cache_info()
        assert info.currsize == 0
        assert info.hits == 0

    def test_params_must_be_json(self):
        with pytest.raises(ValueError, match="not JSON"):
            build_twin("CountSketch", dict(universe=64, m=1, rows=1,
                                           seed=object()))


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_engine_rounds_construct_each_map_once(backend, monkeypatch):
    """ingest -> merged() -> checkpoint(since=) builds no new map after
    the first round: restores, clones and folds copy the prototype.
    A count, not a timing floor, so it holds on any runner."""
    calls = []
    original = CountSketch.__init__

    def counting(self, *args, **kwargs):
        calls.append(1)
        original(self, *args, **kwargs)

    universe = 4096
    with ShardedPipeline(lambda: CountSketch(universe, m=8, rows=5,
                                             seed=21),
                         shards=2, chunk_size=256,
                         backend=backend) as pipeline:
        monkeypatch.setattr(CountSketch, "__init__", counting)
        pipeline.checkpoint()
        epoch = pipeline.updates_ingested
        after_first = None
        for round_ in range(20):
            indices, deltas = random_turnstile(universe, 512, round_)
            pipeline.ingest(indices, deltas)
            pipeline.merged()
            pipeline.checkpoint(since=epoch)
            epoch = pipeline.updates_ingested
            if round_ == 0:
                after_first = len(calls)
        assert len(calls) - after_first <= 1
