"""Unit suite for the query service (repro/service/).

Covers, per ISSUE 4: epoch-stamped immutable snapshots (capture and
checkpoint-boot paths), loud capability gaps over *every* registered
spec, the epoch-keyed LRU result cache, the snapshot refresh/retention
policy, the merged() per-epoch fold memo, and the watermark autoscale
trigger.
"""

import numpy as np
import pytest

import repro.engine.pipeline as pipeline_mod
from repro.apps.heavy_hitters import (CountMedianHeavyHitters,
                                      CountSketchHeavyHitters)
from repro.core import L0Sampler
from repro.engine import (ShardedPipeline, UnsupportedQuery, checkpoint,
                          clone, query_algebra, query_capabilities,
                          query_capability, registered_types, state_arrays)
from repro.service import (LoadMonitor, QueryRouter, QueryService,
                           ResultCache, Snapshot, SnapshotManager,
                           WatermarkPolicy)
from repro.sketch import AMSSketch, CountSketch

from _engine_cases import CASES, CASE_IDS, random_turnstile, states_equal


def _hh_pipeline(universe=1024, shards=3, seed=3, chunk=128):
    return ShardedPipeline(
        lambda: CountMedianHeavyHitters(universe, phi=0.1, seed=seed,
                                        strict=False),
        shards=shards, chunk_size=chunk)


def _workload(universe=1024, length=4000, seed=0):
    return random_turnstile(universe, length, seed)


# ---------------------------------------------------------------------------
# Snapshots


class TestSnapshot:
    def test_capture_stamps_the_epoch(self):
        with _hh_pipeline() as pipe:
            idx, dlt = _workload()
            pipe.ingest(idx, dlt)
            snap = Snapshot.capture(pipe)
            assert snap.epoch == pipe.updates_ingested == idx.size
            assert snap.structure_type == "CountMedianHeavyHitters"
            assert snap.source == "pipeline"

    def test_snapshot_is_isolated_from_further_ingestion(self):
        with _hh_pipeline() as pipe:
            idx, dlt = _workload()
            pipe.ingest(idx, dlt)
            snap = Snapshot.capture(pipe)
            frozen = [np.array(a, copy=True)
                      for a in state_arrays(snap.structure)]
            pipe.ingest(idx, dlt)          # keep writing
            assert all(np.array_equal(a, b) for a, b in
                       zip(frozen, state_arrays(snap.structure)))

    def test_mutating_query_leaves_snapshot_frozen_and_deterministic(self):
        pipe = ShardedPipeline(lambda: L0Sampler(512, delta=0.2, seed=7),
                               shards=2, chunk_size=64)
        with pipe:
            pipe.ingest(np.arange(40), np.ones(40, dtype=np.int64))
            snap = Snapshot.capture(pipe)
            router = QueryRouter(cache=ResultCache(0))
            frozen = [np.array(a, copy=True)
                      for a in state_arrays(snap.structure)]
            first = router.query(snap, "sample_l0", count=3)
            assert all(np.array_equal(a, b) for a, b in
                       zip(frozen, state_arrays(snap.structure)))
            # The choice RNG is part of the clone, so a draw sequence
            # at an epoch is reproducible — which is exactly what
            # makes caching sample_l0 sound.
            second = router.query(snap, "sample_l0", count=3)
            assert [r.index for r in first] == [r.index for r in second]

    def test_from_pipeline_checkpoint_carries_the_epoch(self):
        with _hh_pipeline() as pipe:
            idx, dlt = _workload()
            pipe.ingest(idx, dlt)
            live = Snapshot.capture(pipe)
            blob = pipe.checkpoint()
        snap = Snapshot.from_checkpoint(blob)
        assert snap.epoch == idx.size
        assert snap.source == "checkpoint"
        assert states_equal(snap.structure, live.structure, exact=True)
        with pytest.raises(ValueError, match="carries its own epoch"):
            Snapshot.from_checkpoint(blob, epoch=5)

    def test_from_structure_checkpoint_defaults_epoch_zero(self):
        sketch = CountSketch(256, m=8, rows=5, seed=2)
        sketch.update_many([1, 2], [3, 4])
        snap = Snapshot.from_checkpoint(checkpoint(sketch))
        assert snap.epoch == 0
        assert Snapshot.from_checkpoint(checkpoint(sketch),
                                        epoch=17).epoch == 17
        assert states_equal(snap.structure, sketch, exact=True)

    def test_garbage_blob_rejected(self):
        with pytest.raises(ValueError, match="bad magic"):
            Snapshot.from_checkpoint(b"not a checkpoint at all")

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError, match="epoch"):
            Snapshot(CountSketch(16, m=2, rows=3), epoch=-1)


# ---------------------------------------------------------------------------
# Capability gaps (satellite: fail loudly, every registered spec)


#: op -> kwargs that are valid *whenever the type supports the op* on
#: the small instances _engine_cases builds.
_CANONICAL_ARGS = {
    "point": {"index": 1},
    "top": {"count": 2},
    "norm": {},
    "heavy_hitters": {},
    "sample_l0": {"count": 1},
    "sample_lp": {},
    "support": {},
    "recover": {},
    "moment": {},
    "duplicates": {},
}


def _fed(case, universe=64, seed=0):
    structure = case.factory(universe, seed)
    if case.item_stream:
        structure.process_items(np.arange(10, dtype=np.int64))
    else:
        structure.update_many(np.arange(10, dtype=np.int64),
                              np.ones(10, dtype=np.int64))
    return structure


class TestCapabilityTable:
    def test_algebra_covers_canonical_args(self):
        """Every op the registry knows has a canonical invocation here
        (so the sweep below can actually run it) except inner, which
        needs a second snapshot operand."""
        assert set(query_algebra()) - {"inner"} == set(_CANONICAL_ARGS)

    def test_every_registered_type_appears_in_a_case(self):
        assert {case.name for case in CASES} == set(registered_types())

    @pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
    def test_gaps_raise_unsupported_query_naming_both_sides(self, case):
        """For every registered spec: supported ops run, unsupported
        ops raise UnsupportedQuery naming the type and the op."""
        structure = _fed(case, seed=3)
        snap = Snapshot(structure, epoch=10)
        router = QueryRouter(cache=ResultCache(0))
        supported = set(query_capabilities(structure))
        assert supported, f"{case.name} registers no query at all"
        for op, args in _CANONICAL_ARGS.items():
            if op in supported:
                router.query(snap, op, **args)   # must not raise
            else:
                with pytest.raises(UnsupportedQuery) as err:
                    router.query(snap, op, **args)
                assert case.name in str(err.value)
                assert op in str(err.value)
                assert err.value.type_name == case.name
                assert err.value.op == op

    def test_ams_heavy_hitters_is_the_canonical_gap(self):
        snap = Snapshot(AMSSketch(64, groups=3, per_group=4, seed=1),
                        epoch=0)
        with pytest.raises(UnsupportedQuery,
                           match="AMSSketch does not support .*"
                                 "heavy_hitters"):
            QueryRouter().query(snap, "heavy_hitters")

    def test_unknown_op_lists_what_is_supported(self):
        snap = Snapshot(AMSSketch(64, groups=3, per_group=4, seed=1),
                        epoch=0)
        with pytest.raises(UnsupportedQuery, match="inner, norm"):
            QueryRouter().query(snap, "frobnicate")

    def test_bad_arguments_fail_loudly(self):
        sketch = CountSketch(64, m=4, rows=3, seed=1)
        snap = Snapshot(sketch, epoch=0)
        router = QueryRouter()
        with pytest.raises(TypeError, match="requires an 'index'"):
            router.query(snap, "point")
        with pytest.raises(ValueError, match="outside the universe"):
            router.query(snap, "point", index=64)
        with pytest.raises(TypeError, match="unexpected arguments"):
            router.query(snap, "point", index=1, bogus=2)
        with pytest.raises(ValueError, match="count must be >= 1"):
            router.query(snap, "top", count=0)
        norm_snap = Snapshot(AMSSketch(64, groups=3, per_group=4),
                             epoch=0)
        with pytest.raises(ValueError, match="p=2 norm, not p=1"):
            router.query(norm_snap, "norm", p=1)

    def test_inner_requires_a_shared_map(self):
        a = CountSketch(64, m=4, rows=3, seed=1)
        b = CountSketch(64, m=4, rows=3, seed=2)
        a.update_many([1], [5])
        router = QueryRouter()
        with pytest.raises(ValueError, match="different maps"):
            router.query(Snapshot(a, 0), "inner", other=Snapshot(b, 0))

    def test_inner_accepts_snapshots_and_bare_structures(self):
        a = CountSketch(64, m=4, rows=3, seed=1)
        a.update_many([1, 2], [3, 4])
        snap = Snapshot(a, epoch=0)
        router = QueryRouter()
        via_snapshot = router.query(snap, "inner", other=snap)
        via_structure = router.query(snap, "inner", other=a)
        assert via_snapshot == via_structure == pytest.approx(25.0)

    def test_phi_override_coarsens_only(self):
        hh = CountSketchHeavyHitters(128, p=1.0, phi=0.2, seed=1)
        hh.update_many(np.arange(8), np.full(8, 50))
        snap = Snapshot(hh, epoch=0)
        router = QueryRouter()
        router.query(snap, "heavy_hitters", phi=0.5)   # coarser: fine
        with pytest.raises(ValueError, match="sized for phi >= 0.2"):
            router.query(snap, "heavy_hitters", phi=0.1)


# ---------------------------------------------------------------------------
# Queries never write


def _clone_draws(structure, count):
    """The draws of a private copy: the oracle for ``sample_l0``."""
    twin = clone(structure)
    return tuple(twin.sample() for _ in range(count))


class TestQueriesNeverWrite:
    """Every capability is a read-only function of the snapshot state,
    so ops run on the snapshot's own structure with no copy."""

    @pytest.mark.parametrize("case", CASES, ids=CASE_IDS)
    def test_every_op_leaves_the_checkpoint_bytes_unchanged(self, case):
        snap = Snapshot(_fed(case), epoch=10)
        before = checkpoint(snap.structure)
        capabilities = query_capabilities(snap.structure)
        for op, capability in sorted(capabilities.items()):
            args = ({"other": clone(snap.structure)} if op == "inner"
                    else dict(_CANONICAL_ARGS[op]))
            answer = capability.run(snap.structure, args)
            assert checkpoint(snap.structure) == before, op
            if op == "sample_l0":       # the draw was a real choice
                assert answer[0].diagnostics["support_size"] > 1

    def test_sample_l0_equals_clone_draws_over_random_epochs(self):
        sampler = L0Sampler(1 << 12, delta=0.2, seed=5)
        run = query_capability(sampler, "sample_l0").run
        rng = np.random.default_rng(11)
        for _ in range(40):
            size = int(rng.integers(1, 400))
            sampler.update_many(rng.integers(0, 1 << 12, size),
                                rng.integers(-2, 3, size))
            if rng.random() < 0.3:      # advance the live generator
                sampler.sample()
            before = checkpoint(sampler)
            count = int(rng.integers(1, 9))
            answer = run(sampler, {"count": count})
            want = _clone_draws(sampler, count)
            assert answer == want and repr(answer) == repr(want)
            assert checkpoint(sampler) == before

    def test_checkpoint_taken_after_draws_answers_from_its_live_state(self):
        """A restored structure continues its generator, so the copy
        starts from the live state, not a seed-fresh one."""
        sampler = L0Sampler(1 << 12, delta=0.2, seed=0)
        sampler.update_many(np.arange(0, 600, 7),
                            np.ones(86, dtype=np.int64))
        fresh = _clone_draws(sampler, 6)
        assert fresh[0].diagnostics["support_size"] > 1   # a real choice
        for _ in range(5):
            sampler.sample()
        snap = Snapshot.from_checkpoint(checkpoint(sampler), epoch=86)
        before = checkpoint(snap.structure)
        answer = QueryRouter(cache=ResultCache(0)).query(
            snap, "sample_l0", count=6)
        assert answer == _clone_draws(sampler, 6)
        assert [r.index for r in answer] != [r.index for r in fresh]
        assert checkpoint(snap.structure) == before


# ---------------------------------------------------------------------------
# The result cache


class TestResultCache:
    def test_lru_evicts_oldest_first(self):
        cache = ResultCache(capacity=2)
        k1 = cache.key(0, 1, "norm", {})
        k2 = cache.key(0, 2, "norm", {})
        k3 = cache.key(0, 3, "norm", {})
        cache.put(k1, "a")
        cache.put(k2, "b")
        assert cache.get(k1) == (True, "a")   # k1 now most recent
        cache.put(k3, "c")                    # evicts k2
        assert cache.get(k2) == (False, None)
        assert cache.get(k1) == (True, "a")
        assert cache.evictions == 1

    def test_zero_capacity_disables(self):
        cache = ResultCache(capacity=0)
        key = cache.key(0, 1, "norm", {})
        cache.put(key, "x")
        assert cache.get(key) == (False, None)
        assert len(cache) == 0

    def test_distinct_epochs_and_snapshots_are_distinct_keys(self):
        cache = ResultCache()
        assert cache.key(0, 1, "norm", {"p": 1.0}) \
            != cache.key(0, 2, "norm", {"p": 1.0})
        assert cache.key(0, 1, "norm", {"p": 1.0}) \
            != cache.key(1, 1, "norm", {"p": 1.0})
        assert cache.key(0, 1, "norm", {"p": 1.0}) \
            == cache.key(0, 1, "norm", {"p": 1.0})

    def test_two_snapshots_at_the_same_epoch_never_cross(self):
        """One router serving two streams that share epoch numbers
        (e.g. two checkpoint-booted snapshots, both epoch 0) must not
        serve one stream's cached answer to the other."""
        a = CountSketch(64, m=4, rows=3, seed=1)
        b = CountSketch(64, m=4, rows=3, seed=1)
        a.update_many([3], [100])
        b.update_many([3], [7])
        router = QueryRouter()
        snap_a, snap_b = Snapshot(a, epoch=0), Snapshot(b, epoch=0)
        assert router.query(snap_a, "point", index=3) == \
            pytest.approx(100.0)
        assert router.query(snap_b, "point", index=3) == \
            pytest.approx(7.0)
        assert router.stats.cache_hits == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            ResultCache(capacity=-1)

    def test_router_cache_hits_skip_recomputation(self, monkeypatch):
        calls = {"n": 0}

        class Probe:
            universe = 16

        from repro.engine import QueryCapability, register_query
        from repro.engine import registry
        # Both registry tables drop Probe on exit, so later tests (the
        # live-tree registry audit among them) never see it.
        monkeypatch.setitem(registry._QUERY_CAPS, "Probe", {})
        monkeypatch.setitem(registry._QUERY_CLASSES, "Probe", Probe)
        register_query(Probe, QueryCapability(
            "probe", lambda obj, args: (calls.__setitem__("n",
                                                          calls["n"] + 1),
                                        calls["n"])[1],
            doc="test probe"))
        router = QueryRouter()
        snap = Snapshot(Probe(), epoch=1)
        assert router.query(snap, "probe") == 1
        assert router.query(snap, "probe") == 1      # cached
        assert calls["n"] == 1
        assert router.query(Snapshot(Probe(), epoch=2), "probe") == 2
        assert router.stats.cache_hits == 1
        assert router.stats.cache_misses == 2

    def test_uncacheable_ops_never_cache(self):
        a = CountSketch(64, m=4, rows=3, seed=1)
        a.update_many([1], [2])
        snap = Snapshot(a, epoch=0)
        router = QueryRouter()
        router.query(snap, "inner", other=a)
        router.query(snap, "inner", other=a)
        assert len(router.cache) == 0
        assert router.stats.uncacheable == 2
        assert router.stats.cache_hits == 0


# ---------------------------------------------------------------------------
# Refresh policy and retention


class TestSnapshotManager:
    def test_refresh_every_policy(self):
        with _hh_pipeline(chunk=100) as pipe:
            manager = SnapshotManager(pipe, refresh_every=500)
            idx, dlt = _workload(length=2000)
            first = manager.current()          # captures on first use
            assert first.epoch == 0
            pipe.ingest(idx[:300], dlt[:300])
            assert manager.current().epoch == 0     # 300 < 500: held
            pipe.ingest(idx[300:600], dlt[300:600])
            assert manager.current().epoch == 600   # crossed: refreshed
            assert manager.captures == 2

    def test_manual_refresh_only_when_disabled(self):
        with _hh_pipeline(chunk=100) as pipe:
            manager = SnapshotManager(pipe, refresh_every=None)
            idx, dlt = _workload(length=1000)
            assert manager.current().epoch == 0
            pipe.ingest(idx, dlt)
            assert manager.current().epoch == 0     # never auto
            assert manager.refresh().epoch == 1000

    def test_refresh_at_same_epoch_reuses_the_snapshot(self):
        with _hh_pipeline() as pipe:
            manager = SnapshotManager(pipe)
            snap = manager.refresh()
            assert manager.refresh() is snap
            assert manager.captures == 1

    def test_keep_prunes_oldest(self):
        with _hh_pipeline(chunk=100) as pipe:
            manager = SnapshotManager(pipe, keep=2)
            idx, dlt = _workload(length=900)
            for start in (0, 300, 600):
                pipe.ingest(idx[start:start + 300], dlt[start:start + 300])
                manager.refresh()
            assert manager.epochs == [600, 900]
            with pytest.raises(KeyError, match="available epochs"):
                manager.snapshot_at(300)
            assert manager.snapshot_at(600).epoch == 600

    def test_bad_parameters_rejected(self):
        with _hh_pipeline() as pipe:
            with pytest.raises(ValueError, match="refresh_every"):
                SnapshotManager(pipe, refresh_every=0)
            with pytest.raises(ValueError, match="keep"):
                SnapshotManager(pipe, keep=0)


# ---------------------------------------------------------------------------
# merged() per-epoch memo (satellite)


class TestMergedMemoization:
    def _fold_counter(self, monkeypatch):
        counter = {"folds": 0}
        real = pipeline_mod._fold_tree

        def counting(structures, clone_targets):
            counter["folds"] += 1
            return real(structures, clone_targets)

        monkeypatch.setattr(pipeline_mod, "_fold_tree", counting)
        return counter

    def test_same_epoch_reuses_one_fold(self, monkeypatch):
        counter = self._fold_counter(monkeypatch)
        with _hh_pipeline() as pipe:
            idx, dlt = _workload()
            pipe.ingest(idx, dlt)
            first = pipe.merged()
            second = pipe.merged()
            assert counter["folds"] == 1
            assert first is not second
            assert states_equal(first, second, exact=True)

    def test_ingest_invalidates(self, monkeypatch):
        counter = self._fold_counter(monkeypatch)
        with _hh_pipeline() as pipe:
            idx, dlt = _workload()
            pipe.ingest(idx[:1000], dlt[:1000])
            pipe.merged()
            pipe.ingest(idx[1000:], dlt[1000:])
            merged = pipe.merged()
            assert counter["folds"] == 2
            single = CountMedianHeavyHitters(1024, phi=0.1, seed=3,
                                             strict=False)
            single.update_many(idx, dlt)
            assert states_equal(merged, single, exact=True)

    def test_reshard_invalidates(self, monkeypatch):
        counter = self._fold_counter(monkeypatch)
        with _hh_pipeline() as pipe:
            idx, dlt = _workload()
            pipe.ingest(idx, dlt)
            before = pipe.merged()
            pipe.reshard(5)                    # folds once itself
            after = pipe.merged()              # must re-fold, not reuse
            assert counter["folds"] == 3
            assert states_equal(before, after, exact=True)

    def test_handed_out_clones_are_independent(self):
        with _hh_pipeline() as pipe:
            idx, dlt = _workload()
            pipe.ingest(idx, dlt)
            first = pipe.merged()
            first.update_many(np.array([1]), np.array([999]))
            second = pipe.merged()             # memo must be untouched
            single = CountMedianHeavyHitters(1024, phi=0.1, seed=3,
                                             strict=False)
            single.update_many(idx, dlt)
            assert states_equal(second, single, exact=True)


# ---------------------------------------------------------------------------
# Watermark autoscaling


class TestWatermarkPolicy:
    def test_threshold_validation(self):
        with pytest.raises(ValueError, match="high > low"):
            WatermarkPolicy(high=1.0, low=2.0)
        with pytest.raises(ValueError, match="sustain"):
            WatermarkPolicy(high=2.0, low=1.0, sustain=0)
        with pytest.raises(ValueError, match="min_shards"):
            WatermarkPolicy(high=2.0, low=1.0, min_shards=5, max_shards=2)
        with pytest.raises(ValueError, match="grow_factor"):
            WatermarkPolicy(high=2.0, low=1.0, grow_factor=1)

    def test_sustained_high_grows_until_the_cap(self):
        monitor = LoadMonitor(WatermarkPolicy(high=100.0, low=1.0,
                                              sustain=3, max_shards=8,
                                              min_batch=1))
        assert monitor.observe(1000, 1.0, 2) is None
        assert monitor.observe(1000, 1.0, 2) is None
        assert monitor.observe(1000, 1.0, 2) == 4
        # Streak reset after acting: three more needed.
        assert monitor.observe(1000, 1.0, 4) is None
        assert monitor.observe(1000, 1.0, 4) is None
        assert monitor.observe(1000, 1.0, 4) == 8
        for _ in range(3):
            at_cap = monitor.observe(1000, 1.0, 8)
        assert at_cap is None                  # capped, not flapping

    def test_sustained_low_shrinks_to_the_floor(self):
        monitor = LoadMonitor(WatermarkPolicy(high=100.0, low=10.0,
                                              sustain=2, min_shards=2,
                                              min_batch=1))
        assert monitor.observe(5, 1.0, 8) is None
        assert monitor.observe(5, 1.0, 8) == 4
        assert monitor.observe(5, 1.0, 4) is None
        assert monitor.observe(5, 1.0, 4) == 2
        assert monitor.observe(5, 1.0, 2) is None
        assert monitor.observe(5, 1.0, 2) is None   # floored

    def test_hysteresis_band_resets_streaks(self):
        monitor = LoadMonitor(WatermarkPolicy(high=100.0, low=10.0,
                                              sustain=2, min_batch=1))
        assert monitor.observe(1000, 1.0, 2) is None
        assert monitor.observe(50, 1.0, 2) is None  # in band: reset
        assert monitor.observe(1000, 1.0, 2) is None
        assert monitor.observe(1000, 1.0, 2) == 4

    def test_tiny_batches_are_not_observations(self):
        monitor = LoadMonitor(WatermarkPolicy(high=10.0, low=1.0,
                                              sustain=1, min_batch=256))
        assert monitor.observe(10, 0.001, 2) is None
        assert monitor.observations == 0

    def test_service_reshards_under_synthetic_load(self):
        """End to end with an injected clock: sustained offered load
        reshards the live pipeline and preserves the merged state."""
        ticks = iter(np.arange(0, 1000, 0.001))
        with _hh_pipeline(shards=2) as pipe:
            service = QueryService(
                pipe, cache_size=8,
                policy=WatermarkPolicy(high=1000.0, low=1.0, sustain=2,
                                       max_shards=4, min_batch=256),
                timer=lambda: float(next(ticks)))
            idx, dlt = _workload(length=3000)
            service.ingest(idx[:1000], dlt[:1000])
            service.ingest(idx[1000:2000], dlt[1000:2000])
            service.ingest(idx[2000:], dlt[2000:])
            assert pipe.shards == 4
            assert service.stats.reshards == 1
            single = CountMedianHeavyHitters(1024, phi=0.1, seed=3,
                                             strict=False)
            single.update_many(idx, dlt)
            assert states_equal(pipe.merged(), single, exact=True)


# ---------------------------------------------------------------------------
# The service facade


class TestQueryService:
    def test_query_at_a_retained_epoch(self):
        with QueryService(_hh_pipeline(), refresh_every=1000,
                          keep=8) as service:
            idx, dlt = _workload(length=3000)
            service.ingest(idx[:1000], dlt[:1000])
            early = service.query("norm", p=1)
            service.ingest(idx[1000:], dlt[1000:])
            late = service.query("norm", p=1)
            assert service.query("norm", at=1000, p=1) == early
            assert late == float(dlt.sum())
            assert early == float(dlt[:1000].sum())
            with pytest.raises(KeyError, match="available epochs"):
                service.query("norm", at=123, p=1)

    def test_stats_roll_up(self):
        with QueryService(_hh_pipeline(), refresh_every=500,
                          cache_size=4) as service:
            idx, dlt = _workload(length=1000)
            service.ingest(idx, dlt)
            service.query("heavy_hitters")
            service.query("heavy_hitters")
            report = service.stats.to_dict()
            assert report["queries"] == 2
            assert report["cache_hits"] == 1
            assert report["cache_misses"] == 1
            assert report["hit_rate"] == 0.5
            assert report["ingest_updates"] == 1000
            assert report["snapshots_captured"] == 1
            assert report["per_op"] == {"heavy_hitters": 2}

    def test_operations_table(self):
        with QueryService(_hh_pipeline()) as service:
            ops = service.operations()
            assert set(ops) == {"heavy_hitters", "norm"}
            assert all(isinstance(doc, str) and doc for doc in
                       ops.values())

    def test_from_checkpoint_serves_a_restored_stream(self):
        with _hh_pipeline() as pipe:
            idx, dlt = _workload()
            pipe.ingest(idx, dlt)
            live = pipe.merged().heavy_hitters()
            blob = pipe.checkpoint()
        with QueryService.from_checkpoint(blob) as service:
            assert np.array_equal(service.query("heavy_hitters"), live)
            assert service.epochs == [idx.size]
            # ... and it is still a live pipeline: keep ingesting.
            service.ingest(idx, dlt)
            assert service.refresh().epoch == 2 * idx.size


# ---------------------------------------------------------------------------
# Cache admission: prewarm on refresh (PR 5 satellite)


class TestCacheHottest:
    def test_hottest_orders_by_access_count(self):
        cache = ResultCache(capacity=8)
        for op, hits in (("a", 0), ("b", 3), ("c", 1)):
            key = cache.key(7, 1, op, {})
            cache.put(key, op)
            for _ in range(hits):
                cache.get(key)
        ops = [op for op, _ in cache.hottest(7, 10)]
        assert ops == ["b", "c", "a"]
        assert cache.hottest(7, 1) == [("b", ())]

    def test_hottest_filters_by_token(self):
        cache = ResultCache(capacity=8)
        cache.put(cache.key(1, 0, "mine", {}), 1)
        cache.put(cache.key(2, 0, "theirs", {}), 2)
        assert cache.hottest(1, 10) == [("mine", ())]
        assert cache.hottest(3, 10) == []

    def test_hottest_preserves_args_and_drops_evicted(self):
        cache = ResultCache(capacity=2)
        cache.put(cache.key(5, 0, "norm", {"p": 2.0}), 1)
        cache.put(cache.key(5, 0, "point", {"index": 3}), 2)
        cache.put(cache.key(5, 0, "top", {"count": 4}), 3)  # evicts norm
        hot = dict(cache.hottest(5, 10))
        assert set(hot) == {"point", "top"}
        assert dict(hot["point"]) == {"index": 3}

    def test_contains_does_not_touch_counters(self):
        cache = ResultCache(capacity=4)
        key = cache.key(1, 0, "a", {})
        cache.put(key, 1)
        hits, misses = cache.hits, cache.misses
        assert cache.contains(key)
        assert not cache.contains(cache.key(1, 0, "b", {}))
        assert (cache.hits, cache.misses) == (hits, misses)


class TestPrewarm:
    def test_refresh_prewarms_previous_epochs_hot_queries(self):
        """After one epoch of queries, the next refresh precomputes
        them: the steady query mix never misses again."""
        idx, dlt = _workload()
        with QueryService(_hh_pipeline(), prewarm=4) as service:
            service.ingest(idx[:2000], dlt[:2000])
            service.query("heavy_hitters")
            service.query("norm", p=1.0)
            misses_before = service.stats.cache_misses
            service.ingest(idx[2000:], dlt[2000:])
            service.refresh()
            assert service.stats.prewarmed == 2
            service.query("heavy_hitters")
            service.query("norm", p=1.0)
            assert service.stats.cache_misses == misses_before
            assert service.stats.cache_hits >= 2

    def test_prewarmed_answers_equal_computed_answers(self):
        idx, dlt = _workload()
        with QueryService(_hh_pipeline(), prewarm=4) as warmed, \
                QueryService(_hh_pipeline(), prewarm=0) as cold:
            for service in (warmed, cold):
                service.ingest(idx[:2000], dlt[:2000])
                service.query("heavy_hitters")
                service.ingest(idx[2000:], dlt[2000:])
                service.refresh()
            assert cold.stats.prewarmed == 0
            assert np.array_equal(warmed.query("heavy_hitters"),
                                  cold.query("heavy_hitters"))

    def test_prewarm_limit_and_budget(self):
        idx, dlt = _workload()
        with QueryService(_hh_pipeline(), prewarm=1) as service:
            service.ingest(idx[:2000], dlt[:2000])
            service.query("heavy_hitters")
            service.query("heavy_hitters")  # hottest by access count
            service.query("norm", p=1.0)
            service.ingest(idx[2000:], dlt[2000:])
            service.refresh()
            assert service.stats.prewarmed == 1
            # the budget went to the hottest op
            service.query("heavy_hitters")
            assert service.stats.cache_hits >= 2

    def test_prewarm_counts_in_stats_dict(self):
        idx, dlt = _workload()
        with QueryService(_hh_pipeline(), prewarm=4) as service:
            service.ingest(idx[:2000], dlt[:2000])
            service.query("heavy_hitters")
            service.ingest(idx[2000:], dlt[2000:])
            service.refresh()
            report = service.stats.to_dict()
            assert report["prewarmed"] == 1
            assert report["prewarm_seconds"] >= 0.0

    def test_prewarm_zero_disables(self):
        idx, dlt = _workload()
        with QueryService(_hh_pipeline(), prewarm=0) as service:
            service.ingest(idx[:2000], dlt[:2000])
            service.query("heavy_hitters")
            service.ingest(idx[2000:], dlt[2000:])
            service.refresh()
            assert service.stats.prewarmed == 0

    def test_negative_prewarm_rejected(self):
        with pytest.raises(ValueError, match="prewarm"):
            QueryService(_hh_pipeline(), prewarm=-1)

    def test_auto_refresh_also_prewarms(self):
        """The refresh triggered from inside query() (the policy path)
        prewarms too — not just explicit refresh()."""
        idx, dlt = _workload()
        with QueryService(_hh_pipeline(), refresh_every=2000,
                          prewarm=4) as service:
            service.ingest(idx[:2000], dlt[:2000])
            service.query("heavy_hitters")
            service.ingest(idx[2000:], dlt[2000:])
            service.query("heavy_hitters")   # auto-refresh + prewarm
            assert service.stats.prewarmed == 1
            assert service.stats.cache_hits >= 1

    def test_prewarm_evictions_counted_in_stats(self):
        """Evictions caused by prewarm inserts must reach the service
        stats just like query-time evictions do."""
        idx, dlt = _workload()
        with QueryService(_hh_pipeline(), prewarm=4,
                          cache_size=1) as service:
            service.ingest(idx[:2000], dlt[:2000])
            service.query("heavy_hitters")
            service.query("norm", p=1.0)   # evicts heavy_hitters
            service.ingest(idx[2000:], dlt[2000:])
            service.refresh()              # prewarm insert evicts again
            assert service.stats.prewarmed >= 1
            assert service.stats.evictions == service.router.cache.evictions
