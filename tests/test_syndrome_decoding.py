"""Lemma 5 decoding internals: n-independent root finding and the
content-keyed ``recover()`` memo.

``_find_support`` (gcd with ``X^p - X``, then a seeded equal-degree
split) must agree with the universe scan it replaced, kept as
``_reference_find_support``, on every connection polynomial: those
Berlekamp–Massey produces from s-sparse, (s+1)-sparse and dense
vectors, and hand-built ones with roots outside ``[1, n]``, repeated
roots, a zero root or an irreducible factor.  The memo must be
invisible: memoized == unmemoized, callers get private arrays, and any
state change decodes afresh.
"""

import numpy as np
import pytest

from repro.core.l0_sampler import L0Sampler
from repro.engine import clone
from repro.recovery.berlekamp_massey import berlekamp_massey
from repro.recovery.syndrome import SyndromeSparseRecovery, _decode_memo

PRIME = 2**31 - 1
SPARSITY = 5


def _connection(recovery):
    return berlekamp_massey(recovery.syndromes.tolist(), PRIME)


def _from_roots(roots):
    """Connection polynomial ``prod (1 - r X)`` (low degree first)."""
    conn = [1]
    for root in roots:
        conn = [(a - root * b) % PRIME
                for a, b in zip(conn + [0], [0] + conn)]
    return conn


def _assert_finders_agree(recovery, connection):
    fast = recovery._find_support(connection)
    scan = recovery._reference_find_support(connection)
    if scan is None:
        assert fast is None
    else:
        assert fast is not None and fast.dtype == scan.dtype
        assert np.array_equal(fast, scan)
    return scan


@pytest.mark.parametrize("log_n", [10, 14, 17, 20])
class TestGcdFinderMatchesScan:
    def test_sparse_and_dense_vectors(self, log_n):
        n = 1 << log_n
        rng = np.random.default_rng(log_n)
        outcomes = []
        for support_size in (SPARSITY, SPARSITY + 1, 40):
            recovery = SyndromeSparseRecovery(n, SPARSITY, seed=log_n)
            indices = rng.choice(n, size=support_size, replace=False)
            recovery.update_many(indices, rng.integers(1, 50, support_size))
            outcomes.append(_assert_finders_agree(recovery,
                                                  _connection(recovery)))
        # The s-sparse support is found exactly; the rest are DENSE.
        assert outcomes[0] is not None and outcomes[0].size == SPARSITY
        assert outcomes[1] is None and outcomes[2] is None

    def test_hand_built_polynomials(self, log_n):
        n = 1 << log_n
        rng = np.random.default_rng(100 + log_n)
        recovery = SyndromeSparseRecovery(n, 8, seed=1)
        in_range = [int(r) for r in rng.choice(np.arange(1, n + 1), 6,
                                               replace=False)]
        non_residue = next(c for c in range(2, 100)
                           if pow(c, (PRIME - 1) // 2, PRIME) != 1)
        cases = [
            in_range,                          # splits, all locators
            in_range[:1],                      # degree 1, solved directly
            in_range[:2],                      # degree 2, closed form
            [n] + in_range[:3],                # the largest locator
            [n + 1] + in_range[:3],            # just past the universe
            [PRIME - 1] + in_range[:3],        # far outside it
            [0] + in_range[:3],                # a zero root
            in_range[:3] + in_range[:1],       # a repeated root
        ]
        for roots in cases:
            _assert_finders_agree(recovery, _from_roots(roots))
        # (X^2 - c) * prod (X - a): the quadratic has no root in GF(p).
        irreducible = [1, 0, (-non_residue) % PRIME]
        conn = _from_roots(in_range[:2])
        product = [0] * (len(conn) + 2)
        for i, a in enumerate(conn):
            for j, b in enumerate(irreducible):
                product[i + j] = (product[i + j] + a * b) % PRIME
        assert _assert_finders_agree(recovery, product) is None


class TestRecoverMemo:
    def _sparse(self, seed=3, n=4096, count=4):
        recovery = SyndromeSparseRecovery(n, SPARSITY, seed=seed)
        rng = np.random.default_rng(seed)
        recovery.update_many(rng.choice(n, count, replace=False),
                             rng.integers(1, 9, count))
        return recovery

    def test_memoized_equals_unmemoized(self):
        rng = np.random.default_rng(8)
        for trial in range(30):
            recovery = SyndromeSparseRecovery(2048, SPARSITY, seed=trial)
            size = int(rng.integers(1, 3 * SPARSITY))
            recovery.update_many(rng.integers(0, 2048, size),
                                 rng.integers(-5, 6, size))
            for _ in range(2):  # a miss, then a hit
                got, want = recovery.recover(), recovery._decode()
                assert got.dense == want.dense
                if not got.dense:
                    assert np.array_equal(got.indices, want.indices)
                    assert np.array_equal(got.values, want.values)

    def test_mutating_a_result_cannot_reach_the_memo(self):
        recovery = self._sparse()
        first = recovery.recover()
        expected = (first.indices.copy(), first.values.copy())
        first.indices[:] = 0
        first.values[:] = 0
        again = recovery.recover()
        assert np.array_equal(again.indices, expected[0])
        assert np.array_equal(again.values, expected[1])
        assert again.indices is not first.indices

    def test_identical_states_share_one_decode(self):
        original, twin = self._sparse(seed=21), self._sparse(seed=21)
        original.recover()
        before = _decode_memo.cache_info()
        twin.recover()
        after = _decode_memo.cache_info()
        assert after.hits == before.hits + 1
        assert after.misses == before.misses

    @pytest.mark.parametrize("change,value", [
        ("update_many", 7), ("merge", 11), ("subtract", 13)])
    def test_state_change_decodes_afresh(self, change, value):
        recovery = self._sparse(seed=5)
        other = SyndromeSparseRecovery(4096, SPARSITY, seed=5)
        other.update_many([4000], [value])
        before = recovery.recover()
        if change == "update_many":
            recovery.update_many([4000], [value])
        else:
            getattr(recovery, change)(other)
        misses = _decode_memo.cache_info().misses
        after = recovery.recover()
        assert _decode_memo.cache_info().misses == misses + 1
        want = recovery._decode()
        assert np.array_equal(after.indices, want.indices)
        assert np.array_equal(after.values, want.values)
        sign = -1 if change == "subtract" else 1
        assert dict(zip(after.indices.tolist(), after.values.tolist()))[
            4000] == value * sign
        assert 4000 not in before.indices.tolist()

    def test_sampler_draws_match_across_clones(self):
        """A clone of a sampler (as a snapshot capture makes) decodes
        from the memo and still draws exactly what the original draws."""
        sampler = L0Sampler(1 << 12, seed=2)
        rng = np.random.default_rng(2)
        sampler.update_many(rng.integers(0, 1 << 12, 3000),
                            rng.integers(1, 4, 3000))
        twin = clone(sampler)
        assert [sampler.sample() for _ in range(4)] == \
            [twin.sample() for _ in range(4)]
