"""The zero-relative-error L0-sampler of Theorem 2.

Precision sampling collapses as ``p -> 0`` (the scaling factors
``t^(-1/p)`` blow up), so the paper switches strategy entirely:

* Let ``I_k``, ``k = 1 .. floor(log n)``, be random subsets of ``[n]``
  of size ``2^k``, and ``I_0 = [n]``.
* For each level run the *exact* sparse recovery of Lemma 5 on the
  restriction of ``x`` to ``I_k``, with sparsity ``s = ceil(4 log(1/delta))``.
* Return a uniformly random non-zero coordinate of the first recovery
  that yields a non-zero s-sparse vector; FAIL if every level returns
  zero or DENSE.

For support size ``|J| <= s`` the full-universe level recovers ``x``
exactly, so the output is a perfectly uniform support sample — zero
relative error.  For ``|J| > s`` some level has ``E|I_k ∩ J|`` between
s/3 and 2s/3 and succeeds with probability ``1 - delta`` by Chernoff.

Derandomization: the random sets (and the final uniform choice) are
driven either by k-wise independent subsampling (`mode="kwise"`,
DESIGN.md substitution 2 — the concentration the proof needs only
requires limited independence) or by an actual Nisan PRG
(`mode="nisan"`), mirroring the paper's O(log^2 n)-seed derandomization
of the random-oracle algorithm.

Space: ``O(log n)`` levels x ``O(s)`` field counters of O(log n) bits
= ``O(log^2 n log(1/delta))`` bits — Theorem 2's bound, a log factor
below Frahling–Indyk–Sohler.
"""

from __future__ import annotations

import numpy as np

from ..hashing.field import DEFAULT_FIELD
from ..hashing.kwise import SubsetHash, derive_rngs
from ..hashing.nisan import NisanPRG
from ..recovery.syndrome import SyndromeSparseRecovery
from ..space.accounting import SpaceReport
from .base import SampleResult, StreamingSampler

#: Updates per fused block: bounds the ``(2s, block)`` power rows and the
#: stacked fingerprint powers to a few MiB whatever the batch size.
_FUSED_BLOCK = 8192


class L0Sampler(StreamingSampler):
    """Zero relative error L0 sampling with failure probability delta."""

    def __init__(self, universe: int, delta: float = 0.25, seed: int = 0,
                 mode: str = "kwise", sparsity: int | None = None):
        if not 0 < delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if mode not in ("kwise", "nisan"):
            raise ValueError("mode must be 'kwise' or 'nisan'")
        self.universe = int(universe)
        self.delta = float(delta)
        self.seed = int(seed)
        self.mode = mode
        self.sparsity = (int(np.ceil(4.0 * np.log(1.0 / delta))) + 1
                         if sparsity is None else int(sparsity))
        self.levels = max(1, int(np.floor(np.log2(max(2, universe))))) + 1

        rngs = derive_rngs(np.random.SeedSequence((self.seed, 0x105)), 3)
        if mode == "kwise":
            self._subset = SubsetHash(2, rngs[0])
            self._prg = None
        else:
            # Depth covers one 61-bit block per universe element; the
            # block's bits give the element's geometric survival depth.
            depth = int(np.ceil(np.log2(max(2, universe))))
            self._prg = NisanPRG(depth, rngs[0])
            self._subset = None
        self._choice_rng = rngs[1]
        self._recoveries = [
            SyndromeSparseRecovery(universe, self.sparsity,
                                   seed=int(rngs[2].integers(2**62)) + level)
            for level in range(self.levels)
        ]
        # (levels, fingerprints) evaluation points, stacked once so the
        # fused update raises every level's points in one pass.
        self._fp_bases = np.stack([rec._fp_points for rec in self._recoveries])

    # -- level membership ----------------------------------------------------------

    def _survival_depth(self, indices: np.ndarray) -> np.ndarray:
        """Deepest level each coordinate belongs to (levels are nested).

        Level 0 is the full universe; level k keeps each coordinate with
        probability ~2^-k.  Nested geometric levels satisfy the same
        per-level Chernoff bound as the paper's independent size-2^k
        sets (the proof only uses one level at a time).
        """
        idx = np.asarray(indices, dtype=np.int64)
        if self.mode == "kwise":
            # Depth from the k-wise hash value: count leading "survivals".
            vals = self._subset._h(idx.astype(np.uint64))
            frac = (np.asarray(vals, dtype=np.float64) + 1.0) \
                / float(self._subset.field.p)
        else:
            frac = self._prg.uniform(idx)
        with np.errstate(divide="ignore"):
            depth = np.floor(-np.log2(frac)).astype(np.int64)
        return np.clip(depth, 0, self.levels - 1)

    # -- streaming -------------------------------------------------------------------

    def update_many(self, indices, deltas) -> None:
        """Feed updates to every level the coordinates survive to.

        Fused kernel, byte-identical to :meth:`_reference_update_many`.
        Levels are nested and share the locators ``a_i = i + 1``, so
        once a block is sorted deepest-first, level k's members are a
        prefix of it: its syndrome increments are prefix sums of the
        ``2s`` power rows ``u * a^j`` (built once per block), and its
        fingerprint increments come from one stacked power pass over
        all levels' prefixes.
        """
        idx = np.asarray(indices, dtype=np.int64).ravel()
        if idx.size == 0:
            return
        dlt = np.asarray(deltas, dtype=np.int64).ravel()
        depth = self._survival_depth(idx)
        for start in range(0, idx.size, _FUSED_BLOCK):
            block = slice(start, start + _FUSED_BLOCK)
            self._fused_block(idx[block], dlt[block], depth[block])

    def _fused_block(self, idx, dlt, depth) -> None:
        p = DEFAULT_FIELD.p
        order = np.argsort(-depth, kind="stable")
        idx = idx[order]
        u = DEFAULT_FIELD.from_signed(dlt[order])
        # members[k] = updates surviving to level k; the first empty
        # level ends the walk, exactly as in the reference loop.
        counts = np.bincount(depth, minlength=self.levels)
        members = np.cumsum(counts[::-1])[::-1]
        live = int(np.count_nonzero(members))
        members = members[:live]

        # Syndromes: S_j += sum u * a^j over each level's prefix.  The
        # uint64 prefix sums of values < p cannot wrap within a block.
        locators = (idx + 1).astype(np.uint64)
        rows = np.empty((self._recoveries[0].syndromes.size, idx.size),
                        dtype=np.uint64)
        power = u
        for j in range(rows.shape[0]):
            rows[j] = power
            power = power * locators % p
        syndrome_totals = np.cumsum(rows, axis=1)[:, members - 1] % p

        # Fingerprints: F_{k,r} += sum u * b_{k,r}^i, every (level,
        # point) pair raised in one stacked square-and-multiply.
        starts = np.concatenate(([0], np.cumsum(members)[:-1]))
        take = np.arange(int(members.sum())) - np.repeat(starts, members)
        exps = idx[take].astype(np.uint64)
        acc = np.repeat(self._fp_bases[:live], members, axis=0)
        powers = np.ones_like(acc)
        bit = 0
        while (1 << bit) <= int(exps.max()):
            odd = ((exps >> np.uint64(bit)) & np.uint64(1)).astype(bool)
            powers = np.where(odd[:, None], powers * acc % p, powers)
            acc = acc * acc % p
            bit += 1
        contrib = u[take][:, None] * powers % p
        fp_totals = np.add.reduceat(contrib, starts, axis=0) % p

        for level in range(live):
            rec = self._recoveries[level]
            rec.syndromes = (rec.syndromes + syndrome_totals[:, level]) % p
            rec.fp_values = (rec.fp_values + fp_totals[level]) % p

    def _reference_update_many(self, indices, deltas) -> None:
        """Per-level oracle for the fused :meth:`update_many`."""
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size == 0:
            return
        dlt = np.asarray(deltas, dtype=np.int64)
        depth = self._survival_depth(idx)
        for level in range(self.levels):
            mask = depth >= level
            if not mask.any():
                break
            self._recoveries[level].update_many(idx[mask], dlt[mask])

    def update(self, index: int, delta) -> None:
        """Apply a single turnstile update."""
        self.update_many(np.array([index], dtype=np.int64),
                         np.array([delta], dtype=np.int64))

    def _params(self) -> dict:
        """Constructor kwargs rebuilding an empty twin (same linear map).

        Engine contract (see :mod:`repro.engine.checkpoint`): equal
        params imply identically-seeded levels and recoveries.
        """
        return dict(universe=self.universe, delta=self.delta,
                    seed=self.seed, mode=self.mode, sparsity=self.sparsity)

    # -- sampling ---------------------------------------------------------------------

    def sample(self, rng: np.random.Generator | None = None) -> SampleResult:
        """Scan levels sparsest-first; uniform choice from the first hit,
        drawn from ``rng`` (default: the sampler's own, which advances)."""
        rng = self._choice_rng if rng is None else rng
        for level in range(self.levels - 1, -1, -1):
            result = self._recoveries[level].recover()
            if result.dense or result.is_zero:
                continue
            support = result.indices
            pick = int(support[rng.integers(support.size)])
            value = int(result.values[np.flatnonzero(support == pick)[0]])
            return SampleResult.ok(pick, float(value), level=level,
                                   support_size=int(support.size))
        return SampleResult.fail("all-levels-zero-or-dense")

    # -- distributed use ------------------------------------------------------------

    def _map_mismatches(self, other) -> list[str]:
        """The fields preventing a merge/subtract, human-readable.

        Two samplers share a linear map iff every map-defining field
        matches: universe (locator range), seed (level sets and
        recovery hashes), mode (level derivation), sparsity (syndrome
        count) and levels (recovery list length).  ``delta`` only
        enters through ``sparsity``, so it is deliberately not
        compared: explicitly-equal sparsities share a map even when
        the deltas that suggested them differ.
        """
        if not isinstance(other, L0Sampler):
            return [f"type: L0Sampler != {type(other).__name__}"]
        return [f"{name}: {getattr(self, name)!r} != {getattr(other, name)!r}"
                for name in ("universe", "seed", "mode", "sparsity", "levels")
                if getattr(self, name) != getattr(other, name)]

    def _require_same_map(self, other, verb: str) -> None:
        mismatches = self._map_mismatches(other)
        if mismatches:
            raise ValueError(
                f"cannot {verb} L0 samplers with different maps "
                f"({'; '.join(mismatches)})")

    def merge(self, other: "L0Sampler") -> None:
        """In-place addition: afterwards this samples from ``x + y``.

        Linearity of every level recovery makes the sampler mergeable,
        which powers multi-party reconciliation (k sites each sketch
        their vector; the coordinator merges and samples the union's
        support).  Requires identically seeded samplers; anything else
        raises with the exact mismatched fields rather than silently
        zipping incompatible level recoveries.
        """
        self._require_same_map(other, "merge")
        for mine, theirs in zip(self._recoveries, other._recoveries):
            mine.merge(theirs)

    def subtract(self, other: "L0Sampler") -> None:
        """In-place subtraction: afterwards this samples from ``x - y``."""
        self._require_same_map(other, "subtract")
        for mine, theirs in zip(self._recoveries, other._recoveries):
            mine.subtract(theirs)

    def recover_full_support(self) -> np.ndarray | None:
        """The exact support when it is s-sparse (level 0), else None."""
        result = self._recoveries[0].recover()
        if result.dense:
            return None
        return result.indices

    # -- space -------------------------------------------------------------------------

    def space_report(self) -> SpaceReport:
        """Itemised space: level recoveries plus the PRG/hash seed."""
        prg_bits = (self._prg.space_bits() if self._prg is not None
                    else self._subset.space_bits())
        report = SpaceReport(label=f"l0-sampler(delta={self.delta}, "
                                   f"mode={self.mode})",
                             seed_bits=prg_bits)
        for recovery in self._recoveries:
            report.add(recovery.space_report())
        return report

    def space_bits(self) -> int:
        """Total space in bits (paper accounting)."""
        return self.space_report().total
