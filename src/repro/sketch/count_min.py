"""Count-min and count-median sketches (Cormode–Muthukrishnan [8]).

Section 4.4 of the paper cites the *count-median* algorithm of [8] as
the O(phi^-1 log^2 n) upper bound for L1 heavy hitters, against which
the count-sketch bound O(phi^-p log^2 n) is stated.  We implement both
variants on one table:

* **count-min** — estimate by the minimum over rows.  In the *strict
  turnstile* model every bucket over-counts, so the minimum never
  underestimates:  ``x_i <= est(i) <= x_i + 2 ||x||_1 / buckets`` whp.
* **count-median** — estimate by the median over rows, which works in
  the general update model (no sign guarantee) with additive error
  ``O(||x||_1 / buckets)`` whp.
"""

from __future__ import annotations

import numpy as np

from ..hashing.kwise import BucketHash, derive_rngs
from ..space.accounting import SpaceReport, counter_bits
from .linear import LinearSketch
from .serialize import register

#: Batch-estimate chunk size (coordinates per block): scratch stays at
#: ``rows * _ESTIMATE_BLOCK`` counters regardless of the universe size.
_ESTIMATE_BLOCK = 1 << 15


@register
class CountMin(LinearSketch):
    """A rows-by-buckets counter table with pairwise-independent hashes.

    ``estimate`` uses the count-min rule (strict turnstile);
    ``estimate_median`` uses the count-median rule (general model).
    """

    def __init__(self, universe: int, buckets: int, rows: int, seed: int = 0):
        if buckets < 1 or rows < 1:
            raise ValueError("buckets and rows must be positive")
        self.universe = int(universe)
        self.buckets = int(buckets)
        self.rows = int(rows)
        self.seed = int(seed)
        rngs = derive_rngs(np.random.SeedSequence((self.seed, 0xC1)),
                           self.rows)
        self._hashes = [BucketHash(2, self.buckets, rngs[j])
                        for j in range(self.rows)]
        self._stacked = BucketHash.stack(self._hashes)
        self.table = np.zeros((self.rows, self.buckets), dtype=np.int64)

    def _params(self) -> dict:
        return dict(universe=self.universe, buckets=self.buckets,
                    rows=self.rows, seed=self.seed)

    def _state_arrays(self) -> list[np.ndarray]:
        return [self.table]

    def _replace_state(self, arrays) -> None:
        (self.table,) = arrays

    def _compatible(self, other) -> bool:
        return (super()._compatible(other) and self.buckets == other.buckets
                and self.rows == other.rows)

    def update_many(self, indices, deltas) -> None:
        """Fused update: every row's bucket hash from one cache-blocked
        stacked Horner pass, then the (fast since numpy 1.24) per-row
        ``np.add.at`` scatter — native int64, exact at any magnitude,
        and byte-identical to :meth:`_reference_update_many`.
        """
        idx = np.asarray(indices, dtype=np.int64)
        dlt = np.asarray(deltas, dtype=np.int64)
        if idx.size == 0:
            return
        buckets = self._stacked(idx)                    # (rows, n)
        for j in range(self.rows):
            np.add.at(self.table[j], buckets[j], dlt)

    def _reference_update_many(self, indices, deltas) -> None:
        """The historical per-row ``np.add.at`` path (equivalence oracle)."""
        idx = np.asarray(indices, dtype=np.int64)
        dlt = np.asarray(deltas, dtype=np.int64)
        for j in range(self.rows):
            buckets = self._hashes[j](idx).astype(np.int64)
            np.add.at(self.table[j], buckets, dlt)

    def _row_samples(self, indices) -> np.ndarray:
        idx = np.asarray(indices, dtype=np.int64)
        buckets = self._stacked(idx).astype(np.int64)
        return np.take_along_axis(self.table, buckets, axis=1)

    def estimate(self, index: int) -> int:
        """Count-min estimate: never below ``x_i`` in strict turnstile."""
        return int(self._row_samples(np.array([index],
                                              dtype=np.int64)).min())

    def estimate_many(self, indices) -> np.ndarray:
        """Count-min estimates for a batch of coordinates.

        Internally chunked like count-sketch's batch estimator: the
        ``(rows, batch)`` gather runs over blocks of at most
        ``_ESTIMATE_BLOCK`` coordinates, so scratch memory stays
        bounded however many coordinates are asked for (the full-
        universe heavy-hitter sweep included) while each block still
        runs the stacked vectorised path.
        """
        return self._estimate_blocks(indices, np.int64,
                                     lambda s: s.min(axis=0))

    def estimate_median(self, index: int) -> float:
        """Count-median estimate: valid in the general update model."""
        return float(np.median(self._row_samples(
            np.array([index], dtype=np.int64))))

    def estimate_median_many(self, indices) -> np.ndarray:
        """Count-median estimates, chunked like :meth:`estimate_many`."""
        return self._estimate_blocks(indices, np.float64,
                                     lambda s: np.median(s, axis=0))

    def _estimate_blocks(self, indices, out_dtype, reduce_rows):
        idx = np.asarray(indices, dtype=np.int64)
        out = np.empty(idx.shape, dtype=out_dtype)
        flat_idx = np.atleast_1d(idx)
        flat_out = np.atleast_1d(out)
        for start in range(0, flat_idx.size, _ESTIMATE_BLOCK):
            block = flat_idx[start:start + _ESTIMATE_BLOCK]
            flat_out[start:start + _ESTIMATE_BLOCK] = \
                reduce_rows(self._row_samples(block))
        return out

    def space_report(self) -> SpaceReport:
        return SpaceReport(
            label=f"count-min({self.rows}x{self.buckets})",
            counter_count=self.rows * self.buckets,
            bits_per_counter=counter_bits(self.universe),
            seed_bits=sum(h.space_bits() for h in self._hashes),
        )
