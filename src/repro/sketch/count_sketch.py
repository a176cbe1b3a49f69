"""The count-sketch of Charikar, Chen and Farach-Colton [6].

The paper (Section 2) defines it exactly as implemented here: for a
size parameter ``m`` select, for each of ``l = O(log n)`` rows,
pairwise-independent hashes ``h_j : [n] -> [6m]`` and signs
``g_j : [n] -> {-1, +1}``; maintain

    y[k, j] = sum over i with h_j(i) = k of g_j(i) * x_i

and estimate ``x*_i = median_j( g_j(i) * y[h_j(i), j] )``.

Lemma 1 (the guarantee the sampler's analysis leans on):

    |x_i - x*_i| <= Err^m_2(x) / sqrt(m)    for all i, whp,

where ``Err^m_2(x)`` is the L2 distance from ``x`` to the best m-sparse
approximation — crucially the *tail* norm: heavy coordinates do not
contribute, which is where the paper saves its log factor over [1].

The sketch accepts real-valued updates because the sampler feeds it the
scaled vector ``z_i = x_i / t_i^(1/p)``.
"""

from __future__ import annotations

import numpy as np

from ..hashing.kwise import BucketHash, KWiseHash, SignHash, derive_rngs
from ..space.accounting import SpaceReport, counter_bits
from .linear import LinearSketch
from .serialize import register

#: Max elements per ``(rows, block)`` scratch slab the estimation path
#: materialises at once; bounds query-time memory to
#: ``rows * _ESTIMATE_BLOCK`` floats regardless of the universe size.
_ESTIMATE_BLOCK = 1 << 15


@register
class CountSketch(LinearSketch):
    """Count-sketch with ``rows`` independent (hash, sign) pairs.

    Parameters
    ----------
    universe:
        Dimension ``n`` of the underlying vector.
    m:
        The sparsity/size parameter of Lemma 1; each row has ``6 * m``
        buckets, as in the paper's definition.
    rows:
        ``l``; the paper sets ``l = O(log n)``.  See
        :func:`rows_for_universe` for the conventional choice.
    seed:
        Integer seed; sketches with equal (universe, m, rows, seed) share
        their linear map and can be merged/subtracted.
    independence:
        Independence of the hash families (paper: pairwise).
    """

    def __init__(self, universe: int, m: int, rows: int, seed: int = 0,
                 independence: int = 2):
        if m < 1 or rows < 1:
            raise ValueError("m and rows must be positive")
        self.universe = int(universe)
        self.m = int(m)
        self.buckets = 6 * self.m
        self.rows = int(rows)
        self.seed = int(seed)
        self.independence = int(independence)
        rngs = derive_rngs(np.random.SeedSequence((self.seed, 0xC5)),
                           2 * self.rows)
        self._bucket_hashes = [BucketHash(independence, self.buckets, rngs[2 * j])
                               for j in range(self.rows)]
        self._sign_hashes = [SignHash(independence, rngs[2 * j + 1])
                             for j in range(self.rows)]
        # One fused evaluator over all 2*rows polynomials (bucket rows
        # first, then sign rows): a single key reduction and Horner
        # pass per batch, bit-equal per row to the per-row hashes.
        self._fused_rows = KWiseHash.stack(
            [h.kwise for h in self._bucket_hashes]
            + [g.kwise for g in self._sign_hashes])
        self.table = np.zeros((self.rows, self.buckets), dtype=np.float64)

    # -- LinearSketch plumbing -------------------------------------------------

    def _params(self) -> dict:
        return dict(universe=self.universe, m=self.m, rows=self.rows,
                    seed=self.seed, independence=self.independence)

    def _state_arrays(self) -> list[np.ndarray]:
        return [self.table]

    def _replace_state(self, arrays) -> None:
        (self.table,) = arrays

    def _compatible(self, other) -> bool:
        return (super()._compatible(other) and self.m == other.m
                and self.rows == other.rows
                and self.independence == other.independence)

    # -- updates -----------------------------------------------------------------

    def update_many(self, indices, deltas) -> None:
        """Fused update: all 2*rows hash polynomials evaluated in one
        cache-blocked stacked Horner pass, then the per-row scatter.

        The scatter is ``np.add.at`` by measurement: since numpy 1.24
        the ufunc ``at`` fast path scatters at ~2 ns/element, so a
        flattened-``np.bincount`` scatter costs more in flat-index and
        weight temporaries than it saves.  Byte-identical to
        :meth:`_reference_update_many` — same hash values, same
        scatter ops in the same order (the equivalence tests pin it).
        """
        idx = np.asarray(indices, dtype=np.int64)
        dlt = np.asarray(deltas, dtype=np.float64)
        if idx.size == 0:
            return
        buckets, signs = self._hash_block(idx)
        signed = signs * dlt
        for j in range(self.rows):
            np.add.at(self.table[j], buckets[j], signed[j])

    def _hash_block(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """All rows' buckets (``(rows, n)`` uint64) and signs
        (``(rows, n)`` int8) from one fused field-hash evaluation.
        The range reduction runs in place on the evaluator's fresh
        slab (read-only only in the degenerate ``independence == 1``
        case, where the hashes are constants)."""
        values = self._fused_rows(idx)                  # (2*rows, n)
        half = values[:self.rows]
        buckets = np.remainder(
            half, np.uint64(self.buckets),
            out=half if values.flags.writeable else None)
        signs = np.asarray(values[self.rows:] & np.uint64(1),
                           dtype=np.int8) * 2 - 1
        return buckets, signs

    def _reference_update_many(self, indices, deltas) -> None:
        """The historical per-row path, kept as the equivalence oracle:
        one bucket-hash call, one sign-hash call and one ``np.add.at``
        scatter per row.  The fused path must reproduce its tables bit
        for bit (same hash values, same scatter order)."""
        idx = np.asarray(indices, dtype=np.int64)
        dlt = np.asarray(deltas, dtype=np.float64)
        for j in range(self.rows):
            buckets = self._bucket_hashes[j](idx).astype(np.int64)
            signed = self._sign_hashes[j](idx) * dlt
            np.add.at(self.table[j], buckets, signed)

    # -- queries -------------------------------------------------------------------

    def estimate(self, index: int) -> float:
        """The point estimate ``x*_index``."""
        return float(self.estimate_many(np.array([index],
                                                 dtype=np.int64))[0])

    def estimate_many(self, indices) -> np.ndarray:
        """Point estimates for a batch of coordinates.

        Internally chunked: the ``(rows, batch)`` gather runs over
        blocks of at most ``_ESTIMATE_BLOCK`` coordinates, so scratch
        memory stays bounded however many coordinates are asked for
        (``estimate_all`` over a large universe included) while each
        block still runs the stacked vectorised path.
        """
        idx = np.asarray(indices, dtype=np.int64)
        out = np.empty(idx.shape, dtype=np.float64)
        flat_idx = np.atleast_1d(idx)
        flat_out = np.atleast_1d(out)
        for start in range(0, flat_idx.size, _ESTIMATE_BLOCK):
            block = flat_idx[start:start + _ESTIMATE_BLOCK]
            buckets, signs = self._hash_block(block)
            samples = signs * np.take_along_axis(
                self.table, buckets.astype(np.int64), axis=1)
            flat_out[start:start + _ESTIMATE_BLOCK] = \
                np.median(samples, axis=0)
        return out

    def estimate_all(self) -> np.ndarray:
        """``x*`` for the whole universe (vectorised; recovery-time only).

        The streaming *space* story is unaffected: this is a query-time
        computation over public hash functions, exactly the ``find i
        with |z*_i| maximal`` step of Figure 1's recovery stage.  Peak
        scratch is ``rows * _ESTIMATE_BLOCK`` floats (the chunked
        :meth:`estimate_many`), not ``rows * universe``.
        """
        return self.estimate_many(np.arange(self.universe, dtype=np.int64))

    def best_sparse_approximation(self, sparsity: int | None = None
                                  ) -> tuple[np.ndarray, np.ndarray]:
        """Indices and values of the best m-sparse approximation of ``x*``.

        This is the vector ``zhat`` of Figure 1's recovery step 1: keep
        the ``m`` coordinates of largest magnitude, zero elsewhere.
        """
        k = self.m if sparsity is None else int(sparsity)
        estimates = self.estimate_all()
        if k >= self.universe:
            order = np.argsort(-np.abs(estimates))
        else:
            top = np.argpartition(-np.abs(estimates), k)[:k]
            order = top[np.argsort(-np.abs(estimates[top]))]
        return order.astype(np.int64), estimates[order]

    def heaviest_index(self) -> tuple[int, float]:
        """Figure 1 recovery step 4: argmax of |z*| and its estimate."""
        estimates = self.estimate_all()
        i = int(np.argmax(np.abs(estimates)))
        return i, float(estimates[i])

    def inner_product(self, other: "CountSketch") -> float:
        """Estimate ``<x, y>`` from two sketches sharing one linear map.

        Per row ``j`` the bucket dot product ``sum_k y[j,k] z[j,k]``
        is an unbiased estimator of ``<x, y>`` (the sign hashes cancel
        cross terms in expectation); the median over the O(log n)
        independent rows concentrates it.  Requires an identically
        seeded sketch — different maps would correlate nothing.
        """
        if not self._compatible(other):
            raise ValueError(
                "cannot take the inner product of count-sketches with "
                "different maps (universe, m, rows, seed and "
                "independence must all match)")
        per_row = (self.table * other.table).sum(axis=1)
        return float(np.median(per_row))

    # -- space ------------------------------------------------------------------------

    def space_report(self) -> SpaceReport:
        report = SpaceReport(
            label=f"count-sketch(m={self.m}, rows={self.rows})",
            counter_count=self.rows * self.buckets,
            bits_per_counter=counter_bits(self.universe),
            seed_bits=sum(h.space_bits() for h in self._bucket_hashes)
            + sum(g.space_bits() for g in self._sign_hashes),
        )
        return report


def rows_for_universe(universe: int, c: float = 2.0) -> int:
    """The conventional ``l = O(log n)`` row count giving n^-c failure."""
    return max(3, int(np.ceil(c * np.log2(max(2, universe)))) | 1)


def err_m2(vector, m: int) -> float:
    """``Err^m_2(x)``: the L2 norm of ``x`` minus its best m-sparse part.

    Ground-truth helper used by tests and the Lemma 1 benchmark.
    """
    vec = np.asarray(vector, dtype=np.float64)
    if m >= vec.size:
        return 0.0
    mags = np.sort(np.abs(vec))[::-1]
    return float(np.sqrt((mags[m:] ** 2).sum()))
