"""Nisan's pseudo-random generator for space-bounded computation.

Theorem 2 of the paper derandomizes the L0 sampler with Nisan's PRG
[25]: the fully random bits describing the level sets ``I_k`` (and the
final uniform choice from ``I_k ∩ J``) are replaced by the output of a
generator with an O(log^2 n)-bit seed, because the algorithm that
*consumes* those bits is a log-space tester.

Nisan's construction.  Fix a block length ``b`` and depth ``k``.  The
seed is one start block ``x`` plus ``k`` pairwise-independent hash
functions ``h_1 .. h_k`` on blocks.  Define

    G_0(x)           = x                       (one block)
    G_i(x; h_1..h_i) = G_{i-1}(x) || G_{i-1}(h_i(x))

so ``G_k`` outputs ``2^k`` blocks.  Unrolling, the block with binary
index ``j = (j_k .. j_1)`` equals ``h_1^{j_1}(h_2^{j_2}( ... h_k^{j_k}(x)))``,
which gives *random access* to any block in ``k`` hash evaluations — we
exploit this to evaluate level-membership of a single stream key
without materialising the whole pseudo-random string.

We use ``b = 61``-bit blocks and hashes ``h(x) = a*x + c mod (2^61 - 1)``
(pairwise independent over the Mersenne-61 field; arithmetic is done in
Python integers to avoid uint64 overflow, vectorised via numpy object
arrays only where needed — block computations are cheap).

Seed size: ``(2k + 1)`` field elements = ``(2k + 1) * 61`` bits; with
``k = ceil(log2 n)`` this is the O(log^2 n) bits the theorem charges.
"""

from __future__ import annotations

import numpy as np

from .field import MERSENNE61, Immutable

_MASK61 = (1 << 61) - 1


class NisanPRG(Immutable):
    """Nisan's generator with random access to output blocks.

    Parameters
    ----------
    depth:
        ``k``; the generator produces ``2**depth`` blocks of 61 bits.
    rng:
        Source for the seed (one start block + 2*depth hash coefficients).
    """

    __slots__ = ("depth", "start", "mults", "adds")

    def __init__(self, depth: int, rng: np.random.Generator):
        if depth < 0 or depth > 48:
            raise ValueError("depth must be in [0, 48]")
        self.depth = int(depth)
        self.start = int(rng.integers(0, MERSENNE61))
        # h_i(x) = (mults[i] * x + adds[i]) mod 2^61-1, with mults != 0 so
        # each h_i is a bijection on the field (pairwise independent family).
        # Tuples: deep copies share the generator, so the seed stays fixed.
        self.mults = tuple(int(rng.integers(1, MERSENNE61))
                           for _ in range(self.depth))
        self.adds = tuple(int(rng.integers(0, MERSENNE61))
                          for _ in range(self.depth))

    @property
    def num_blocks(self) -> int:
        return 1 << self.depth

    def block(self, index: int) -> int:
        """Return output block ``index`` as a 61-bit integer.

        Bit ``i-1`` of ``index`` (1-based hash numbering) decides whether
        ``h_i`` is applied; hashes apply from the deepest level outward.
        """
        if not 0 <= index < self.num_blocks:
            raise IndexError("block index out of range")
        value = self.start
        # Apply h_k first (most significant bit), h_1 last.
        for i in range(self.depth - 1, -1, -1):
            if (index >> i) & 1:
                value = (self.mults[i] * value + self.adds[i]) % MERSENNE61
        return value

    def blocks(self, indices) -> np.ndarray:
        """Vector form of :meth:`block` over an array of indices."""
        idx = np.atleast_1d(np.asarray(indices, dtype=np.int64))
        out = np.empty(idx.shape, dtype=np.uint64)
        for pos, j in enumerate(idx):
            out[pos] = self.block(int(j))
        return out

    def uniform(self, indices) -> np.ndarray:
        """Map blocks to floats in (0, 1) with 53-bit granularity."""
        vals = self.blocks(indices).astype(np.float64)
        return (vals + 0.5) / float(MERSENNE61)

    def bit_string(self, count: int) -> np.ndarray:
        """First ``count`` output bits as a uint8 array (for tests)."""
        blocks_needed = (count + 60) // 61
        if blocks_needed > self.num_blocks:
            raise ValueError("generator too shallow for requested bits")
        bits = np.empty(blocks_needed * 61, dtype=np.uint8)
        for j in range(blocks_needed):
            v = self.block(j)
            for t in range(61):
                bits[j * 61 + t] = (v >> t) & 1
        return bits[:count]

    def space_bits(self) -> int:
        """Seed storage: (2*depth + 1) field elements of 61 bits."""
        return (2 * self.depth + 1) * 61


def prg_for_universe(universe: int, streams: int,
                     rng: np.random.Generator) -> NisanPRG:
    """A generator deep enough to address ``universe * streams`` blocks.

    Used by the derandomized L0 sampler: the block for (key ``i``,
    logical stream ``s``) lives at index ``i * streams + s``.
    """
    need = max(2, int(universe) * int(streams))
    depth = int(np.ceil(np.log2(need)))
    return NisanPRG(depth, rng)
