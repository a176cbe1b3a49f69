"""k-wise independent hash families over a prime field.

The paper relies on three flavours of limited-independence randomness:

* pairwise-independent bucket hashes ``h_j : [n] -> [6m]`` and sign
  hashes ``g_j : [n] -> {-1, +1}`` inside the count-sketch (Section 2);
* 4-wise independent signs for the AMS estimator of ``||z - zhat||_2``;
* k-wise independent *uniform scaling factors* ``t_i in (0, 1]`` with
  ``k = 10 * ceil(1/|p-1|)`` for the precision sampler (Figure 1, step 4
  of the initialization stage) — the paper stresses that pairwise
  independence (as used by Andoni–Krauthgamer–Onak) is not enough for
  its sharper analysis.

The standard construction is used throughout: a uniformly random degree
``k-1`` polynomial over GF(p) evaluated at the key, then post-processed
(reduced to a range, mapped to a sign, or scaled into (0, 1]).  All
evaluation is vectorised with numpy Horner's rule.

Every family also has a *stacked* form (``KWiseHash.stack`` and
friends): the per-row coefficient vectors of ``rows`` independent
hashes are stacked into a ``(rows, k)`` matrix and all rows are
evaluated against a key batch in one batched Horner pass, producing a
``(rows, len(keys))`` table.  Field arithmetic is exact uint64, so row
``j`` of the stacked output is byte-identical to calling hash ``j``
alone — the fused sketch kernels rely on this to stay equivalent to
their per-row reference paths while paying numpy's per-call overhead
``k`` times instead of ``rows * k`` times.

Every hash here is immutable once built: the coefficient arrays are
read-only and ``copy.deepcopy`` returns the hash itself.  Deep copies
of a structure therefore share its map and copy only its state, which
is how the engine's twins stay cheap (see
:func:`repro.engine.checkpoint.build_twin`).
"""

from __future__ import annotations

import numpy as np

from .field import DEFAULT_FIELD, Immutable, PrimeField


class KWiseHash(Immutable):
    """A k-wise independent function ``h : [u] -> GF(p)``.

    ``h(x) = sum_{j<k} c_j x**j  (mod p)`` with independently uniform
    coefficients ``c_j`` drawn from the supplied generator.  Evaluating a
    random degree-(k-1) polynomial at k distinct points gives mutually
    independent uniform values, which is the textbook k-wise family.

    Parameters
    ----------
    k:
        Independence parameter (polynomial has ``k`` coefficients).
    rng:
        ``numpy.random.Generator`` supplying the coefficients.
    field:
        The prime field to work over; defaults to GF(2^31 - 1).
    """

    __slots__ = ("k", "field", "coeffs")

    def __init__(self, k: int, rng: np.random.Generator,
                 field: PrimeField = DEFAULT_FIELD):
        if k < 1:
            raise ValueError("independence parameter k must be >= 1")
        self.k = int(k)
        self.field = field
        self.coeffs = rng.integers(0, int(field.p), size=self.k,
                                   dtype=np.uint64)
        self.coeffs.flags.writeable = False
        # A zero leading coefficient only lowers the degree, which is
        # harmless for independence, so no rejection sampling is needed.

    def __call__(self, keys) -> np.ndarray:
        """Evaluate the hash at integer keys (scalar or array)."""
        scalar = np.isscalar(keys)
        pts = self.field.reduce(np.atleast_1d(np.asarray(keys, dtype=np.uint64)))
        acc = np.zeros_like(pts)
        for c in self.coeffs[::-1]:
            acc = self.field.add(self.field.mul(acc, pts), c)
        return acc[0] if scalar else acc

    def space_bits(self) -> int:
        """Seed storage: k field elements of ~log2(p) bits each."""
        return self.k * int(np.ceil(np.log2(float(self.field.p))))

    @staticmethod
    def stack(hashes: list["KWiseHash"]) -> "StackedKWiseHash":
        """Fuse several same-(k, field) hashes into one batched evaluator."""
        return StackedKWiseHash(hashes)


class StackedKWiseHash(Immutable):
    """``rows`` k-wise hashes evaluated together: keys -> (rows, n) table.

    The coefficient vectors are stacked into a ``(rows, k)`` matrix and
    Horner's rule runs once over the whole matrix, broadcasting the key
    batch across rows.  All arithmetic is the same exact uint64 field
    arithmetic :class:`KWiseHash` uses, so ``stacked(keys)[j]`` equals
    ``hashes[j](keys)`` bit for bit.
    """

    __slots__ = ("k", "rows", "field", "coeffs")

    def __init__(self, hashes: list[KWiseHash]):
        if not hashes:
            raise ValueError("need at least one hash to stack")
        head = hashes[0]
        for h in hashes[1:]:
            if h.k != head.k or int(h.field.p) != int(head.field.p):
                raise ValueError(
                    "stacked hashes must share k and the field modulus")
        self.k = head.k
        self.rows = len(hashes)
        self.field = head.field
        self.coeffs = np.stack([h.coeffs for h in hashes])  # (rows, k)
        self.coeffs.flags.writeable = False

    #: Target working-set elements per Horner block (~128 KiB of
    #: uint64): the accumulator must stay cache-resident across the
    #: in-place multiply/add/reduce chain or the evaluation turns
    #: memory-bound (measured ~2.5x slower at large batches).
    _BLOCK_ELEMS = 16384

    def __call__(self, keys) -> np.ndarray:
        """Evaluate every row at the key batch; returns ``(rows, n)``.

        Three savings over looping the per-row hashes: the leading
        Horner step degenerates to loading the top coefficient (the
        per-row path multiplies an all-zero accumulator instead), each
        remaining step reduces once instead of twice (the multiply-add
        ``acc*x + c <= (p-1)p < 2**64`` cannot overflow uint64 for any
        ``p < 2**32``, so one modulo covers both), and the evaluation
        is cache-blocked over key columns: every in-place step runs on
        a ``(rows, block)`` slab sized to stay cache-resident, writing
        each finished block into the full result exactly once.  Hash
        values are a pure per-element function, so neither the
        in-place chain nor the blocking can change a single output
        bit relative to the per-row hashes.

        For ``k == 1`` the rows are constants; the result is a
        read-only broadcast view.
        """
        pts = self.field.reduce(
            np.atleast_1d(np.asarray(keys, dtype=np.uint64)))
        if self.k == 1:
            return np.broadcast_to(self.coeffs[:, :1],
                                   (self.rows, pts.size))
        out = np.empty((self.rows, pts.size), dtype=np.uint64)
        block = max(256, self._BLOCK_ELEMS // self.rows)
        top = self.coeffs[:, -1:]
        for start in range(0, pts.size, block):
            cols = slice(start, min(start + block, pts.size))
            acc = out[:, cols]         # row-contiguous column block
            np.multiply(top, pts[cols], out=acc)
            for t in range(self.k - 2, -1, -1):
                np.add(acc, self.coeffs[:, t:t + 1], out=acc)
                np.remainder(acc, self.field.p, out=acc)
                if t > 0:
                    np.multiply(acc, pts[cols], out=acc)
        return out


class BucketHash(Immutable):
    """k-wise independent hash into ``range(buckets)``.

    Composes :class:`KWiseHash` with a modular range reduction.  The
    reduction introduces a ``<= buckets/p`` bias per bucket, negligible
    since ``p = 2^31 - 1`` dwarfs every bucket count we use.
    """

    __slots__ = ("_h", "buckets")

    def __init__(self, k: int, buckets: int, rng: np.random.Generator,
                 field: PrimeField = DEFAULT_FIELD):
        if buckets < 1:
            raise ValueError("need at least one bucket")
        self._h = KWiseHash(k, rng, field)
        self.buckets = int(buckets)

    def __call__(self, keys) -> np.ndarray:
        return self._h(keys) % np.uint64(self.buckets)

    def space_bits(self) -> int:
        return self._h.space_bits()

    @property
    def kwise(self) -> KWiseHash:
        """The underlying field hash (pre range reduction), so callers
        can stack bucket and sign rows into one fused evaluation."""
        return self._h

    @staticmethod
    def stack(hashes: list["BucketHash"]) -> "StackedBucketHash":
        """Fuse several same-range bucket hashes into one evaluator."""
        return StackedBucketHash(hashes)


class StackedBucketHash(Immutable):
    """``rows`` bucket hashes evaluated together: keys -> (rows, n)."""

    __slots__ = ("_h", "buckets")

    def __init__(self, hashes: list[BucketHash]):
        if not hashes:
            raise ValueError("need at least one hash to stack")
        buckets = {h.buckets for h in hashes}
        if len(buckets) != 1:
            raise ValueError("stacked bucket hashes must share a range")
        self._h = KWiseHash.stack([h._h for h in hashes])
        self.buckets = hashes[0].buckets

    @property
    def rows(self) -> int:
        return self._h.rows

    def __call__(self, keys) -> np.ndarray:
        values = self._h(keys)
        return np.remainder(values, np.uint64(self.buckets),
                            out=values if values.flags.writeable
                            else None)


class SignHash(Immutable):
    """k-wise independent sign function ``g : [u] -> {-1, +1}``.

    Uses the parity of the field hash; returns int8 so sign arrays
    multiply cheaply into sketch counters.
    """

    __slots__ = ("_h",)

    def __init__(self, k: int, rng: np.random.Generator,
                 field: PrimeField = DEFAULT_FIELD):
        self._h = KWiseHash(k, rng, field)

    def __call__(self, keys) -> np.ndarray:
        bits = self._h(keys) & np.uint64(1)
        return (np.asarray(bits, dtype=np.int8) * 2) - 1

    def space_bits(self) -> int:
        return self._h.space_bits()

    @property
    def kwise(self) -> KWiseHash:
        """The underlying field hash (pre parity), so callers can stack
        sign rows next to bucket rows in one fused evaluation."""
        return self._h

    @staticmethod
    def stack(hashes: list["SignHash"]) -> "StackedSignHash":
        """Fuse several sign hashes into one batched evaluator."""
        return StackedSignHash(hashes)


class StackedSignHash(Immutable):
    """``rows`` sign hashes evaluated together: keys -> (rows, n) int8."""

    __slots__ = ("_h",)

    def __init__(self, hashes: list[SignHash]):
        if not hashes:
            raise ValueError("need at least one hash to stack")
        self._h = KWiseHash.stack([h._h for h in hashes])

    @property
    def rows(self) -> int:
        return self._h.rows

    def __call__(self, keys) -> np.ndarray:
        bits = self._h(keys) & np.uint64(1)
        return (np.asarray(bits, dtype=np.int8) * 2) - 1

    def apply(self, keys, values) -> np.ndarray:
        """``sign(key) * value`` for every row: ``(rows, n)``.

        ``values`` may be ``(n,)`` (broadcast across rows) or
        ``(rows, n)``.  The int8 sign matrix multiplies measurably
        faster than a boolean select, so this is just the product —
        the method exists to keep call sites declarative.
        """
        return self(keys) * np.asarray(values)


class UniformScalarHash(Immutable):
    """k-wise independent map ``t : [u] -> (0, 1]``.

    This realises the scaling factors of the precision sampler
    (Figure 1): ``t_i`` are k-wise independent uniforms, implemented as
    ``(h(i) + 1) / p`` so the value is never zero (the paper divides by
    ``t_i**(1/p)``, and a zero would blow up).  The granularity ``1/p``
    matches the paper's discretization remark: scaling factors below
    ``n**-c`` may be declared failures anyway.
    """

    __slots__ = ("_h", "_inv_p")

    def __init__(self, k: int, rng: np.random.Generator,
                 field: PrimeField = DEFAULT_FIELD):
        self._h = KWiseHash(k, rng, field)
        self._inv_p = 1.0 / float(field.p)

    def __call__(self, keys) -> np.ndarray:
        raw = self._h(keys)
        return (np.asarray(raw, dtype=np.float64) + 1.0) * self._inv_p

    def space_bits(self) -> int:
        return self._h.space_bits()


class SubsetHash(Immutable):
    """Pairwise (or higher) independent membership test for random level sets.

    The L0 sampler (Theorem 2) draws subsets ``I_k`` of ``[n]`` of
    expected size ``2**k``.  The paper uses fully random subsets plus
    Nisan's PRG; we substitute a k-wise hash threshold test, which gives
    the |I_k ∩ J| concentration the Chernoff step of the proof needs
    (documented in DESIGN.md substitution 2).

    ``level_member(keys, level, n)`` is true when the key falls below the
    threshold ``p * 2**level / 2**ceil(log2 n)``, i.e. the key survives
    with probability ~``2**level / n_pow2``.
    """

    __slots__ = ("_h", "field")

    def __init__(self, k: int, rng: np.random.Generator,
                 field: PrimeField = DEFAULT_FIELD):
        self._h = KWiseHash(k, rng, field)
        self.field = field

    def level_member(self, keys, level: int, universe: int) -> np.ndarray:
        levels_total = max(1, int(np.ceil(np.log2(max(2, universe)))))
        if level >= levels_total:
            return np.ones(np.shape(np.atleast_1d(keys)), dtype=bool)
        frac = 2.0 ** (level - levels_total)
        threshold = np.uint64(max(1, int(float(self.field.p) * frac)))
        vals = np.atleast_1d(self._h(keys))
        return vals < threshold

    def space_bits(self) -> int:
        return self._h.space_bits()


def derive_rngs(seed, count: int) -> list[np.random.Generator]:
    """Spawn ``count`` independent generators from one seed.

    Central helper so every structure in the library derives its
    randomness from an explicit ``SeedSequence`` — experiments are
    reproducible and structures built from the same seed are identical,
    which the linear-sketch merge operations rely on.
    """
    seq = seed if isinstance(seed, np.random.SeedSequence) \
        else np.random.SeedSequence(seed)
    return [np.random.Generator(np.random.PCG64(s)) for s in seq.spawn(count)]
