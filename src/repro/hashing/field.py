"""Prime-field arithmetic used by the hashing and sparse-recovery substrates.

The paper's constructions (k-wise independent hash families, the exact
sparse recovery of Lemma 5) are most naturally implemented over a prime
field GF(p).  We standardise on the Mersenne prime ``p = 2**31 - 1``:

* it exceeds every universe size ``n`` we experiment with, so stream
  coordinates map to distinct non-zero field elements;
* products of two reduced elements fit in an unsigned 64-bit integer
  (``(p - 1)**2 < 2**62``), so numpy ``uint64`` arithmetic never
  overflows and reduction is a single modulo.

All functions accept and return numpy ``uint64`` arrays (scalars are
fine too) and are fully vectorised.  A tiny object-oriented wrapper,
:class:`PrimeField`, bundles the modulus with the operations so callers
that need a different prime (tests exercise small ones) can get it.
"""

from __future__ import annotations

import numpy as np

#: The default field modulus: the Mersenne prime 2**31 - 1.
MERSENNE31 = np.uint64(2**31 - 1)

#: A larger Mersenne prime occasionally useful for fingerprints.  Products
#: of reduced elements do NOT fit in uint64, so only addition-based code
#: may use it directly; multiplication goes through Python integers.
MERSENNE61 = 2**61 - 1


def _as_u64(values) -> np.ndarray:
    """Coerce input (ints, lists, arrays) to a uint64 ndarray."""
    return np.asarray(values, dtype=np.uint64)


class Immutable:
    """Base of the hashing objects, which never change once built:
    ``copy.deepcopy`` returns the object itself, so a deep copy of a
    structure shares its map and copies only its state."""

    __slots__ = ()

    def __deepcopy__(self, memo):
        return self


class PrimeField(Immutable):
    """Vectorised arithmetic in GF(p) for a prime ``p < 2**32``.

    The bound on ``p`` guarantees ``mul`` cannot overflow uint64.
    Instances are cheap, stateless value objects.

    >>> f = PrimeField()
    >>> int(f.mul(2**30, 4))            # (2**32) mod (2**31 - 1)
    2
    >>> int(f.inv(7) * 7 % f.p)
    1
    """

    __slots__ = ("p", "_p_int")

    def __init__(self, p: int = int(MERSENNE31)):
        if p < 2 or p >= 2**32:
            raise ValueError("modulus must be a prime in [2, 2**32)")
        self.p = np.uint64(p)
        self._p_int = int(p)

    # -- basic operations -------------------------------------------------

    def reduce(self, values) -> np.ndarray:
        """Reduce arbitrary non-negative integers into the field."""
        return _as_u64(values) % self.p

    def reduce_signed(self, values) -> np.ndarray:
        """Reduce possibly-negative Python/numpy integers into the field.

        Integer ndarrays reduce vectorised (unsigned ones without the
        int64 cast, which would wrap values >= 2**63); anything else,
        e.g. Python big ints, goes through exact Python arithmetic.
        """
        if isinstance(values, np.ndarray) and values.dtype.kind == "i":
            return self.from_signed(values)
        if isinstance(values, np.ndarray) and values.dtype.kind == "u":
            return values.astype(np.uint64) % self.p
        arr = np.asarray(values, dtype=object)
        flat = [v % self._p_int for v in np.ravel(arr)]
        out = np.array(flat, dtype=np.uint64).reshape(np.shape(arr))
        return out

    def add(self, a, b) -> np.ndarray:
        return (_as_u64(a) + _as_u64(b)) % self.p

    def sub(self, a, b) -> np.ndarray:
        return (_as_u64(a) + self.p - _as_u64(b) % self.p) % self.p

    def neg(self, a) -> np.ndarray:
        return (self.p - _as_u64(a) % self.p) % self.p

    def mul(self, a, b) -> np.ndarray:
        return (_as_u64(a) * _as_u64(b)) % self.p

    def pow(self, base, exponent: int) -> np.ndarray:
        """Raise ``base`` (array) to a scalar exponent by square-and-multiply."""
        if exponent < 0:
            return self.pow(self.inv(base), -exponent)
        result = np.ones_like(_as_u64(base))
        acc = self.reduce(base)
        e = int(exponent)
        while e:
            if e & 1:
                result = self.mul(result, acc)
            acc = self.mul(acc, acc)
            e >>= 1
        return result

    def inv(self, a) -> np.ndarray:
        """Multiplicative inverse via Fermat's little theorem.

        Raises :class:`ZeroDivisionError` if any element is zero.
        """
        arr = self.reduce(a)
        if np.any(arr == 0):
            raise ZeroDivisionError("zero has no inverse in GF(p)")
        return self.pow(arr, self._p_int - 2)

    # -- signed embedding --------------------------------------------------

    def to_signed(self, values) -> np.ndarray:
        """Map field elements back to signed integers in (-p/2, p/2].

        Stream coordinate values are bounded by ``M = poly(n) << p/2``, so
        after linear sketching over GF(p) this recovers the true integer.
        """
        arr = self.reduce(values).astype(np.int64)
        half = self._p_int // 2
        return np.where(arr > half, arr - np.int64(self._p_int), arr)

    def from_signed(self, values) -> np.ndarray:
        """Embed signed int64 values into GF(p)."""
        arr = np.asarray(values, dtype=np.int64)
        return (arr % np.int64(self._p_int)).astype(np.uint64)

    # -- polynomial helpers (used by the syndrome decoder) ------------------

    def poly_eval(self, coeffs, points) -> np.ndarray:
        """Evaluate the polynomial ``sum coeffs[k] * X**k`` at many points.

        ``coeffs`` is a 1-D sequence (low degree first); ``points`` an array.
        Horner's rule, vectorised across the points.
        """
        pts = self.reduce(points)
        acc = np.zeros_like(pts)
        for c in reversed(list(coeffs)):
            acc = self.add(self.mul(acc, pts), self.reduce(int(c)))
        return acc

    def poly_mul(self, a, b) -> list[int]:
        """Multiply two coefficient lists (low degree first) over GF(p)."""
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + int(ai) * int(bj)) % self._p_int
        return out


#: Module-level default field shared by the hashing code.
DEFAULT_FIELD = PrimeField()
