"""Counter-based deterministic pseudo-randomness.

Streaming linear sketches need the (i, j) entry of their random matrix
*on demand*: the same entry must be produced every time coordinate ``i``
is updated, without storing the n-by-l matrix.  The classical trick —
and the one the paper's space accounting assumes — is to derive each
entry from a short seed by hashing the pair ``(i, j)``.

:class:`CounterRNG` implements this with the SplitMix64 finalizer, a
well-studied 64-bit mixing permutation.  On top of the raw 64-bit
stream we provide:

* ``uniform(i, j)``  — floats in (0, 1), 53-bit granularity;
* ``gaussian(i, j)`` — standard normals (Box–Muller);
* ``cauchy(i, j)``   — standard Cauchy (inverse CDF), the 1-stable law;
* ``stable(p, i, j)``— general symmetric p-stable variates via the
  Chambers–Mallows–Stuck transform, which drives the Indyk Lp-norm
  estimator used as Lemma 2 of the paper.

This substitutes the paper's random-oracle reals (DESIGN.md
substitution 1): granularity 2^-53 sits far below every threshold in
the analysis at our experiment scales.
"""

from __future__ import annotations

import numpy as np

from .field import Immutable

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_TWO53 = float(2**53)


def splitmix64(values) -> np.ndarray:
    """Apply the SplitMix64 finalizer to a uint64 array (vectorised).

    Multiplication intentionally wraps modulo 2**64; the errstate guard
    silences numpy's overflow warning for scalar inputs.
    """
    with np.errstate(over="ignore"):
        z = np.asarray(values, dtype=np.uint64) + _GOLDEN
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


class CounterRNG(Immutable):
    """Deterministic random numbers addressed by (key, stream) counters.

    Two instances with the same ``seed`` produce identical outputs —
    this is what makes sketches built on it *linear* and mergeable.
    """

    __slots__ = ("seed",)

    def __init__(self, seed: int):
        self.seed = np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF)

    # -- raw streams -------------------------------------------------------

    def raw(self, keys, stream: int = 0) -> np.ndarray:
        """64 pseudo-random bits per key, distinct per ``stream`` index."""
        k = np.asarray(keys, dtype=np.uint64)
        mixed = splitmix64(k ^ splitmix64(np.uint64(stream) ^ self.seed))
        return splitmix64(mixed)

    def raw_block(self, keys, streams) -> np.ndarray:
        """:meth:`raw` for many streams at once: ``(len(streams), n)``.

        Row ``j`` is byte-identical to ``raw(keys, streams[j])`` — the
        same exact integer mixing, evaluated with one broadcast instead
        of a Python loop over streams.  This is the batched entry point
        the fused sketch kernels use.
        """
        k = np.asarray(keys, dtype=np.uint64)
        s = splitmix64(np.asarray(streams, dtype=np.uint64) ^ self.seed)
        return splitmix64(splitmix64(k[None, :] ^ s[:, None]))

    def uniform(self, keys, stream: int = 0) -> np.ndarray:
        """Uniforms in the open interval (0, 1)."""
        bits = self.raw(keys, stream) >> np.uint64(11)  # top 53 bits
        return (np.asarray(bits, dtype=np.float64) + 0.5) / _TWO53

    def uniform_block(self, keys, streams) -> np.ndarray:
        """:meth:`uniform` over many streams: ``(len(streams), n)``."""
        bits = self.raw_block(keys, streams) >> np.uint64(11)
        return (np.asarray(bits, dtype=np.float64) + 0.5) / _TWO53

    # -- derived distributions ----------------------------------------------

    def gaussian(self, keys, stream: int = 0) -> np.ndarray:
        """Standard normal variates via Box–Muller on two sub-streams."""
        u1 = self.uniform(keys, 2 * stream)
        u2 = self.uniform(keys, 2 * stream + 1)
        return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)

    def cauchy(self, keys, stream: int = 0) -> np.ndarray:
        """Standard Cauchy variates (the symmetric 1-stable law)."""
        u = self.uniform(keys, stream)
        return np.tan(np.pi * (u - 0.5))

    def sign(self, keys, stream: int = 0) -> np.ndarray:
        """Rademacher +-1 variates as int8."""
        bit = self.raw(keys, stream) & np.uint64(1)
        return (np.asarray(bit, dtype=np.int8) * 2) - 1

    def stable(self, p: float, keys, stream: int = 0) -> np.ndarray:
        """Symmetric p-stable variates, p in (0, 2].

        Chambers–Mallows–Stuck:  with theta ~ U(-pi/2, pi/2) and
        W ~ Exp(1),

            X = sin(p*theta) / cos(theta)^(1/p)
                * (cos((1-p)*theta) / W)^((1-p)/p).

        The p = 2 case degenerates to sqrt(2) * Gaussian and p = 1 to
        Cauchy, which we special-case for numerical robustness.
        """
        if not 0.0 < p <= 2.0:
            raise ValueError("stability parameter p must lie in (0, 2]")
        if abs(p - 2.0) < 1e-12:
            return np.sqrt(2.0) * self.gaussian(keys, stream)
        if abs(p - 1.0) < 1e-12:
            return self.cauchy(keys, stream)
        theta = np.pi * (self.uniform(keys, 2 * stream) - 0.5)
        w = -np.log(self.uniform(keys, 2 * stream + 1))
        return self._cms(p, theta, w)

    def stable_block(self, p: float, keys, streams) -> np.ndarray:
        """:meth:`stable` over many streams: ``(len(streams), n)``.

        Row ``j`` equals ``stable(p, keys, streams[j])`` bit for bit:
        the underlying 64-bit mixing is exact and every float transform
        is elementwise, so batching cannot change a single variate.
        """
        if not 0.0 < p <= 2.0:
            raise ValueError("stability parameter p must lie in (0, 2]")
        s = np.asarray(streams, dtype=np.uint64)
        if abs(p - 2.0) < 1e-12:
            u1 = self.uniform_block(keys, 2 * s)
            u2 = self.uniform_block(keys, 2 * s + np.uint64(1))
            return np.sqrt(2.0) * (np.sqrt(-2.0 * np.log(u1))
                                   * np.cos(2.0 * np.pi * u2))
        if abs(p - 1.0) < 1e-12:
            u = self.uniform_block(keys, s)
            return np.tan(np.pi * (u - 0.5))
        theta = np.pi * (self.uniform_block(keys, 2 * s) - 0.5)
        w = -np.log(self.uniform_block(keys, 2 * s + np.uint64(1)))
        return self._cms(p, theta, w)

    @staticmethod
    def _cms(p: float, theta, w) -> np.ndarray:
        """The Chambers–Mallows–Stuck transform (shape-agnostic)."""
        num = np.sin(p * theta)
        den = np.cos(theta) ** (1.0 / p)
        tail = (np.cos((1.0 - p) * theta) / w) ** ((1.0 - p) / p)
        return (num / den) * tail

    def space_bits(self) -> int:
        """The seed is a single 64-bit word."""
        return 64
