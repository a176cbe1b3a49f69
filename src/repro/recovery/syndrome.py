"""Exact s-sparse recovery via syndromes (the paper's Lemma 5).

Lemma 5: for ``1 <= s <= n`` there is a random linear function
``L : R^n -> R^k`` with ``k = O(s)``, generated from ``O(k log n)``
random bits, and a recovery procedure that (a) returns ``x' = x`` with
probability 1 whenever ``x`` is s-sparse, and (b) otherwise returns
DENSE with high probability.

Construction (Prony / Reed–Solomon syndrome decoding over GF(p)):

* **Measurements.**  ``2s`` deterministic power sums
  ``S_j = sum_i x_i * a_i^j  (mod p)`` with locators ``a_i = i + 1``
  (distinct, non-zero), plus a few random polynomial fingerprints
  ``F_r = sum_i x_i * b_r^i`` used as the DENSE certificate.
* **Decoding.**  If ``x`` has support ``{i_1..i_L}``, the syndromes
  satisfy the length-L recurrence with connection polynomial
  ``prod_k (1 - a_{i_k} X)``.  Berlekamp–Massey recovers it; its
  reversal ``Lambda(X) = prod_k (X - a_{i_k})`` must split into L
  distinct linear factors, which ``g = gcd(X^p - X, Lambda)`` counts
  (``deg g < L`` is DENSE at once); a seeded equal-degree split
  (Cantor–Zassenhaus) of ``g`` yields the roots, which must be
  locators in ``[1, n]``; a Vandermonde solve gives the values; the
  fingerprints then either confirm the candidate or report DENSE.

Decoding costs ``O(s^2 log p)`` field operations, independent of the
universe size n.  For s-sparse inputs every step is exact arithmetic,
so recovery is deterministic — matching the "probability 1" clause
(the roots are unique, so the split's random draws never change the
answer).  For dense inputs the fingerprint check fails except with
probability ``O(n/p)`` per fingerprint, i.e. the low-probability
regime of the paper.

``recover()`` is a pure function of the linear map and the state, so
decoded results are memoized by content (a bounded LRU keyed on the
map parameters and the state bytes): identical states seen through
clones or snapshots decode once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ..hashing.field import DEFAULT_FIELD
from ..space.accounting import SpaceReport, counter_bits
from ..sketch.linear import LinearSketch
from ..sketch.serialize import register
from .berlekamp_massey import berlekamp_massey

#: Sentinel returned when the sketched vector is not s-sparse.
DENSE = "DENSE"

#: Distinct states whose decoded results the ``recover()`` memo keeps.
_RECOVER_MEMO_SIZE = 64


@dataclass
class RecoveryResult:
    """Outcome of sparse recovery: a sparse vector or the DENSE verdict."""

    dense: bool
    indices: np.ndarray | None = None
    values: np.ndarray | None = None

    @property
    def is_zero(self) -> bool:
        return not self.dense and self.indices.size == 0

    def to_dense(self, universe: int) -> np.ndarray:
        if self.dense:
            raise ValueError("DENSE result has no vector")
        vec = np.zeros(universe, dtype=np.int64)
        vec[self.indices] = self.values
        return vec


@register
class SyndromeSparseRecovery(LinearSketch):
    """Lemma 5 structure: 2s syndromes + ``fingerprints`` certificates.

    Space: ``O(s)`` field counters of ``O(log n)`` bits, plus
    ``O(log n)`` seed bits per fingerprint — the ``O(s log n)`` total
    the paper charges in Theorem 4.
    """

    def __init__(self, universe: int, sparsity: int, seed: int = 0,
                 fingerprints: int = 3):
        if sparsity < 1:
            raise ValueError("sparsity must be >= 1")
        self.universe = int(universe)
        self.sparsity = int(sparsity)
        self.seed = int(seed)
        self.field = DEFAULT_FIELD
        if self.universe + 1 >= int(self.field.p):
            raise ValueError("universe too large for the recovery field")
        self.num_fingerprints = int(fingerprints)
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, 0x5D)))
        self._fp_points = np.array(
            [rng.integers(2, int(self.field.p)) for _ in range(fingerprints)],
            dtype=np.uint64)
        self.syndromes = np.zeros(2 * self.sparsity, dtype=np.uint64)
        self.fp_values = np.zeros(fingerprints, dtype=np.uint64)

    # -- LinearSketch plumbing ---------------------------------------------------

    def _params(self) -> dict:
        return dict(universe=self.universe, sparsity=self.sparsity,
                    seed=self.seed, fingerprints=self.num_fingerprints)

    def _state_arrays(self) -> list[np.ndarray]:
        return [self.syndromes, self.fp_values]

    def _replace_state(self, arrays) -> None:
        self.syndromes, self.fp_values = arrays

    def _compatible(self, other) -> bool:
        return (type(self) is type(other)
                and self.universe == other.universe
                and self.sparsity == other.sparsity
                and self.seed == other.seed)

    def merge(self, other) -> None:
        if not self._compatible(other):
            raise ValueError("cannot merge sketches with different maps")
        self.syndromes = self.field.add(self.syndromes, other.syndromes)
        self.fp_values = self.field.add(self.fp_values, other.fp_values)

    def subtract(self, other) -> None:
        if not self._compatible(other):
            raise ValueError("cannot subtract sketches with different maps")
        self.syndromes = self.field.sub(self.syndromes, other.syndromes)
        self.fp_values = self.field.sub(self.fp_values, other.fp_values)

    # -- updates --------------------------------------------------------------------

    def update_many(self, indices, deltas) -> None:
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size == 0:
            return
        dlt = self.field.reduce_signed(np.asarray(deltas, dtype=np.int64))
        locators = (idx + 1).astype(np.uint64)
        # Power sums: S_j += sum u * a^j, built up one power at a time.
        power = dlt % self.field.p  # u * a^0
        for j in range(self.syndromes.size):
            total = np.uint64(int(power.sum(dtype=np.object_)) % int(self.field.p))
            self.syndromes[j] = self.field.add(self.syndromes[j], total)
            power = self.field.mul(power, locators)
        # Fingerprints: F_r += sum u * b_r^i.
        from ..sketch.l0_estimator import _pow_many

        for r, b in enumerate(self._fp_points):
            contrib = self.field.mul(dlt, _pow_many(self.field, b, idx))
            total = np.uint64(int(contrib.sum(dtype=np.object_)) % int(self.field.p))
            self.fp_values[r] = self.field.add(self.fp_values[r], total)

    # -- decoding --------------------------------------------------------------------

    def recover(self) -> RecoveryResult:
        """Decode: the exact vector if s-sparse, otherwise DENSE (whp).

        Memoized on content; every call hands out fresh arrays, so a
        caller mutating its result cannot reach the memo.
        """
        if not self.syndromes.any() and not self.fp_values.any():
            return RecoveryResult(dense=False,
                                  indices=np.array([], dtype=np.int64),
                                  values=np.array([], dtype=np.int64))
        decoded = _decode_memo(self.universe, self.sparsity, self.seed,
                               self.num_fingerprints,
                               _state_key(self.syndromes),
                               _state_key(self.fp_values))
        if decoded.dense:
            return RecoveryResult(dense=True)
        return RecoveryResult(dense=False, indices=decoded.indices.copy(),
                              values=decoded.values.copy())

    def _decode(self) -> RecoveryResult:
        """The uncached decoder behind :meth:`recover`."""
        p = int(self.field.p)
        connection = berlekamp_massey(self.syndromes.tolist(), p)
        degree = len(connection) - 1
        if degree > self.sparsity or degree == 0:
            return RecoveryResult(dense=True)
        support = self._find_support(connection)
        if support is None:
            return RecoveryResult(dense=True)
        values = self._solve_values(support, degree)
        if values is None:
            return RecoveryResult(dense=True)
        candidate = RecoveryResult(dense=False, indices=support, values=values)
        if not self._verify(candidate):
            return RecoveryResult(dense=True)
        return candidate

    def _find_support(self, connection: list[int]) -> np.ndarray | None:
        """Support indices (ascending) named by the connection polynomial.

        ``C(X) = prod (1 - a_k X)`` so the locators are the roots of the
        monic reversal ``Lambda(X) = X^L C(1/X) = prod (X - a_k)``.  A
        degree-1 ``Lambda`` is solved directly.  Otherwise
        ``g = gcd(X^p - X, Lambda)`` is the product of ``Lambda``'s
        distinct roots in GF(p); ``deg g < L`` means a repeated or
        non-field root, i.e. not L distinct locators (DENSE, None).
        Else ``g = Lambda`` is split by seeded equal-degree
        factorization.  Any root outside the locator range ``[1, n]``
        is also DENSE.  Cost ``O(L^2 log p)``, independent of ``n``;
        the scan it replaces is kept as
        :meth:`_reference_find_support`.
        """
        p = int(self.field.p)
        monic = [int(c) % p for c in reversed(connection)]
        degree = len(monic) - 1
        if degree == 1:
            roots = [-monic[0] % p]
        else:
            frobenius = _linear_pow_mod(0, p, monic, p)  # X^p mod Lambda
            frobenius[1] = (frobenius[1] - 1) % p
            if len(_poly_gcd(monic, frobenius, p)) - 1 < degree:
                return None
            rng = np.random.default_rng(
                np.random.SeedSequence((self.seed, 0xC2)))
            roots = _split_linear_factors(monic, p, rng)
        if not all(1 <= root <= self.universe for root in roots):
            return None
        # Locator a = i + 1 names support index i.
        return np.array(sorted(root - 1 for root in roots), dtype=np.int64)

    def _reference_find_support(self,
                                connection: list[int]) -> np.ndarray | None:
        """Oracle for :meth:`_find_support`: Horner-evaluate the reversed
        polynomial at every locator ``1..n`` (``Theta(n L)``)."""
        reversed_coeffs = list(reversed(connection))
        locators = np.arange(1, self.universe + 1, dtype=np.uint64)
        evals = self.field.poly_eval(reversed_coeffs, locators)
        roots = np.flatnonzero(evals == 0)
        degree = len(connection) - 1
        if roots.size != degree:
            return None
        return roots.astype(np.int64)  # position i holds locator i + 1

    def _solve_values(self, support: np.ndarray,
                      degree: int) -> np.ndarray | None:
        """Solve the Vandermonde system S_j = sum_k c_k a_k^j, j < L."""
        p = int(self.field.p)
        locators = [int(i) + 1 for i in support.tolist()]
        size = len(locators)
        # Build augmented matrix rows: [a_1^j ... a_L^j | S_j]
        matrix = []
        for j in range(size):
            row = [pow(a, j, p) for a in locators]
            row.append(int(self.syndromes[j]))
            matrix.append(row)
        solution = _solve_linear_mod(matrix, p)
        if solution is None:
            return None
        signed = np.array(
            [v - p if v > p // 2 else v for v in solution], dtype=np.int64)
        if np.any(signed == 0):
            return None  # a true support coordinate cannot be zero
        return signed

    def _verify(self, candidate: RecoveryResult) -> bool:
        """Check the random fingerprints against the candidate vector."""
        from ..sketch.l0_estimator import _pow_many

        dlt = self.field.reduce_signed(candidate.values)
        for r, b in enumerate(self._fp_points):
            contrib = self.field.mul(dlt, _pow_many(self.field, b,
                                                    candidate.indices))
            total = np.uint64(int(contrib.sum(dtype=np.object_))
                              % int(self.field.p))
            if total != self.fp_values[r]:
                return False
        return True

    # -- space ------------------------------------------------------------------------

    def space_report(self) -> SpaceReport:
        return SpaceReport(
            label=f"syndrome-recovery(s={self.sparsity})",
            counter_count=self.syndromes.size + self.fp_values.size,
            bits_per_counter=counter_bits(self.universe),
            seed_bits=31 * self.num_fingerprints,
        )


def _state_key(arr: np.ndarray) -> tuple[str, bytes]:
    return arr.dtype.str, arr.tobytes()


@functools.lru_cache(maxsize=_RECOVER_MEMO_SIZE)
def _decode_memo(universe: int, sparsity: int, seed: int, fingerprints: int,
                 syndromes: tuple[str, bytes],
                 fp_values: tuple[str, bytes]) -> RecoveryResult:
    """Decode the state named by its map parameters and array bytes."""
    recovery = SyndromeSparseRecovery(universe, sparsity, seed, fingerprints)
    recovery.syndromes = np.frombuffer(syndromes[1], dtype=syndromes[0])
    recovery.fp_values = np.frombuffer(fp_values[1], dtype=fp_values[0])
    return recovery._decode()


# -- polynomials over GF(p): coefficient lists, low degree first -------------


def _trim(poly: list[int]) -> list[int]:
    while len(poly) > 1 and poly[-1] == 0:
        poly.pop()
    return poly


def _poly_divmod(num: list[int], den: list[int],
                 p: int) -> tuple[list[int], list[int]]:
    """``(num // den, num % den)``; ``den`` has a non-zero leading
    coefficient."""
    rem = list(num)
    top = len(den) - 1
    inv = pow(den[-1], p - 2, p)
    quo = [0] * max(len(num) - top, 1)
    for i in range(len(rem) - 1, top - 1, -1):
        coef = rem[i] * inv % p
        quo[i - top] = coef
        if coef:
            base = i - top
            for k in range(top):
                rem[base + k] = (rem[base + k] - coef * den[k]) % p
        rem[i] = 0
    return quo, _trim(rem[:max(top, 1)])


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd of two polynomials (the zero polynomial is ``[0]``)."""
    a, b = _trim(list(a)), _trim(list(b))
    while b != [0]:
        a, b = b, _poly_divmod(a, b, p)[1]
    inv = pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


def _linear_pow_mod(shift: int, exponent: int, modulus: list[int],
                    p: int) -> list[int]:
    """``(X + shift)^exponent mod modulus`` (monic, degree >= 2), as
    ``degree`` coefficients.  Left-to-right square-and-multiply; the
    multiply by ``X + shift`` is linear time."""
    top = len(modulus) - 1
    result = [1] + [0] * (top - 1)
    for bit in bin(exponent)[2:]:
        square = [0] * (2 * top - 1)
        for i, ri in enumerate(result):
            if ri:
                square[2 * i] += ri * ri
                twice = 2 * ri
                for j in range(i + 1, top):
                    square[i + j] += twice * result[j]
        for i in range(2 * top - 2, top - 1, -1):
            coef = square[i] % p
            if coef:
                for k in range(top):
                    square[i - top + k] -= coef * modulus[k]
        result = [c % p for c in square[:top]]
        if bit == "1":
            # result * (X + shift), then fold the X^top term back in.
            lead = result[-1]
            result = [(shift * result[0] - lead * modulus[0]) % p] + [
                (result[k - 1] + shift * result[k] - lead * modulus[k]) % p
                for k in range(1, top)]
    return result


def _split_linear_factors(poly: list[int], p: int, rng) -> list[int]:
    """Roots of a monic ``poly`` known to be a product of distinct
    linear factors over GF(p), by Cantor–Zassenhaus splitting:
    ``gcd((X + d)^((p-1)/2) - 1, poly)`` keeps the roots ``r`` with
    ``r + d`` a non-zero square, about half of them for random ``d``.
    """
    if len(poly) == 2:
        return [-poly[0] % p]
    if len(poly) == 3 and p % 4 == 3:
        # Quadratic formula; a square's root is its ((p+1)/4)-th power.
        root = pow((poly[1] * poly[1] - 4 * poly[0]) % p, (p + 1) // 4, p)
        inv2 = (p + 1) // 2
        return [(-poly[1] + root) * inv2 % p, (-poly[1] - root) * inv2 % p]
    while True:
        half = _linear_pow_mod(int(rng.integers(p)), (p - 1) // 2, poly, p)
        half[0] = (half[0] - 1) % p
        factor = _poly_gcd(poly, half, p)
        if 1 < len(factor) < len(poly):
            return (_split_linear_factors(factor, p, rng)
                    + _split_linear_factors(
                        _poly_divmod(poly, factor, p)[0], p, rng))


def _solve_linear_mod(matrix: list[list[int]], p: int) -> list[int] | None:
    """Gaussian elimination over GF(p) on an augmented matrix.

    Returns the solution vector or None if the system is singular.
    Sizes here are at most the sparsity bound, so Python-int arithmetic
    is plenty fast.
    """
    rows = len(matrix)
    cols = rows  # square system
    m = [row[:] for row in matrix]
    for col in range(cols):
        pivot = next((r for r in range(col, rows) if m[r][col] % p), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        inv = pow(m[col][col], p - 2, p)
        m[col] = [(v * inv) % p for v in m[col]]
        for r in range(rows):
            if r != col and m[r][col] % p:
                factor = m[r][col]
                m[r] = [(a - factor * b) % p for a, b in zip(m[r], m[col])]
    return [m[r][cols] % p for r in range(rows)]
