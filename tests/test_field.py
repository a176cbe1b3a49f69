"""Unit tests for prime-field arithmetic (hashing/field.py)."""

import numpy as np
import pytest

from repro.hashing.field import DEFAULT_FIELD, MERSENNE31, PrimeField


class TestConstruction:
    def test_default_modulus_is_mersenne31(self):
        assert int(DEFAULT_FIELD.p) == 2**31 - 1

    def test_rejects_tiny_modulus(self):
        with pytest.raises(ValueError):
            PrimeField(1)

    def test_rejects_oversized_modulus(self):
        with pytest.raises(ValueError):
            PrimeField(2**32)

    def test_small_prime_accepted(self):
        f = PrimeField(17)
        assert int(f.p) == 17


class TestBasicOps:
    def test_add_wraps(self):
        f = PrimeField(17)
        assert int(f.add(16, 5)) == 4

    def test_sub_wraps_below_zero(self):
        f = PrimeField(17)
        assert int(f.sub(3, 5)) == 15

    def test_neg_is_additive_inverse(self):
        f = PrimeField(17)
        for a in range(17):
            assert int(f.add(a, f.neg(a))) == 0

    def test_mul_matches_python(self):
        f = DEFAULT_FIELD
        a, b = 2**30 + 123, 2**29 + 456
        assert int(f.mul(a, b)) == (a * b) % int(f.p)

    def test_mul_no_uint64_overflow_at_extremes(self):
        f = DEFAULT_FIELD
        a = int(f.p) - 1
        assert int(f.mul(a, a)) == (a * a) % int(f.p)

    def test_vectorised_ops_match_scalar(self):
        f = DEFAULT_FIELD
        a = np.array([1, 2**20, 2**30, int(f.p) - 1], dtype=np.uint64)
        b = np.array([5, 7, 11, 13], dtype=np.uint64)
        out = f.mul(a, b)
        for i in range(a.size):
            assert int(out[i]) == int(a[i]) * int(b[i]) % int(f.p)


class TestPowInv:
    def test_pow_zero_exponent(self):
        f = PrimeField(17)
        assert int(f.pow(np.uint64(5), 0)) == 1

    def test_pow_matches_python_pow(self):
        f = DEFAULT_FIELD
        base = 123456789
        for e in (1, 2, 3, 17, 100, 12345):
            assert int(f.pow(np.uint64(base), e)) == pow(base, e, int(f.p))

    def test_inv_times_self_is_one(self):
        f = DEFAULT_FIELD
        for a in (1, 2, 7, 2**20, int(f.p) - 1):
            assert int(f.mul(f.inv(a), a)) == 1

    def test_inv_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            DEFAULT_FIELD.inv(0)

    def test_negative_exponent_is_inverse_power(self):
        f = PrimeField(101)
        a = 7
        assert int(f.pow(np.uint64(a), -2)) == pow(pow(a, 99, 101), 2, 101)


class TestSignedEmbedding:
    def test_roundtrip_small_values(self):
        f = DEFAULT_FIELD
        values = np.array([-1000, -1, 0, 1, 12345], dtype=np.int64)
        assert np.array_equal(f.to_signed(f.from_signed(values)), values)

    def test_reduce_signed_handles_negatives(self):
        f = PrimeField(17)
        out = f.reduce_signed(np.array([-1, -18, 16], dtype=np.int64))
        assert out.tolist() == [16, 16, 16]

    def test_reduce_signed_vectorised_matches_python(self):
        """Integer arrays take the vectorised path; results equal exact
        Python ``v % p`` at the int64/uint64 extremes, and object
        arrays of big ints keep the exact path."""
        f = DEFAULT_FIELD
        p = int(f.p)
        signed = [-(2**63), 2**63 - 1, -1, 0, 1, p, -p, p - 1, -(p + 1)]
        for dtype in (np.int64, np.int32, np.int8):
            info = np.iinfo(dtype)
            values = [v for v in signed if info.min <= v <= info.max]
            out = f.reduce_signed(np.array(values, dtype=dtype))
            assert out.dtype == np.uint64
            assert out.tolist() == [v % p for v in values]
        unsigned = [0, 1, p, 2**63, 2**64 - 1]
        out = f.reduce_signed(np.array(unsigned, dtype=np.uint64))
        assert out.tolist() == [v % p for v in unsigned]
        big = [2**63, -(2**63) - 1, 2**70 + 5, -(2**90)]
        out = f.reduce_signed(np.array(big, dtype=object))
        assert out.dtype == np.uint64
        assert out.tolist() == [v % p for v in big]
        grid = np.arange(-6, 6, dtype=np.int64).reshape(3, 4)
        assert f.reduce_signed(grid).shape == (3, 4)
        assert f.reduce_signed(grid).tolist() == \
            f.reduce_signed(grid.astype(object)).tolist()
        assert f.reduce_signed(-5).tolist() == p - 5

    def test_to_signed_boundary(self):
        f = PrimeField(17)
        # elements <= 8 stay positive, >= 9 map to negatives
        assert int(f.to_signed(8)) == 8
        assert int(f.to_signed(9)) == -8


class TestPolynomials:
    def test_poly_eval_constant(self):
        f = PrimeField(101)
        out = f.poly_eval([42], np.array([0, 1, 50], dtype=np.uint64))
        assert out.tolist() == [42, 42, 42]

    def test_poly_eval_matches_direct(self):
        f = PrimeField(101)
        coeffs = [3, 0, 5, 1]  # 3 + 5x^2 + x^3
        for x in range(10):
            expected = (3 + 5 * x**2 + x**3) % 101
            assert int(f.poly_eval(coeffs, np.array([x], dtype=np.uint64))[0]) \
                == expected

    def test_poly_mul_matches_numpy_convolution(self):
        f = PrimeField(101)
        a = [1, 2, 3]
        b = [4, 5]
        out = f.poly_mul(a, b)
        expected = np.convolve(a, b) % 101
        assert out == expected.tolist()
