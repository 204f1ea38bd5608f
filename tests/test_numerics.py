import warnings

import numpy as np
import pytest

from sidalign.errors import ConfigInvalid, DimensionMismatch, ZeroVector
from sidalign.numerics import (
    Prng,
    cholesky_upper,
    cosine_similarity,
    length_normalize,
)


class TestLengthNormalize:
    def test_three_four_five(self):
        np.testing.assert_allclose(length_normalize([3, 4]), [0.6, 0.8])

    def test_zero_vector_raises(self):
        with pytest.raises(ZeroVector):
            length_normalize([0, 0])

    def test_already_unit(self):
        np.testing.assert_array_equal(length_normalize([1, 0, 0]), [1, 0, 0])

    def test_unit_norm_postcondition(self):
        rng = Prng(3)
        for _ in range(50):
            v = rng.standard_normal(10)
            assert abs(np.linalg.norm(length_normalize(v)) - 1) < 1e-12

    def test_idempotent(self):
        rng = Prng(4)
        for _ in range(20):
            v = rng.standard_normal(7)
            once = length_normalize(v)
            twice = length_normalize(once)
            assert np.max(np.abs(twice - once)) < 1e-15

    @pytest.mark.parametrize("shape", [(1, 5), (6, 32), (200, 32), (9, 1), (40, 129)])
    def test_rows_equal_vector_results_bitwise(self, shape):
        rows = Prng(6).standard_normal(*shape) * 10.0 ** Prng(7).uniform(-3, 3, shape[0])[:, None]
        # a transposed copy is not C-contiguous; it must give the same bits
        for block in (rows, np.asfortranarray(rows)):
            out = length_normalize(block)
            assert out.shape == shape
            for i in range(shape[0]):
                np.testing.assert_array_equal(out[i], length_normalize(block[i]))

    @pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
    @pytest.mark.parametrize("where", [0, 3, 6])
    def test_degenerate_row_anywhere_raises(self, bad, where):
        rows = Prng(8).standard_normal(7, 4)
        if bad == 0.0:
            rows[where] = 0.0
        else:
            rows[where, 2] = bad
        with pytest.raises(ZeroVector):
            length_normalize(rows)

    def test_overflowing_norm_raises_without_warnings(self):
        # A row near 1e300 overflows its norm: one ZeroVector, and no numpy
        # RuntimeWarning before it.
        rows = Prng(8).standard_normal(3, 4)
        rows[1] *= 1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ZeroVector, match="norm inf"):
                length_normalize(rows)

    @pytest.mark.parametrize("shape", [(2, 3, 4), (1, 1, 1), ()])
    def test_not_vector_or_rows_raises(self, shape):
        with pytest.raises(DimensionMismatch):
            length_normalize(np.ones(shape))


class TestCosineSimilarity:
    def test_identical(self):
        assert cosine_similarity([1, 0], [1, 0]) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_similarity([1, 0], [0, 1]) == pytest.approx(0.0)

    def test_45_degrees(self):
        assert cosine_similarity([1, 0], [1, 1]) == pytest.approx(0.70710678, abs=1e-8)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cosine_similarity([1, 0], [1, 0, 0])

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            cosine_similarity([0, 0], [1, 0])

    def test_scale_invariance(self):
        rng = Prng(5)
        for _ in range(30):
            u = rng.standard_normal(6)
            c = float(rng.uniform(0.1, 10))
            assert abs(cosine_similarity(u, c * u) - 1.0) < 1e-12

    def test_symmetric(self):
        rng = Prng(6)
        a, b = rng.standard_normal(8), rng.standard_normal(8)
        assert cosine_similarity(a, b) == cosine_similarity(b, a)


class TestCholeskyUpper:
    """cholesky_upper(a) for rows a: the upper factor M with M^T M = a^T a."""

    def test_identity(self):
        m = cholesky_upper(np.eye(3))
        np.testing.assert_allclose(np.abs(m), np.eye(3))

    def test_known_2x2(self):
        # rows whose Gram matrix is [[4, 2], [2, 3]]; M is unique up to row signs
        m = cholesky_upper([[2, 1], [0, np.sqrt(2)]])
        np.testing.assert_allclose(np.abs(m), [[2, 1], [0, np.sqrt(2)]], atol=1e-12)

    def test_reconstruction(self):
        a = np.array([[1.0, 2.0], [3.0, -1.0], [0.5, 0.0]])
        m = cholesky_upper(a)
        np.testing.assert_allclose(m.T @ m, a.T @ a, rtol=1e-12)

    def test_random_spd_relative_error(self):
        # rows [b; I] have the Gram matrix b^T b + I
        rng = Prng(7)
        worst = 0.0
        for _ in range(1000):
            a = np.vstack([rng.standard_normal(8, 8), np.eye(8)])
            m = cholesky_upper(a)
            rel = np.linalg.norm(m.T @ m - a.T @ a) / np.linalg.norm(a.T @ a)
            worst = max(worst, rel)
        assert worst <= 1e-12

    def test_upper_triangular(self):
        rng = Prng(8)
        m = cholesky_upper(np.vstack([rng.standard_normal(5, 5), np.eye(5)]))
        np.testing.assert_array_equal(m, np.triu(m))

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_fewer_rows_than_columns(self, n):
        # a^T a has rank n < k: M is still (k, k), with zero rows below n
        a = Prng(9).standard_normal(n, 6)
        m = cholesky_upper(a)
        assert m.shape == (6, 6)
        np.testing.assert_array_equal(m, np.triu(m))
        np.testing.assert_array_equal(m[n:], 0.0)
        np.testing.assert_allclose(m.T @ m, a.T @ a, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("a, error", [([1.0, 2.0], DimensionMismatch),
                                          ([[1.0, np.inf]], ZeroVector),
                                          ([[np.nan, 0.0]], ZeroVector)],
                             ids=["one-d", "infinite", "nan"])
    def test_refused(self, a, error):
        with pytest.raises(error):
            cholesky_upper(a)


class TestPrng:
    def test_determinism(self):
        a = Prng(42).standard_normal(100)
        b = Prng(42).standard_normal(100)
        np.testing.assert_array_equal(a, b)

    def test_normal_mean(self):
        draws = Prng(10).standard_normal(100_000)
        assert -0.02 <= draws.mean() <= 0.02

    def test_uniform_mean(self):
        draws = Prng(11).uniform(0, 1, 100_000)
        assert 0.49 <= draws.mean() <= 0.51

    def test_uniform_bad_range(self):
        with pytest.raises(ValueError):
            Prng(0).uniform(1, 1, 5)

    def test_different_seeds_differ(self):
        assert not np.array_equal(Prng(1).standard_normal(10), Prng(2).standard_normal(10))

    @pytest.mark.parametrize("seed", [-1, -(2**70)])
    def test_negative_seed_is_config_invalid(self, seed):
        with pytest.raises(ConfigInvalid, match=f"^seed {seed} is negative"):
            Prng(seed)
