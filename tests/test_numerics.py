import numpy as np
import pytest

from sidalign.errors import DimensionMismatch, NotDecomposable, NotSymmetric, ZeroVector
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
    def test_identity(self):
        m, jitter = cholesky_upper(np.eye(3))
        np.testing.assert_allclose(m, np.eye(3))
        assert jitter == 0.0

    def test_known_2x2(self):
        m, _ = cholesky_upper([[4, 2], [2, 3]])
        np.testing.assert_allclose(m, [[2, 1], [0, np.sqrt(2)]], atol=1e-12)

    def test_reconstruction(self):
        a = np.array([[4.0, 2.0], [2.0, 3.0]])
        m, _ = cholesky_upper(a)
        np.testing.assert_allclose(m.T @ m, a, rtol=1e-12)

    def test_indefinite_raises(self):
        # eigenvalues 3 and -1 by the 2x2 closed form: 1 +- 2
        with pytest.raises(NotDecomposable):
            cholesky_upper([[1, 2], [2, 1]])

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            cholesky_upper([[1, 2], [0, 1]])

    def test_random_spd_relative_error(self):
        rng = Prng(7)
        worst = 0.0
        for _ in range(1000):
            b = rng.standard_normal(8, 8)
            a = b.T @ b + np.eye(8)
            m, jitter = cholesky_upper(a)
            assert jitter == 0.0
            rel = np.linalg.norm(m.T @ m - a) / np.linalg.norm(a)
            worst = max(worst, rel)
        assert worst <= 1e-10

    def test_upper_triangular(self):
        rng = Prng(8)
        b = rng.standard_normal(5, 5)
        m, _ = cholesky_upper(b.T @ b + np.eye(5))
        np.testing.assert_array_equal(m, np.triu(m))


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
