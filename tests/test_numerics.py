import numpy as np
import pytest

from brakedist.numerics import (
    NotPositiveDefinite,
    check_symmetric,
    generalized_inverse,
    is_psd,
    spd_solve,
)


def gauss_jordan_inverse(a):
    """Elimination-based explicit inverse, used only as a test oracle."""
    n = a.shape[0]
    aug = np.hstack([a.astype(float).copy(), np.eye(n)])
    for col in range(n):
        pivot = col + np.argmax(np.abs(aug[col:, col]))
        assert abs(aug[pivot, col]) > 1e-12, "oracle given a singular matrix"
        aug[[col, pivot]] = aug[[pivot, col]]
        aug[col] /= aug[col, col]
        for row in range(n):
            if row != col:
                aug[row] -= aug[row, col] * aug[col]
    return aug[:, n:]


def random_spd(rng, n):
    m = rng.standard_normal((n, n))
    return m.T @ m + np.eye(n)


class TestSpdSolve:
    def test_identity_returns_rhs(self):
        b = np.arange(6.0).reshape(3, 2)
        assert np.array_equal(spd_solve(np.eye(3), b), b)

    def test_diagonal_case(self):
        x = spd_solve(np.diag([2.0, 4.0]), np.array([2.0, 4.0]))
        assert np.allclose(x, [1.0, 1.0], atol=1e-14)

    def test_matches_explicit_inverse_oracle(self):
        rng = np.random.default_rng(7)
        a = random_spd(rng, 6)
        b = rng.standard_normal((6, 2))
        expected = gauss_jordan_inverse(a) @ b
        assert np.allclose(spd_solve(a, b), expected, atol=1e-9)

    def test_residual_bound(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = rng.integers(1, 12)
            a = random_spd(rng, n)
            b = rng.standard_normal(n)
            x = spd_solve(a, b)
            assert np.linalg.norm(a @ x - b) <= 1e-10 * max(np.linalg.norm(b), 1e-30)

    def test_solve_against_matrix_gives_identity(self):
        rng = np.random.default_rng(3)
        a = random_spd(rng, 8)
        assert np.allclose(spd_solve(a, a), np.eye(8), atol=1e-9)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            spd_solve(np.diag([1.0, -1.0]), np.ones(2))

    def test_rejects_near_singular(self):
        a = np.diag([1.0, 1e-16])
        with pytest.raises(NotPositiveDefinite):
            spd_solve(a, np.ones(2))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            spd_solve(np.array([[1.0, 0.5], [0.0, 1.0]]), np.ones(2))

    def test_rejects_rhs_of_the_wrong_row_count(self):
        with pytest.raises(ValueError, match=r"^rhs has 2 rows, matrix is 3x3$"):
            spd_solve(np.eye(3), np.ones(2))


class TestGeneralizedInverse:
    def test_identity(self):
        assert np.allclose(generalized_inverse(np.eye(4)), np.eye(4), atol=1e-12)

    def test_zero_matrix(self):
        # No singular value exceeds a cutoff of 0, so the general path returns zeros.
        assert np.array_equal(generalized_inverse(np.zeros((3, 3))), np.zeros((3, 3)))
        assert np.array_equal(generalized_inverse(np.zeros((2, 3))), np.zeros((3, 2)))

    def test_rejects_a_vector(self):
        with pytest.raises(ValueError, match="^expected a matrix, got ndim=1$"):
            generalized_inverse(np.ones(3))

    def test_empty_matrix_gives_the_transposed_empty_shape(self):
        assert generalized_inverse(np.zeros((0, 3))).shape == (3, 0)

    def test_rank_one(self):
        u = np.array([[1.0], [2.0]])
        a = u @ u.T
        g = generalized_inverse(a)
        assert np.allclose(g, a / 25.0, atol=1e-12)
        assert np.allclose(a @ g @ a, a, atol=1e-10)
        assert np.allclose(g @ a @ g, g, atol=1e-10)

    def test_moore_penrose_conditions(self):
        rng = np.random.default_rng(19)
        for shape in [(5, 3), (3, 5), (4, 4), (6, 2)]:
            a = rng.standard_normal(shape)
            g = generalized_inverse(a)
            assert np.allclose(a @ g @ a, a, atol=1e-8)
            assert np.allclose(g @ a @ g, g, atol=1e-8)
            assert np.allclose((a @ g).T, a @ g, atol=1e-8)
            assert np.allclose((g @ a).T, g @ a, atol=1e-8)

    def test_full_rank_square_equals_inverse(self):
        rng = np.random.default_rng(23)
        a = random_spd(rng, 5)
        assert np.allclose(generalized_inverse(a), gauss_jordan_inverse(a), atol=1e-8)

    def test_rank_deficient_design_normal_matrix(self):
        # A stimulus block with no observations leaves zero rows/columns.
        rng = np.random.default_rng(29)
        x = np.zeros((12, 6))
        x[:, :3] = rng.standard_normal((12, 3))
        a = x.T @ x
        g = generalized_inverse(a)
        assert np.allclose(a @ g @ a, a, atol=1e-8)
        assert np.allclose(g[3:, :], 0.0, atol=1e-12)


class TestIsPsd:
    def test_identity(self):
        assert is_psd(np.eye(2), 1e-10)

    def test_indefinite(self):
        assert not is_psd(np.diag([1.0, -1.0]), 1e-10)

    def test_rank_one_gram(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            x = rng.standard_normal(6)
            a = np.outer(x, x)
            assert is_psd(a, 1e-10)
            assert np.min(np.linalg.eigvalsh(a)) >= -1e-10 * max(1.0, np.abs(x @ x))

    def test_tolerance_scales_with_norm(self):
        a = np.diag([1e6, -0.5])
        assert is_psd(a, 1e-6)
        assert not is_psd(a, 1e-8)

    def test_symmetry_is_checked_within_1e_12_whatever_the_tolerance(self):
        # The symmetry check once took the eigenvalue tolerance when it was
        # the larger, so only a caller's own earlier check held it to 1e-12.
        a = np.eye(2)
        a[0, 1] = 1e-9
        with pytest.raises(ValueError, match="^matrix is not symmetric within 1e-12$"):
            is_psd(a, 1e-8)


class TestCheckSymmetric:
    def test_rejects_rectangular(self):
        with pytest.raises(ValueError):
            check_symmetric(np.ones((2, 3)))

    def test_rejects_empty_matrix(self):
        with pytest.raises(ValueError, match="^matrix dimension must be >= 1$"):
            check_symmetric(np.zeros((0, 0)))

    def test_accepts_tiny_asymmetry(self):
        a = np.eye(2)
        a[0, 1] = 5e-13
        check_symmetric(a)

    def test_rejects_large_asymmetry(self):
        a = np.eye(2)
        a[0, 1] = 1e-6
        with pytest.raises(ValueError):
            check_symmetric(a)
