"""Kernel-level contracts: sampling, QR, small eigensolver, small-solve tripwires, norm probe."""

import numpy as np
import pytest

from spanopt import linalg
from spanopt.errors import NoConvergence, NonFiniteResult, RankDeficient, SingularSystem
from spanopt.span import assemble_subspace


class TestGaussianMatrix:
    def test_same_seed_identical(self):
        a = linalg.gaussian_matrix(3, 2, 42)
        b = linalg.gaussian_matrix(3, 2, 42)
        assert np.array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = linalg.gaussian_matrix(2, 2, 1)
        b = linalg.gaussian_matrix(2, 2, 2)
        assert not np.array_equal(a, b)

    def test_standard_normal_moments(self):
        # Law-of-large-numbers check on first and second moments.
        sample = linalg.gaussian_matrix(1000, 1, 7)
        assert abs(sample.mean()) < 0.1
        assert abs(sample.var() - 1.0) < 0.15

    def test_negative_seed_accepted(self):
        a = linalg.gaussian_matrix(2, 2, -5)
        b = linalg.gaussian_matrix(2, 2, -5)
        assert np.array_equal(a, b)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            linalg.gaussian_matrix(0, 3, 1)


class TestDeriveSeed:
    def test_deterministic_and_path_sensitive(self):
        assert linalg.derive_seed(5, 1, 2) == linalg.derive_seed(5, 1, 2)
        assert linalg.derive_seed(5, 1, 2) != linalg.derive_seed(5, 2, 1)
        assert linalg.derive_seed(5) != linalg.derive_seed(6)


class TestQrOrthonormal:
    def test_already_orthonormal_columns(self):
        y = np.eye(3)[:, :2]
        u = linalg.qr_orthonormal(y)
        np.testing.assert_allclose(u, y, atol=1e-14)

    def test_axis_aligned_columns(self):
        y = np.array([[2.0, 0.0], [0.0, 3.0], [0.0, 0.0]])
        u = linalg.qr_orthonormal(y)
        # Sign is unspecified; compare projectors.
        expected = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_allclose(u @ u.T, expected @ expected.T, atol=1e-14)

    def test_random_input_orthonormal_and_span_preserving(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal((10, 4))
        u = linalg.qr_orthonormal(y)
        assert np.abs(u.T @ u - np.eye(4)).max() <= 1e-10
        residual = np.linalg.norm(y - u @ (u.T @ y))
        assert residual <= 1e-10 * np.linalg.norm(y)

    def test_orthonormality_across_shapes(self):
        rng = np.random.default_rng(3)
        for d, l in ((5, 5), (8, 3), (40, 12), (100, 1)):
            y = rng.standard_normal((d, l))
            u = linalg.qr_orthonormal(y)
            assert np.abs(u.T @ u - np.eye(l)).max() <= 1e-10
            assert np.linalg.norm(y - u @ (u.T @ y)) <= 1e-10 * np.linalg.norm(y)
            assert np.all(np.diagonal(u.T @ y) >= 0.0)  # R = U^T Y has a non-negative diagonal

    def test_rank_deficient_raises(self):
        y = np.ones((6, 2))  # duplicate columns
        with pytest.raises(RankDeficient):
            linalg.qr_orthonormal(y)

    def test_zero_matrix_raises(self):
        with pytest.raises(RankDeficient):
            linalg.qr_orthonormal(np.zeros((4, 2)))


class TestSymEigSmall:
    def test_diagonal_input(self):
        pairs = linalg.sym_eig_small(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(pairs.values, [3.0, 2.0, 1.0], atol=1e-12)
        # Eigenvectors are signed permutation columns.
        np.testing.assert_allclose(np.abs(pairs.vectors), np.eye(3)[:, [0, 2, 1]], atol=1e-12)

    def test_two_by_two_closed_form(self):
        pairs = linalg.sym_eig_small(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(pairs.values, [3.0, 1.0], atol=1e-12)
        inv_sqrt2 = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(np.abs(pairs.vectors), np.full((2, 2), inv_sqrt2), atol=1e-12)

    def test_rank_one(self):
        v = np.array([1.0, 2.0, 2.0])
        pairs = linalg.sym_eig_small(np.outer(v, v))
        np.testing.assert_allclose(pairs.values, [9.0, 0.0, 0.0], atol=1e-10)

    def test_reconstruction_random_matrices(self):
        rng = np.random.default_rng(11)
        for k in (2, 5, 17, 64):
            a = rng.standard_normal((k, k))
            a = 0.5 * (a + a.T)
            pairs = linalg.sym_eig_small(a)
            rebuilt = pairs.vectors @ np.diag(pairs.values) @ pairs.vectors.T
            norm_a = np.linalg.norm(a, ord=2)
            assert np.linalg.norm(rebuilt - a, ord=2) <= 1e-8 * norm_a
            assert np.abs(pairs.vectors.T @ pairs.vectors - np.eye(k)).max() <= 1e-10
            assert np.all(np.diff(pairs.values) <= 1e-12)

    def test_symmetrized_internally(self):
        a = np.array([[1.0, 2.0], [2.0 + 1e-12, 3.0]])
        pairs = linalg.sym_eig_small(a)
        sym = 0.5 * (a + a.T)
        rebuilt = pairs.vectors @ np.diag(pairs.values) @ pairs.vectors.T
        np.testing.assert_allclose(rebuilt, sym, atol=1e-10)


class TestSolveSmall:
    """Tripwires of the small solve on the captured block, its eigen-inverse in ``span``."""

    def test_singular_raises(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularSystem):
            assemble_subspace(np.eye(2), a, 0)

    def test_near_singular_condition_tripwire(self):
        a = np.diag([1.0, 1e-13])
        with pytest.raises(SingularSystem):
            assemble_subspace(np.eye(2), a, 0)


class TestSpectralNormSym:
    def test_diagonal_operator(self):
        scale = np.array([1.0, -5.0, 2.0])
        norm = linalg.spectral_norm_sym(lambda v: scale * v, 3, seed=1)
        assert abs(norm - 5.0) <= 1e-5 * 5.0

    def test_zero_operator(self):
        assert linalg.spectral_norm_sym(lambda v: 0.0 * v, 3, seed=1) == 0.0

    @pytest.mark.parametrize("scale", [1e308, np.inf], ids=["overflowing", "infinite"])
    def test_non_finite_estimate_raises(self, scale):
        # ||1e308 v|| overflows to inf: normalizing by it once reported a zero
        # norm, and an infinite operator spun to the iteration cap.
        with pytest.raises(NonFiniteResult):
            linalg.spectral_norm_sym(lambda v: scale * v, 3, seed=1)

    def test_matches_dense_eigensolver_on_difference_operator(self):
        # d=20 quadratic with a clear gap; compare the matrix-free probe
        # against the dense eigensolver on the explicit difference.
        rng = np.random.default_rng(2)
        spectrum = np.linspace(20.0, 1.0, 20)
        h = np.diag(spectrum)
        basis = linalg.qr_orthonormal(rng.standard_normal((20, 6)))
        lam = 0.5 * spectrum[5]
        approx = basis @ (basis.T @ h @ basis) @ basis.T + lam * (np.eye(20) - basis @ basis.T)
        diff = approx - h
        dense = np.abs(linalg.sym_eig_small(diff).values).max()
        probed = linalg.spectral_norm_sym(lambda v: diff @ v, 20, seed=4)
        assert abs(probed - dense) <= 1e-5 * dense

    def test_iteration_cap_raises(self):
        # Slow gap (0.99) with an unreachable tolerance: the estimate is still
        # moving when the 20-step budget runs out.
        scale = np.array([1.0, 0.99])
        with pytest.raises(NoConvergence):
            linalg.spectral_norm_sym(lambda v: scale * v, 2, tol=1e-16, seed=0, max_iters=20)
