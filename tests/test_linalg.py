"""Kernel-level contracts: sampling, QR, small eigensolver, small-solve tripwires, norm probe."""

import warnings

import numpy as np
import pytest

from spanopt import ANALYTIC, ObjectiveConfig, SpanConfig, SpanState, linalg, span_step
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

    @pytest.mark.parametrize(
        "y, message", [(np.ones(4), "2-D"), (np.ones((2, 3)), "at least as many rows")], ids=["vector", "wide"]
    )
    def test_shape_refused(self, y, message):
        with pytest.raises(ValueError, match=message):
            linalg.qr_orthonormal(y)

    def test_rank_deficient_raises(self):
        y = np.ones((6, 2))  # duplicate columns
        with pytest.raises(RankDeficient):
            linalg.qr_orthonormal(y)

    def test_zero_matrix_raises(self):
        with pytest.raises(RankDeficient):
            linalg.qr_orthonormal(np.zeros((4, 2)))

    @staticmethod
    def graded_block(cond, d=5000, l=16, seed=0):
        """``U diag(s) V^T`` with singular values from 1 down to ``1/cond``, randomly oriented."""
        rng = np.random.default_rng(seed)
        u = np.linalg.qr(rng.standard_normal((d, l)))[0]
        v = np.linalg.qr(rng.standard_normal((l, l)))[0]
        return (u * np.geomspace(1.0, 1.0 / cond, l)) @ v.T

    @staticmethod
    def pivot_ratio(r):
        pivots = np.abs(np.diagonal(r))
        return pivots.min() / pivots.max()

    @pytest.mark.parametrize("cond", [1.0, 1e4, 1e8, 1e12])
    def test_matches_householder_across_conditioning(self, cond):
        y = self.graded_block(cond)
        u = linalg.qr_orthonormal(y)
        r = u.T @ y
        assert np.abs(u.T @ u - np.eye(16)).max() <= 1e-14
        assert np.linalg.norm(y - u @ r) <= 1e-14 * np.linalg.norm(y)
        assert np.all(np.diagonal(r) >= 0.0)
        householder = self.pivot_ratio(np.linalg.qr(y)[1])
        assert abs(self.pivot_ratio(r) - householder) <= 0.1 * householder

    def test_tripwire_agrees_with_householder_at_cond_1e14(self):
        # At this conditioning the graded block's smallest Householder pivot
        # is already below 1e-12 of the largest, so both factorizations refuse it.
        y = self.graded_block(1e14)
        assert self.pivot_ratio(np.linalg.qr(y)[1]) < 1e-12
        with pytest.raises(RankDeficient):
            linalg.qr_orthonormal(y)

    @staticmethod
    def assert_thin_qr_factor(y, u):
        """``u`` is the unique thin Q of ``y``: orthonormal, residual at roundoff, ``u^T y`` upper triangular, diagonal >= 0."""
        y = y / np.abs(y).max()  # so the norms below neither overflow nor underflow
        TestQrPaths.assert_orthonormal_with_residual(y, u, 1e-14)
        r = u.T @ y
        assert np.abs(np.tril(r, -1)).max() <= 1e-14 * np.abs(r).max()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_scales_give_the_same_basis(self, scale):
        # The Gram matrix of the raw block would overflow (1e400) or
        # underflow (1e-400); the basis is still the thin-QR factor of the block.
        y = scale * self.graded_block(1e4, d=300)
        self.assert_thin_qr_factor(y, linalg.qr_orthonormal(y))

    @pytest.mark.parametrize("column", ["duplicate", "zero"])
    def test_dependent_column_raises(self, column):
        y = np.random.default_rng(5).standard_normal((200, 8))
        y[:, 5] = y[:, 2] if column == "duplicate" else 0.0
        with pytest.raises(RankDeficient):
            linalg.qr_orthonormal(y)

    def test_non_finite_input_raises(self):
        y = np.ones((4, 2))
        for bad in (np.nan, np.inf, -np.inf):
            y[1, 1] = bad
            with pytest.raises(NonFiniteResult):
                linalg.qr_orthonormal(y)


@pytest.fixture
def cholesky_calls(monkeypatch):
    """Shapes of the Gram matrices ``np.linalg.cholesky`` factors while the test runs."""
    calls = []
    real = np.linalg.cholesky

    def counting(a):
        calls.append(a.shape)
        return real(a)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    return calls


@pytest.fixture
def householder_calls(monkeypatch):
    """Shapes of the blocks ``np.linalg.qr`` factors while the test runs."""
    calls = []
    real = np.linalg.qr

    def counting(a, *args, **kwargs):
        calls.append(a.shape)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting)
    return calls


class TestQrPaths:
    """CholeskyQR2 on blocks it is proven stable for, Householder QR on the rest."""

    @staticmethod
    def unit_triangular_block(d=5000, l=16, seed=0):
        """``Q R`` with R unit upper triangular, -1 above the diagonal: every pivot one, cond(R) ~2e5."""
        q = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, l)))[0]
        return q @ (np.eye(l) - np.triu(np.ones((l, l)), 1))

    @staticmethod
    def assert_orthonormal_with_residual(y, u, residual_tol):
        r = u.T @ y
        assert np.abs(u.T @ u - np.eye(y.shape[1])).max() <= 1e-14
        assert np.linalg.norm(y - u @ r) <= residual_tol * np.linalg.norm(y)
        assert np.all(np.diagonal(r) >= 0.0)

    def test_well_conditioned_block_takes_two_passes(self, cholesky_calls):
        y = TestQrOrthonormal.graded_block(1e3)
        u = linalg.qr_orthonormal(y)
        assert len(cholesky_calls) == 2
        self.assert_orthonormal_with_residual(y, u, 1e-14)

    def test_small_block_takes_householder_alone(self, cholesky_calls, householder_calls):
        # desk-logistic's carried block: 1600 entries, under the 4096-entry cutoff.
        y = TestQrOrthonormal.graded_block(1e3, d=100)
        householder_calls.clear()
        u = linalg.qr_orthonormal(y)
        assert cholesky_calls == [] and householder_calls == [y.shape]
        TestQrOrthonormal.assert_thin_qr_factor(y, u)

    def test_block_above_the_cutoff_takes_two_passes(self, cholesky_calls, householder_calls):
        # libsvm-fd's carried block: 4800 entries, just over the cutoff.
        y = TestQrOrthonormal.graded_block(1e3, d=300)
        householder_calls.clear()
        u = linalg.qr_orthonormal(y)
        assert len(cholesky_calls) == 2 and householder_calls == []
        self.assert_orthonormal_with_residual(y, u, 1e-14)

    def test_ill_conditioned_block_falls_back(self, cholesky_calls, householder_calls):
        y = TestQrOrthonormal.graded_block(1e8)
        householder_calls.clear()
        u = linalg.qr_orthonormal(y)
        # The refused trial factorization, then one Householder QR.
        assert cholesky_calls == [(16, 16)] and householder_calls == [y.shape]
        self.assert_orthonormal_with_residual(y, u, 1e-14)

    def test_block_past_the_limit_with_unit_pivots_falls_back(self, cholesky_calls, householder_calls):
        y = self.unit_triangular_block()
        cond = np.linalg.cond(y)
        d, l = y.shape
        assert cond > np.sqrt(2.0) / 8.0 / np.sqrt(np.finfo(float).eps * (d * l + l * (l + 1)))
        householder_calls.clear()
        u = linalg.qr_orthonormal(y)
        assert cholesky_calls == [(16, 16)] and householder_calls == [y.shape]
        self.assert_orthonormal_with_residual(y, u, 1e-14)

    @pytest.mark.parametrize("a", [4.0, 5.0])
    def test_kahan_like_block_keeps_the_residual_at_roundoff(self, a):
        # Q (I + a N), N strictly upper triangular Gaussian: pivots one, cond(R)
        # 4e9 and 1e11.  Applying an explicit R^-1 would leave a residual near
        # cond(R) eps (1e-13 and 3e-12).
        rng = np.random.default_rng(0)
        q = np.linalg.qr(rng.standard_normal((5000, 16)))[0]
        y = q @ (np.eye(16) + a * np.triu(rng.standard_normal((16, 16)), 1))
        assert np.linalg.cond(y) >= 1e9
        self.assert_orthonormal_with_residual(y, linalg.qr_orthonormal(y), 1e-14)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_scales_fall_back_without_warnings(self, scale, cholesky_calls, householder_calls):
        # The trial Gram overflows to Inf or underflows to zero: no trial
        # factorization, and Householder QR, which scales as it goes, takes over.
        y = scale * TestQrOrthonormal.graded_block(1e4, d=300)
        householder_calls.clear()
        u = linalg.qr_orthonormal(y)
        assert cholesky_calls == [] and householder_calls == [y.shape]
        TestQrOrthonormal.assert_thin_qr_factor(y, u)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises_without_warnings(self, bad):
        y = np.random.default_rng(5).standard_normal((200, 8))
        y[3, 4] = bad
        with pytest.raises(NonFiniteResult):
            linalg.qr_orthonormal(y)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("column", ["duplicate", "zero", "all zero"])
    def test_dependent_columns_raise_without_warnings(self, column):
        y = np.random.default_rng(5).standard_normal((200, 8))
        if column == "all zero":
            y[:] = 0.0
        else:
            y[:, 5] = y[:, 2] if column == "duplicate" else 0.0
        with pytest.raises(RankDeficient):
            linalg.qr_orthonormal(y)

    def test_warm_span_step_takes_one_pass(self, cholesky_calls):
        # The wide-quadratic benchmark's shape: d=5000, ten outliers over a flat tail, l=16.
        # Its carried images are orthonormal to roundoff after one CholeskyQR pass.
        rng = np.random.default_rng(0)
        spectrum = np.concatenate([np.geomspace(1000.0, 50.0, 10), np.sort(1.0 + rng.random(4990))[::-1]])
        objective = ObjectiveConfig("quadratic", quadratic_spectrum=spectrum)
        cfg = SpanConfig(t_max=3, m=10, l=16, q=1, b=1, eta=0.6, seed=7, hvp_mode=ANALYTIC)
        state, _ = span_step(SpanState(x=np.ones(5000)), objective, None, cfg)
        for _ in range(2):
            cholesky_calls.clear()
            state, _ = span_step(state, objective, None, cfg)
            assert cholesky_calls == [(16, 16)]

    @pytest.mark.parametrize("cond", [1.0, 10.0])
    def test_certified_first_pass_is_kept(self, cond, cholesky_calls):
        y = TestQrOrthonormal.graded_block(cond)
        u = linalg.qr_orthonormal(y)
        assert cholesky_calls == [(16, 16)]
        assert u.flags.f_contiguous  # column-major, the layout the block products read
        self.assert_orthonormal_with_residual(y, u, 1e-14)

    def test_uncertified_first_pass_takes_the_second_with_the_same_bits(self, cholesky_calls):
        # Graded 1e3 at d=300: the first pass loses ~1e-11 of orthogonality.
        y = TestQrOrthonormal.graded_block(1e3, d=300)
        u = linalg.qr_orthonormal(y)
        assert len(cholesky_calls) == 2
        # CholeskyQR2 written out row-major: the second pass's Q, bit for bit.
        q1 = y @ np.linalg.inv(np.linalg.cholesky(y.T @ y).T)
        assert np.abs(q1.T @ q1 - np.eye(16)).max() > 1e-14
        np.testing.assert_array_equal(u, q1 @ np.linalg.inv(np.linalg.cholesky(q1.T @ q1).T))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("column", ["duplicate", "nearly duplicate", "zero"])
    def test_rank_deficient_carried_shape_raises(self, column):
        # 5000 x 16, where a well-conditioned block takes one CholeskyQR pass.
        y = TestQrOrthonormal.graded_block(1.0)
        if column == "zero":
            y[:, 5] = 0.0
        else:
            y[:, 5] = y[:, 2] + (1e-14 * y[:, 7] if column == "nearly duplicate" else 0.0)
        with pytest.raises(RankDeficient):
            linalg.qr_orthonormal(y)


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


    @pytest.mark.parametrize("a", [np.ones(3), np.ones((2, 3))], ids=["vector", "rectangular"])
    def test_non_square_refused(self, a):
        with pytest.raises(ValueError, match="square"):
            linalg.sym_eig_small(a)

    def test_overflowing_symmetrization_raises(self):
        # Finite entries whose sum a + a^T overflows: eigh once ran on an
        # infinite matrix.  The overflow is handled inside, without a warning.
        a = np.array([[1.0, 1.5e308], [1.5e308, 1.0]])
        with pytest.raises(NonFiniteResult):
            linalg.sym_eig_small(a)


class TestSolveSmall:
    """Tripwires of the small solve on the captured block, its eigen-inverse in ``span``."""

    def test_singular_raises(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularSystem):
            assemble_subspace(np.eye(2), a)

    def test_near_singular_condition_tripwire(self):
        a = np.diag([1.0, 1e-13])
        with pytest.raises(SingularSystem):
            assemble_subspace(np.eye(2), a)


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

    def test_overflowing_estimate_raises_without_a_warning(self):
        # The overflow in ||A v|| is handled inside, so numpy's warning stays there.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteResult):
                linalg.spectral_norm_sym(lambda v: 1e308 * v, 3, seed=1)

    def test_norm_whose_square_overflows(self):
        # ||1e200 v||^2 overflows although ||1e200 v|| = 1e200 does not.
        with np.errstate(over="ignore"):
            norm = linalg.spectral_norm_sym(lambda v: 1e200 * v, 5)
        assert norm == pytest.approx(1e200, rel=1e-12)

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
