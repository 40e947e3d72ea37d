"""Finite-difference Hessian products against the analytic oracle."""

import numpy as np
import pytest

from spanopt import (
    ANALYTIC,
    CENTRAL_FD,
    Dataset,
    BatchHessian,
    HvpMode,
    ObjectiveConfig,
    batch_gradient,
)
from spanopt.errors import DimensionMismatch, NonFiniteResult

QUAD123 = ObjectiveConfig("quadratic", quadratic_spectrum=np.array([1.0, 2.0, 3.0]))


def logistic_instance(n, d, seed, reg=0.05):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    return ObjectiveConfig("logistic", reg_a=reg), Dataset(features=x, labels=labels)


class TestHvp:
    def test_quadratic_fd_exact_up_to_rounding(self):
        # Linear gradient, perturbation around the origin: no cancellation,
        # so the central difference reproduces the product to roundoff.
        for mode in (CENTRAL_FD, ANALYTIC):
            result = BatchHessian.at(QUAD123, None, None, np.zeros(3), mode) @ np.ones(3)
            assert np.abs(result - [1.0, 2.0, 3.0]).max() <= 1e-10

    def test_quadratic_fd_is_the_analytic_product(self):
        # The central difference of a linear gradient is the product itself.
        cfg = ObjectiveConfig("quadratic", reg_a=0.3, quadratic_spectrum=np.array([1.0, 2.5, 7.0, 0.1]))
        rng = np.random.default_rng(3)
        hessian = BatchHessian.at(cfg, None, None, rng.standard_normal(4), CENTRAL_FD)
        scale = cfg.quadratic_spectrum + cfg.reg_a
        v = rng.standard_normal(4)
        np.testing.assert_array_equal(hessian @ v, scale * v)
        block = rng.standard_normal((4, 3))
        block[:, 1] = 0.0
        np.testing.assert_array_equal(hessian @ block, scale[:, None] * block)

    def test_fd_on_zero_rows_is_the_regularizer(self):
        # Zero rows carry no curvature, so only the regularizer's ``a v`` is left.
        labels = np.array([1.0, -1.0, 1.0, 1.0, -1.0])
        cfg, data = ObjectiveConfig("logistic", reg_a=0.05), Dataset(features=np.zeros((5, 4)), labels=labels)
        rng = np.random.default_rng(4)
        hessian = BatchHessian.at(cfg, data, None, rng.standard_normal(4), CENTRAL_FD)
        v = rng.standard_normal(4)
        np.testing.assert_array_equal(hessian @ v, cfg.reg_a * v)
        block = rng.standard_normal((4, 3))
        np.testing.assert_array_equal(hessian @ block, cfg.reg_a * block)

    def test_zero_vector_short_circuit(self):
        cfg, data = logistic_instance(10, 4, 0)
        result = BatchHessian.at(cfg, data, None, np.ones(4), CENTRAL_FD) @ np.zeros(4)
        np.testing.assert_array_equal(result, np.zeros(4))

    def test_fd_matches_analytic_logistic(self):
        cfg, data = logistic_instance(40, 10, 1)
        rng = np.random.default_rng(2)
        for _ in range(25):
            x = rng.standard_normal(10)
            v = rng.standard_normal(10)
            fd = BatchHessian.at(cfg, data, None, x, CENTRAL_FD) @ v
            exact = BatchHessian.at(cfg, data, None, x, ANALYTIC) @ v
            assert np.linalg.norm(fd - exact) <= 1e-6 * np.linalg.norm(exact)

    def test_step_independent_of_direction_scale(self):
        cfg, data = logistic_instance(30, 6, 5)
        rng = np.random.default_rng(6)
        x = rng.standard_normal(6)
        v = rng.standard_normal(6)
        small = BatchHessian.at(cfg, data, None, x, CENTRAL_FD) @ v
        large = BatchHessian.at(cfg, data, None, x, CENTRAL_FD) @ (1e6 * v)
        np.testing.assert_allclose(large, 1e6 * small, rtol=1e-9)

    def test_only_central_and_analytic_kinds(self):
        with pytest.raises(ValueError):
            HvpMode(kind="forward_difference")

    def test_dimension_mismatch(self):
        cfg, data = logistic_instance(10, 4, 0)
        with pytest.raises(DimensionMismatch):
            BatchHessian.at(cfg, data, None, np.zeros(4), CENTRAL_FD) @ np.zeros(5)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "v",
        [[np.inf, 0.0, 0.0, 0.0], [np.nan, 0.0, 0.0, 0.0], [[1.0, -np.inf]] + [[1.0, 0.0]] * 3],
        ids=["inf", "nan", "inf-column"],
    )
    def test_non_finite_direction_raises(self, v):
        # An infinite direction escaped as "invalid value encountered in multiply".
        cfg, data = logistic_instance(10, 4, 0)
        with pytest.raises(NonFiniteResult):
            BatchHessian.at(cfg, data, None, np.zeros(4), CENTRAL_FD) @ np.array(v)

    def test_symmetry_surrogate(self):
        cfg, data = logistic_instance(30, 8, 7)
        rng = np.random.default_rng(8)
        for _ in range(10):
            x = rng.standard_normal(8)
            u = rng.standard_normal(8)
            v = rng.standard_normal(8)
            scale = np.linalg.norm(u) * np.linalg.norm(v)
            fd = BatchHessian.at(cfg, data, None, x, CENTRAL_FD)
            fd_gap = u @ (fd @ v) - v @ (fd @ u)
            assert abs(fd_gap) <= 1e-5 * scale
            exact = BatchHessian.at(cfg, data, None, x, ANALYTIC)
            exact_gap = u @ (exact @ v) - v @ (exact @ u)
            assert abs(exact_gap) <= 1e-12 * scale

    def test_linearity_analytic(self):
        cfg, data = logistic_instance(30, 8, 9)
        rng = np.random.default_rng(10)
        x = rng.standard_normal(8)
        u = rng.standard_normal(8)
        v = rng.standard_normal(8)
        alpha, beta = 1.7, -0.4
        hessian = BatchHessian.at(cfg, data, None, x, ANALYTIC)
        combined = hessian @ (alpha * u + beta * v)
        parts = alpha * (hessian @ u) + beta * (hessian @ v)
        assert np.linalg.norm(combined - parts) <= 1e-12 * np.linalg.norm(parts)

    def test_fd_accuracy_budget_d50(self):
        # 100 random (x, v) on logistic problems with d <= 50.
        worst = 0.0
        for seed in range(4):
            cfg, data = logistic_instance(60, 50 - 10 * seed, 20 + seed)
            rng = np.random.default_rng(30 + seed)
            for _ in range(25):
                x = rng.standard_normal(data.dim)
                v = rng.standard_normal(data.dim)
                fd = BatchHessian.at(cfg, data, None, x, CENTRAL_FD) @ v
                exact = BatchHessian.at(cfg, data, None, x, ANALYTIC) @ v
                worst = max(worst, np.linalg.norm(fd - exact) / np.linalg.norm(exact))
        assert worst <= 1e-5


class TestExtendedHvp:
    """Extended products ``H_B(x) V`` for a (d, k) block: ``BatchHessian.at(...) @ V``."""

    def test_identity_block_reconstructs_hessian(self):
        result = BatchHessian.at(QUAD123, None, None, np.zeros(3), CENTRAL_FD) @ np.eye(3)
        np.testing.assert_allclose(result, np.diag([1.0, 2.0, 3.0]), atol=1e-10)

    def test_zero_column_stays_zero(self):
        cfg, data = logistic_instance(20, 5, 11)
        block = np.random.default_rng(12).standard_normal((5, 3))
        block[:, 1] = 0.0
        result = BatchHessian.at(cfg, data, None, np.ones(5), CENTRAL_FD) @ block
        np.testing.assert_array_equal(result[:, 1], np.zeros(5))

    def test_matches_dense_product(self):
        cfg, data = logistic_instance(35, 15, 13)
        rng = np.random.default_rng(14)
        x = rng.standard_normal(15)
        block = rng.standard_normal((15, 4))
        h = BatchHessian.at(cfg, data, None, x, ANALYTIC).dense()
        for mode in (CENTRAL_FD, ANALYTIC):
            result = BatchHessian.at(cfg, data, None, x, mode) @ block
            assert np.linalg.norm(result - h @ block) <= 1e-6 * np.linalg.norm(h @ block)


class TestFiniteDifferenceBlock:
    """The block path differences all columns at once; each keeps its own scale."""

    def setup_block(self):
        cfg, data = logistic_instance(50, 12, 15)
        rng = np.random.default_rng(16)
        batch = np.sort(rng.choice(50, size=20, replace=False))
        x = rng.standard_normal(12)
        block = rng.standard_normal((12, 5))
        block /= np.linalg.norm(block, axis=0)
        block *= [1e-6, 1e-2, 0.0, 1e2, 1e6]
        return cfg, data, batch, x, block

    def test_columns_match_single_products(self):
        cfg, data, batch, x, block = self.setup_block()
        result = BatchHessian.at(cfg, data, batch, x, CENTRAL_FD) @ block
        for j in range(block.shape[1]):
            single = BatchHessian.at(cfg, data, batch, x, CENTRAL_FD) @ block[:, j]
            assert np.linalg.norm(result[:, j] - single) <= 1e-10 * np.linalg.norm(single)

    def test_matches_analytic(self):
        cfg, data, batch, x, block = self.setup_block()
        result = BatchHessian.at(cfg, data, batch, x, CENTRAL_FD) @ block
        exact = BatchHessian.at(cfg, data, batch, x, ANALYTIC) @ block
        for j in range(block.shape[1]):
            assert np.linalg.norm(result[:, j] - exact[:, j]) <= 1e-6 * np.linalg.norm(exact[:, j])

    def test_zero_column_exact(self):
        cfg, data, batch, x, block = self.setup_block()
        result = BatchHessian.at(cfg, data, batch, x, CENTRAL_FD) @ block
        np.testing.assert_array_equal(result[:, 2], np.zeros(12))

    @pytest.mark.parametrize("kind", ["logistic", "huber_svm"])
    def test_matches_point_evaluated_central_difference(self, kind):
        # The block path forms the perturbed margins by linearity from the
        # base margins; this reference perturbs x itself, evaluates the batch
        # gradient at x + s and x - s, and rescales column by column.
        cfg, data, batch, x, block = self.setup_block()
        cfg = ObjectiveConfig(kind, reg_a=cfg.reg_a)
        step = np.sqrt(np.finfo(float).eps) * (1.0 + np.linalg.norm(x))
        expected = np.zeros_like(block)
        for j in range(block.shape[1]):
            norm = np.linalg.norm(block[:, j])
            if norm > 0.0:
                s = block[:, j] * (step / norm)
                plus = batch_gradient(cfg, data, batch, x + s)
                minus = batch_gradient(cfg, data, batch, x - s)
                expected[:, j] = (plus - minus) * (norm / (2.0 * step))
        result = BatchHessian.at(cfg, data, batch, x, CENTRAL_FD) @ block
        np.testing.assert_array_equal(result[:, 2], np.zeros(12))
        for j in (0, 1, 3, 4):
            assert np.linalg.norm(result[:, j] - expected[:, j]) <= 1e-7 * np.linalg.norm(expected[:, j])

    def test_huber_matches_analytic_away_from_kinks(self):
        cfg, data, batch, x, block = self.setup_block()
        cfg = ObjectiveConfig("huber_svm", reg_a=cfg.reg_a)
        result = BatchHessian.at(cfg, data, batch, x, CENTRAL_FD) @ block
        exact = BatchHessian.at(cfg, data, batch, x, ANALYTIC) @ block
        for j in (0, 1, 3, 4):
            assert np.linalg.norm(result[:, j] - exact[:, j]) <= 1e-6 * np.linalg.norm(exact[:, j])
