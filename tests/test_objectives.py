"""Objective contracts: losses, gradients, second-order oracles, batch sampling."""

import math

import numpy as np
import pytest

from spanopt import (
    Dataset,
    ObjectiveConfig,
    batch_gradient,
    batch_loss,
    dense_hessian,
    exact_hvp,
    loss_and_gradient,
    sample_batch,
)
from spanopt.errors import BatchTooLarge, DimensionMismatch, DimensionTooLarge


def toy_logistic(n=20, d=5, seed=0, reg=0.05):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    return ObjectiveConfig("logistic", reg_a=reg), Dataset(features=x, labels=labels)


def central_difference_gradient(f, x, h=1e-6):
    grad = np.empty_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        grad[i] = (f(x + step) - f(x - step)) / (2.0 * h)
    return grad


QUAD123 = ObjectiveConfig("quadratic", quadratic_spectrum=np.array([1.0, 2.0, 3.0]))


class TestDatasetInvariants:
    def test_label_values_enforced(self):
        with pytest.raises(ValueError):
            Dataset(features=np.ones((2, 2)), labels=np.array([1.0, 0.0]))

    def test_finite_features_enforced(self):
        with pytest.raises(ValueError):
            Dataset(features=np.array([[np.inf, 0.0]]), labels=np.array([1.0]))

    def test_normalized_flag_checked(self):
        with pytest.raises(ValueError):
            Dataset(features=np.array([[3.0, 4.0]]), labels=np.array([1.0]), normalized=True)


class TestBatchLoss:
    def test_logistic_at_zero_is_log_two(self):
        cfg, data = toy_logistic(reg=0.0)
        assert batch_loss(cfg, data, None, np.zeros(5)) == pytest.approx(math.log(2.0), abs=1e-12)
        some_batch = np.array([0, 3, 7])
        assert batch_loss(cfg, data, some_batch, np.zeros(5)) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_huber_branches(self):
        cfg = ObjectiveConfig("huber_svm")
        data = Dataset(features=np.array([[1.0]]), labels=np.array([1.0]))
        for margin, expected in ((2.0, 0.0), (1.0, 0.125), (0.0, 1.0)):
            assert batch_loss(cfg, data, None, np.array([margin])) == pytest.approx(expected, abs=1e-15)

    def test_huber_boundary_continuity(self):
        cfg = ObjectiveConfig("huber_svm")
        data = Dataset(features=np.array([[1.0]]), labels=np.array([1.0]))
        for boundary in (0.5, 1.5):
            below = batch_loss(cfg, data, None, np.array([boundary - 1e-9]))
            at = batch_loss(cfg, data, None, np.array([boundary]))
            above = batch_loss(cfg, data, None, np.array([boundary + 1e-9]))
            assert abs(below - at) < 1e-8 and abs(above - at) < 1e-8

    def test_quadratic_value(self):
        assert batch_loss(QUAD123, None, None, np.ones(3)) == pytest.approx(3.0, abs=1e-15)

    def test_logistic_stable_at_large_margins(self):
        cfg, data = toy_logistic(reg=0.0)
        loss = batch_loss(cfg, data, None, 1e3 * np.ones(5))
        assert np.isfinite(loss)

    def test_dimension_mismatch(self):
        cfg, data = toy_logistic()
        with pytest.raises(DimensionMismatch):
            batch_loss(cfg, data, None, np.zeros(4))

    def test_batch_additivity(self):
        cfg, data = toy_logistic(n=16, reg=0.3)
        x = np.full(5, 0.4)
        b1, b2 = np.arange(8), np.arange(8, 16)
        combined = batch_loss(cfg, data, np.arange(16), x)
        reg = 0.5 * cfg.reg_a * float(x @ x)
        halves = 0.5 * ((batch_loss(cfg, data, b1, x) - reg) + (batch_loss(cfg, data, b2, x) - reg)) + reg
        assert combined == pytest.approx(halves, abs=1e-12)


class TestBatchGradient:
    def test_quadratic_gradient(self):
        np.testing.assert_allclose(batch_gradient(QUAD123, None, None, np.ones(3)), [1.0, 2.0, 3.0])

    def test_logistic_at_zero(self):
        cfg, data = toy_logistic(reg=0.0)
        expected = -0.5 * data.features.T @ data.labels / data.n_samples
        np.testing.assert_allclose(batch_gradient(cfg, data, None, np.zeros(5)), expected, atol=1e-14)

    @pytest.mark.parametrize("kind", ["logistic", "huber_svm", "quadratic"])
    def test_matches_central_difference(self, kind):
        rng = np.random.default_rng(8)
        if kind == "quadratic":
            cfg = ObjectiveConfig(kind, quadratic_spectrum=rng.uniform(0.5, 3.0, size=6))
            data = None
        else:
            cfg, data = toy_logistic(n=30, d=6, seed=9, reg=0.1)
        for trial in range(50):
            x = rng.standard_normal(6)
            batch = None
            if data is not None:
                batch = np.sort(rng.choice(30, size=10, replace=False))
            grad = batch_gradient(cfg, data, batch, x)
            fd = central_difference_gradient(lambda z: batch_loss(cfg, data, batch, z), x)
            denom = max(np.linalg.norm(grad), 1e-8)
            assert np.linalg.norm(grad - fd) <= 1e-5 * denom


class TestLossAndGradient:
    @pytest.mark.parametrize("kind", ["logistic", "huber_svm", "quadratic"])
    def test_bit_identical_to_separate_calls(self, kind):
        rng = np.random.default_rng(12)
        if kind == "quadratic":
            cfg = ObjectiveConfig(kind, reg_a=0.1, quadratic_spectrum=rng.uniform(0.5, 3.0, size=6))
            data = None
        else:
            _, data = toy_logistic(n=30, d=6, seed=9)
            cfg = ObjectiveConfig(kind, reg_a=0.1)
        for scale in (0.0, 0.3, 3.0, 40.0):  # every Huber branch, and logistic saturation
            x = scale * rng.standard_normal(6)
            loss, grad = loss_and_gradient(cfg, data, x)
            assert loss == batch_loss(cfg, data, None, x)
            assert np.array_equal(grad, batch_gradient(cfg, data, None, x))

    def test_checks_dimension(self):
        cfg, data = toy_logistic()
        with pytest.raises(DimensionMismatch):
            loss_and_gradient(cfg, data, np.zeros(4))


class TestExactHvp:
    def test_quadratic_constant_hessian(self):
        np.testing.assert_allclose(exact_hvp(QUAD123, None, None, np.zeros(3), np.ones(3)), [1.0, 2.0, 3.0])

    def test_zero_vector(self):
        cfg, data = toy_logistic()
        np.testing.assert_array_equal(exact_hvp(cfg, data, None, np.zeros(5), np.zeros(5)), np.zeros(5))

    def test_single_sample_logistic_closed_form(self):
        cfg = ObjectiveConfig("logistic", reg_a=0.0)
        data = Dataset(features=np.array([[1.0, 0.0]]), labels=np.array([1.0]))
        result = exact_hvp(cfg, data, None, np.zeros(2), np.array([1.0, 1.0]))
        np.testing.assert_allclose(result, [0.25, 0.0], atol=1e-15)

    @pytest.mark.parametrize("kind", ["logistic", "huber_svm"])
    def test_matches_dense_hessian_product(self, kind):
        rng = np.random.default_rng(10)
        cfg, data = toy_logistic(n=25, d=8, seed=13, reg=0.2)
        cfg = ObjectiveConfig(kind, reg_a=0.2)
        for _ in range(20):
            x = rng.standard_normal(8)
            v = rng.standard_normal(8)
            h = dense_hessian(cfg, data, None, x)
            hv = exact_hvp(cfg, data, None, x, v)
            assert np.linalg.norm(hv - h @ v) <= 1e-10 * max(np.linalg.norm(h @ v), 1e-12)

    def test_matrix_argument_matches_columns(self):
        cfg, data = toy_logistic(n=15, d=6, seed=2)
        rng = np.random.default_rng(4)
        x = rng.standard_normal(6)
        block = rng.standard_normal((6, 3))
        full = exact_hvp(cfg, data, None, x, block)
        for j in range(3):
            np.testing.assert_allclose(full[:, j], exact_hvp(cfg, data, None, x, block[:, j]), atol=1e-12)


class TestDenseHessian:
    def test_quadratic_diagonal(self):
        np.testing.assert_array_equal(dense_hessian(QUAD123, None, None, np.zeros(3)), np.diag([1.0, 2.0, 3.0]))

    def test_single_sample_logistic_with_reg(self):
        cfg = ObjectiveConfig("logistic", reg_a=0.5)
        data = Dataset(features=np.array([[1.0, 0.0]]), labels=np.array([1.0]))
        h = dense_hessian(cfg, data, None, np.zeros(2))
        np.testing.assert_allclose(h, [[0.75, 0.0], [0.0, 0.5]], atol=1e-15)

    def test_exactly_symmetric(self):
        cfg, data = toy_logistic(n=40, d=7, seed=5)
        h = dense_hessian(cfg, data, None, np.full(7, 0.3))
        assert np.abs(h - h.T).max() == 0.0

    @pytest.mark.parametrize("kind,reg", [("logistic", 0.05), ("huber_svm", 0.05), ("quadratic", 0.0)])
    def test_convexity_witness(self, kind, reg):
        rng = np.random.default_rng(14)
        if kind == "quadratic":
            cfg = ObjectiveConfig(kind, quadratic_spectrum=rng.uniform(0.2, 2.0, size=5))
            data = None
        else:
            cfg, data = toy_logistic(n=30, d=5, seed=6, reg=reg)
            cfg = ObjectiveConfig(kind, reg_a=reg)
        for _ in range(10):
            x = rng.standard_normal(5)
            smallest = np.linalg.eigvalsh(dense_hessian(cfg, data, None, x)).min()
            assert smallest >= cfg.reg_a - 1e-10

    def test_dimension_cap(self):
        cfg = ObjectiveConfig("quadratic", quadratic_spectrum=np.ones(600))
        with pytest.raises(DimensionTooLarge):
            dense_hessian(cfg, None, None, np.zeros(600))

    def test_matches_gradient_finite_difference(self):
        cfg, data = toy_logistic(n=12, d=4, seed=21, reg=0.3)
        x = np.full(4, 0.2)
        h = dense_hessian(cfg, data, None, x)
        eps = 1e-6
        for i in range(4):
            step = np.zeros(4)
            step[i] = eps
            col = (batch_gradient(cfg, data, None, x + step) - batch_gradient(cfg, data, None, x - step)) / (2 * eps)
            assert np.linalg.norm(h[:, i] - col) <= 1e-5 * max(np.linalg.norm(col), 1e-8)


class TestSampleBatch:
    def test_full_batch(self):
        rng = np.random.default_rng(0)
        np.testing.assert_array_equal(sample_batch(6, 6, rng), np.arange(6))

    def test_single_sample_of_one(self):
        rng = np.random.default_rng(0)
        np.testing.assert_array_equal(sample_batch(1, 1, rng), [0])

    def test_sorted_distinct(self):
        rng = np.random.default_rng(1)
        batch = sample_batch(50, 20, rng)
        assert np.all(np.diff(batch) > 0)

    def test_too_large_raises(self):
        rng = np.random.default_rng(0)
        with pytest.raises(BatchTooLarge):
            sample_batch(5, 6, rng)
        with pytest.raises(BatchTooLarge):
            sample_batch(5, 0, rng)

    def test_uniform_frequencies(self):
        # Binomial concentration: each index lands within 4 sigma of b/n.
        rng = np.random.default_rng(123)
        n, b, draws = 10, 3, 10000
        counts = np.zeros(n)
        for _ in range(draws):
            counts[sample_batch(n, b, rng)] += 1
        freq = counts / draws
        p = b / n
        sigma = math.sqrt(p * (1 - p) / draws)
        assert np.abs(freq - p).max() <= 4 * sigma
