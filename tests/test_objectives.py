"""Objective contracts: losses, gradients, second-order oracles, batch sampling."""

import math

import numpy as np
import pytest

from spanopt import (
    ANALYTIC,
    CENTRAL_FD,
    BatchHessian,
    Dataset,
    ObjectiveConfig,
    batch_gradient,
    batch_loss,
    loss_and_gradient,
    sample_batch,
)
from spanopt.errors import BatchTooLarge, DimensionMismatch, DimensionTooLarge
from spanopt.objectives import _exp_neg_abs, _margin_derivative, _sigmoid_where, sample_batches


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


class TestObjectiveConfig:
    # A NaN reg_a passed `reg_a < 0`, and a run on an infinite spectrum wrote NaN rows without an error.
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(loss_kind="logistic", reg_a=-1.0),
            dict(loss_kind="logistic", reg_a=float("nan")),
            dict(loss_kind="logistic", reg_a=float("inf")),
            dict(loss_kind="quadratic", quadratic_spectrum=[1.0, 0.0]),
            dict(loss_kind="quadratic", quadratic_spectrum=[1.0, float("inf")]),
            dict(loss_kind="quadratic", quadratic_spectrum=[float("nan"), 1.0]),
            dict(loss_kind="logistic", quadratic_spectrum=[1.0, 2.0]),
        ],
        ids=["negative-reg", "nan-reg", "inf-reg", "zero-eigenvalue", "inf-eigenvalue", "nan-eigenvalue",
             "spectrum-on-logistic"],
    )
    def test_values_it_cannot_run_are_refused(self, kwargs):
        with pytest.raises(ValueError):
            ObjectiveConfig(**kwargs)


class TestDatasetInvariants:
    def test_label_values_enforced(self):
        with pytest.raises(ValueError):
            Dataset(features=np.ones((2, 2)), labels=np.array([1.0, 0.0]))

    def test_finite_features_enforced(self):
        with pytest.raises(ValueError):
            Dataset(features=np.array([[np.inf, 0.0]]), labels=np.array([1.0]))

    @pytest.mark.parametrize(
        "features, labels, message",
        [(np.ones(3), np.ones(3), "2-D"), (np.ones((3, 2)), np.ones(2), "one per row")],
        ids=["1-d-features", "mismatched-labels"],
    )
    def test_shapes_enforced(self, features, labels, message):
        with pytest.raises(ValueError, match=message):
            Dataset(features=features, labels=labels)

    def test_non_canonical_csr_duplicates_are_summed(self):
        from scipy import sparse

        # Row 0 stores column 1 twice; the caller's matrix keeps its own entries.
        given = sparse.csr_array((np.array([1.0, 2.0, 4.0]), np.array([1, 1, 0]), np.array([0, 2, 3])), shape=(2, 2))
        assert not given.has_canonical_format
        ds = Dataset(features=given, labels=np.array([1.0, -1.0]))
        assert ds.matrix.has_canonical_format
        np.testing.assert_array_equal(ds.features, [[0.0, 3.0], [4.0, 0.0]])
        assert given.nnz == 3


class TestStableSigmoid:
    def test_bit_identical_to_masked_branches(self):
        # The sign-branched formula with masked gathers, written out: the
        # unmasked form must reproduce it bit for bit, specials included (a
        # NaN stays NaN; its sign bit is not part of the contract).
        z = np.concatenate([
            [0.0, -0.0, np.inf, -np.inf, np.nan, 745.0, -745.0, 746.0, -746.0, 1e-300, -1e-300],
            np.linspace(-800.0, 800.0, 200_001),
        ])
        expected = np.empty_like(z)
        pos = z >= 0
        expected[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        expected[~pos] = ez / (1.0 + ez)
        with np.errstate(invalid="ignore"):
            got = _sigmoid_where(z >= 0, _exp_neg_abs(z))
        nan = np.isnan(expected)
        np.testing.assert_array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == expected[~nan].tobytes()


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


class TestCheckedPass:
    """The point and batch checks that every objective pass makes first."""

    ENTRIES = {
        "batch_loss": lambda cfg, data, batch, x: batch_loss(cfg, data, batch, x),
        "batch_gradient": lambda cfg, data, batch, x: batch_gradient(cfg, data, batch, x),
        "loss_and_gradient": lambda cfg, data, batch, x: loss_and_gradient(cfg, data, x),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    @pytest.mark.parametrize(
        "quadratic, x, error, message",
        [
            (True, np.zeros((3, 1)), DimensionMismatch, "x must be a vector"),
            (True, np.zeros(2), DimensionMismatch, "x has size 2, spectrum has 3"),
            (False, np.zeros(5), ValueError, "logistic objective requires a dataset"),
        ],
        ids=["matrix-point", "quadratic-size", "no-dataset"],
    )
    def test_point_refusals(self, entry, quadratic, x, error, message):
        cfg = QUAD123 if quadratic else toy_logistic()[0]
        with pytest.raises(error, match=message):
            self.ENTRIES[entry](cfg, None, None, x)

    @pytest.mark.parametrize("entry", ["batch_loss", "batch_gradient"])
    def test_empty_batch_raises(self, entry):
        cfg, data = toy_logistic()
        with pytest.raises(BatchTooLarge, match="nonempty"):
            self.ENTRIES[entry](cfg, data, np.array([], dtype=int), np.zeros(5))


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


class TestQuadraticPass:
    # One product s * x per evaluation: the loss is 0.5 * x @ (s * x) and the
    # gradient s * x, plus the regularizer's terms only when reg_a != 0.  The
    # bits are those of the plain expressions, evaluated in this order.
    @pytest.mark.parametrize("reg", [0.0, 0.3])
    def test_same_bits_as_the_plain_expressions(self, reg):
        rng = np.random.default_rng(24)
        s = rng.uniform(0.1, 10.0, size=200)
        cfg = ObjectiveConfig("quadratic", reg_a=reg, quadratic_spectrum=s)
        for x in (rng.standard_normal(200), 1e3 * rng.standard_normal(200), np.zeros(200)):
            expected_loss = 0.5 * float(x @ (s * x)) + 0.5 * reg * float(x @ x)
            expected_grad = s * x + reg * x
            loss, grad = loss_and_gradient(cfg, None, x)
            assert loss == batch_loss(cfg, None, None, x) == expected_loss
            assert grad.tobytes() == batch_gradient(cfg, None, None, x).tobytes() == expected_grad.tobytes()

    def test_gradient_and_hessian_diagonal_share_nothing_with_the_caller(self):
        s = np.array([1.0, 2.0, 3.0])
        cfg = ObjectiveConfig("quadratic", quadratic_spectrum=s)
        x = np.ones(3)
        grad = batch_gradient(cfg, None, None, x)
        grad[:] = -1.0  # a caller may write the gradient it was given
        np.testing.assert_array_equal(cfg.quadratic_spectrum, s)
        np.testing.assert_array_equal(x, np.ones(3))
        np.testing.assert_array_equal(BatchHessian.at(cfg, None, None, x, ANALYTIC) @ x, s)


class TestZeroRegularizer:
    # reg_a = 0 adds nothing, not 0 * ||x||^2: where x @ x overflows, that
    # term was 0 * inf = nan beside a finite loss.
    def test_quadratic_whose_squared_norm_overflows(self):
        cfg = ObjectiveConfig("quadratic", reg_a=0.0, quadratic_spectrum=[1e-10, 1e-10])
        x = np.array([1e155, 1e155])
        loss, grad = loss_and_gradient(cfg, None, x)
        assert loss == pytest.approx(1e300, rel=1e-15)
        assert loss == batch_loss(cfg, None, None, x)
        np.testing.assert_array_equal(grad, 1e-10 * x)

    def test_logistic_whose_squared_norm_overflows(self):
        _, data = toy_logistic(n=30, d=6, seed=9)
        cfg = ObjectiveConfig("logistic", reg_a=0.0)
        x = np.full(6, 1e155)
        loss, grad = loss_and_gradient(cfg, data, x)
        assert math.isfinite(loss) and np.isfinite(grad).all()
        assert loss == batch_loss(cfg, data, None, x)
        assert np.array_equal(grad, batch_gradient(cfg, data, None, x))
        margins = data.labels * (data.features @ x)
        assert loss == pytest.approx(float(np.mean(np.logaddexp(0.0, -margins))), rel=1e-12)

    def test_huber_whose_squared_margin_overflows(self):
        # The quadratic branch's square was formed for every margin, also the
        # ones np.where discards, and overflowed near |m| = 1e154.
        _, data = toy_logistic(n=30, d=6, seed=9)
        cfg = ObjectiveConfig("huber_svm", reg_a=0.0)
        x = np.full(6, 1e155)
        loss, grad = loss_and_gradient(cfg, data, x)
        assert math.isfinite(loss) and np.isfinite(grad).all()
        margins = data.labels * (data.features @ x)
        assert loss == pytest.approx(float(np.mean(np.maximum(1.0 - margins, 0.0))), rel=1e-12)

    @pytest.mark.parametrize("kind", ["quadratic", "logistic"])
    def test_positive_regularizer_still_overflows(self, kind):
        if kind == "quadratic":
            cfg, data = ObjectiveConfig(kind, reg_a=0.1, quadratic_spectrum=[1e-10, 1e-10]), None
        else:
            cfg, data = ObjectiveConfig(kind, reg_a=0.1), toy_logistic(n=30, d=2, seed=9)[1]
        with pytest.warns(RuntimeWarning, match="overflow"):
            loss, _ = loss_and_gradient(cfg, data, np.array([1e155, 1e155]))
        assert loss == math.inf


# Margins over the whole range of exp(-|m|): zeros of both signs and the
# edges where exp(-745) is subnormal and exp(-746) is zero.
PIN_MARGINS = np.concatenate([np.linspace(-800.0, 800.0, 2001), [0.0, -0.0, 745.0, -745.0, 746.0, -746.0]])


class TestLogisticKernel:
    @pytest.mark.parametrize("csr", [False, True], ids=["dense", "csr"])
    def test_one_exp_per_sample_and_no_logaddexp(self, csr, monkeypatch):
        cfg, data = toy_logistic(n=30, d=6, seed=3)
        if csr:
            from scipy import sparse

            data = Dataset(sparse.csr_array(data.features), data.labels)
        sizes = {"exp": [], "logaddexp": []}
        for name, seen in sizes.items():
            real = getattr(np, name)

            def counting(*args, _real=real, _seen=seen, **kwargs):
                _seen.append(np.size(args[0]))
                return _real(*args, **kwargs)

            monkeypatch.setattr(np, name, counting)
        loss_and_gradient(cfg, data, np.full(6, 0.5))
        assert sizes == {"exp": [30], "logaddexp": []}

    def test_loss_matches_logaddexp(self):
        cfg = ObjectiveConfig("logistic")
        data = Dataset(PIN_MARGINS[:, None], np.ones(PIN_MARGINS.size))
        x = np.ones(1)
        expected = np.logaddexp(0.0, -PIN_MARGINS)
        assert batch_loss(cfg, data, None, x) == pytest.approx(np.mean(expected), rel=1e-15, abs=0.0)
        for i, term in enumerate(expected):  # each term alone: the mean hides the small ones
            assert batch_loss(cfg, data, np.array([i]), x) == pytest.approx(term, rel=1e-15, abs=0.0)

    def test_derivative_from_the_shared_exp_is_the_sigmoid(self):
        cfg = ObjectiveConfig("logistic")
        expected = (-_sigmoid_where(-PIN_MARGINS >= 0, _exp_neg_abs(-PIN_MARGINS))).tobytes()
        e = _exp_neg_abs(PIN_MARGINS)
        assert _margin_derivative(cfg, PIN_MARGINS, e).tobytes() == expected
        assert _margin_derivative(cfg, PIN_MARGINS).tobytes() == expected

    def test_curvature_weights_even_and_accurate(self):
        # sigmoid(z) sigmoid(-z) = e / (1 + e)^2 with e = exp(-|z|), against
        # extended precision where the platform has it.
        z = np.linspace(0.0, 700.0, 7001)
        labels = np.where(np.arange(z.size) % 2, 1.0, -1.0)
        cfg = ObjectiveConfig("logistic")

        def weights(values):
            return BatchHessian.at(cfg, Dataset(values[:, None], labels), None, np.ones(1), ANALYTIC).weights

        assert np.array_equal(weights(z), weights(-z))
        e = np.exp(-z.astype(np.longdouble))
        exact = e / (1 + e) ** 2
        assert float(np.max(np.abs(weights(z) - exact) / exact)) <= 1e-14


class TestExactHvp:
    def test_quadratic_constant_hessian(self):
        result = BatchHessian.at(QUAD123, None, None, np.zeros(3), ANALYTIC) @ np.ones(3)
        np.testing.assert_allclose(result, [1.0, 2.0, 3.0])

    def test_zero_vector(self):
        cfg, data = toy_logistic()
        result = BatchHessian.at(cfg, data, None, np.zeros(5), ANALYTIC) @ np.zeros(5)
        np.testing.assert_array_equal(result, np.zeros(5))

    def test_single_sample_logistic_closed_form(self):
        cfg = ObjectiveConfig("logistic", reg_a=0.0)
        data = Dataset(features=np.array([[1.0, 0.0]]), labels=np.array([1.0]))
        result = BatchHessian.at(cfg, data, None, np.zeros(2), ANALYTIC) @ np.array([1.0, 1.0])
        np.testing.assert_allclose(result, [0.25, 0.0], atol=1e-15)

    @pytest.mark.parametrize("kind", ["logistic", "huber_svm"])
    def test_matches_dense_hessian_product(self, kind):
        rng = np.random.default_rng(10)
        cfg, data = toy_logistic(n=25, d=8, seed=13, reg=0.2)
        cfg = ObjectiveConfig(kind, reg_a=0.2)
        for _ in range(20):
            x = rng.standard_normal(8)
            v = rng.standard_normal(8)
            hessian = BatchHessian.at(cfg, data, None, x, ANALYTIC)
            h = hessian.dense()
            hv = hessian @ v
            assert np.linalg.norm(hv - h @ v) <= 1e-10 * max(np.linalg.norm(h @ v), 1e-12)

    def test_matrix_argument_matches_columns(self):
        cfg, data = toy_logistic(n=15, d=6, seed=2)
        rng = np.random.default_rng(4)
        x = rng.standard_normal(6)
        block = rng.standard_normal((6, 3))
        hessian = BatchHessian.at(cfg, data, None, x, ANALYTIC)
        full = hessian @ block
        for j in range(3):
            np.testing.assert_allclose(full[:, j], hessian @ block[:, j], atol=1e-12)


class TestDenseHessian:
    def test_quadratic_diagonal(self):
        h = BatchHessian.at(QUAD123, None, None, np.zeros(3), ANALYTIC).dense()
        np.testing.assert_array_equal(h, np.diag([1.0, 2.0, 3.0]))

    def test_single_sample_logistic_with_reg(self):
        cfg = ObjectiveConfig("logistic", reg_a=0.5)
        data = Dataset(features=np.array([[1.0, 0.0]]), labels=np.array([1.0]))
        h = BatchHessian.at(cfg, data, None, np.zeros(2), ANALYTIC).dense()
        np.testing.assert_allclose(h, [[0.75, 0.0], [0.0, 0.5]], atol=1e-15)

    def test_exactly_symmetric(self):
        cfg, data = toy_logistic(n=40, d=7, seed=5)
        h = BatchHessian.at(cfg, data, None, np.full(7, 0.3), ANALYTIC).dense()
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
            smallest = np.linalg.eigvalsh(BatchHessian.at(cfg, data, None, x, ANALYTIC).dense()).min()
            assert smallest >= cfg.reg_a - 1e-10

    @pytest.mark.parametrize("kind", ["logistic", "huber_svm", "quadratic"])
    def test_finite_difference_operator_gives_the_analytic_matrix(self, kind):
        # dense() is the matrix of H_B(x) whatever the product mode.
        if kind == "quadratic":
            cfg, data = QUAD123, None
        else:
            cfg, data = toy_logistic(n=3, d=3, seed=8)
            cfg = ObjectiveConfig(kind, reg_a=cfg.reg_a)
        x = np.array([0.4, -0.2, 0.1])
        fd = BatchHessian.at(cfg, data, None, x, CENTRAL_FD).dense()
        np.testing.assert_array_equal(fd, BatchHessian.at(cfg, data, None, x, ANALYTIC).dense())

    def test_dimension_cap(self):
        cfg = ObjectiveConfig("quadratic", quadratic_spectrum=np.ones(600))
        with pytest.raises(DimensionTooLarge):
            BatchHessian.at(cfg, None, None, np.zeros(600), ANALYTIC).dense()

    def test_matches_gradient_finite_difference(self):
        cfg, data = toy_logistic(n=12, d=4, seed=21, reg=0.3)
        x = np.full(4, 0.2)
        h = BatchHessian.at(cfg, data, None, x, ANALYTIC).dense()
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


class TestSampleBatches:
    # (n, b) from rows that seldom repeat an index to rows that nearly
    # always do and are redrawn by sample_batch.
    SHAPES = [(100, 3), (20, 6), (10, 5), (10, 6), (50, 50)]

    @pytest.mark.parametrize("n,b", SHAPES)
    def test_rows_are_sorted_distinct_indices(self, n, b):
        batches = sample_batches(n, b, 500, np.random.default_rng(3))
        assert batches.shape == (500, b) and batches.dtype == np.int64
        assert np.all(np.diff(batches, axis=1) > 0)
        assert batches.min() >= 0 and batches.max() < n

    @pytest.mark.parametrize("n,b", [(20, 6), (10, 6)])
    def test_no_batches(self, n, b):
        batches = sample_batches(n, b, 0, np.random.default_rng(0))
        assert batches.shape == (0, b) and batches.dtype == np.int64

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_full_batches(self, n):
        batches = sample_batches(n, n, 20, np.random.default_rng(0))
        np.testing.assert_array_equal(batches, np.tile(np.arange(n), (20, 1)))

    def test_too_large_raises(self):
        rng = np.random.default_rng(0)
        with pytest.raises(BatchTooLarge):
            sample_batches(5, 6, 3, rng)
        with pytest.raises(BatchTooLarge):
            sample_batches(5, 0, 3, rng)

    def test_indices_beyond_memory_raise_before_any_draw(self):
        # 2e16 bytes of indices ended in numpy's allocation error, with a traceback.
        ours, theirs = np.random.default_rng(4), np.random.default_rng(4)
        with pytest.raises(DimensionTooLarge):
            sample_batches(10, 2, 10**15, ours)
        assert ours.random() == theirs.random()

    @pytest.mark.parametrize("n,b", [(10, 2), (10, 6)], ids=["few-redrawn", "most-redrawn"])
    def test_uniform_frequencies(self, n, b):
        # Binomial concentration, as for sample_batch: each index within 4 sigma of b/n.
        draws = 10000
        counts = np.bincount(sample_batches(n, b, draws, np.random.default_rng(123)).ravel(), minlength=n)
        freq = counts / draws
        p = b / n
        sigma = math.sqrt(p * (1 - p) / draws)
        assert np.abs(freq - p).max() <= 4 * sigma

    @pytest.mark.parametrize("n", [1, 7, 2000, 13608])
    def test_single_index_rows_are_the_single_draw_stream(self, n):
        # svrg at b = 1 and lissa draw this way; their streams must not change.
        ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
        batches = sample_batches(n, 1, 300, ours)
        np.testing.assert_array_equal(batches, [sample_batch(n, 1, theirs) for _ in range(300)])
        assert ours.random() == theirs.random()
