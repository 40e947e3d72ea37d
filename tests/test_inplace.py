"""The per-sample kernels work in arrays they allocate themselves.

A batch-Hessian product, the full-data loss-and-gradient pass and the margin
derivative write only into arrays of their own: never into the caller's
vector or iterate, the operator's stored margins or weights, or the
dataset.  Their temporaries stay within a fixed number of full-size arrays,
and a CSR batch that stores no entries still gives float64.
"""

import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from spanopt import (
    ANALYTIC,
    CENTRAL_FD,
    BaselineConfig,
    BatchHessian,
    Dataset,
    ObjectiveConfig,
    loss_and_gradient,
    run_svrg,
)
from spanopt.objectives import (
    _curvature_weights,
    _margin_derivative,
    _pass,
    batch_gradient_difference,
    gathered_batches,
)

MODES = {"finite-difference": CENTRAL_FD, "analytic": ANALYTIC}


def random_csr(n, d, per_row, seed):
    """An (n, d) CSR matrix with about ``per_row`` standard normal entries in each row."""
    rng = np.random.default_rng(seed)
    indptr = np.arange(n + 1) * per_row
    matrix = sparse.csr_array((rng.standard_normal(n * per_row), rng.integers(0, d, n * per_row), indptr), shape=(n, d))
    matrix.sum_duplicates()
    return matrix


def labels_for(n, seed):
    return np.where(np.random.default_rng(seed).random(n) < 0.5, 1.0, -1.0)


def dataset(storage, n=40, d=9, seed=0):
    matrix = random_csr(n, d, 4, seed)
    return Dataset(features=matrix if storage == "csr" else matrix.toarray(), labels=labels_for(n, seed + 1))


def data_arrays(data):
    if isinstance(data.signed_rows, np.ndarray):
        return [data.signed_rows, data.labels]
    return [data.signed_rows.data, data.signed_rows.indices, data.signed_rows.indptr, data.labels]


def snapshot(arrays):
    return [a.tobytes() for a in arrays]


def gathered_operator(cfg, data, batch, x):
    """The analytic operator over ``batch``'s gathered rows, built as run_lissa builds each sample's."""
    _, _, margins = _pass(cfg, data, None, x)
    ((rows, weights),) = gathered_batches(cfg, data, batch[None], _curvature_weights(cfg, margins))
    return BatchHessian(cfg, x, rows, weights)


def one_operator(storage, cfg, data, x, mode):
    """One batch's operator with its rows in ``storage``, and the gathered rows' arrays.

    Dense and CSR rows are :meth:`BatchHessian.at`'s; ``coordinates`` are
    :func:`gathered_batches`' rows of CSR data, which only lissa's analytic
    operator multiplies.
    """
    batch = np.arange(3, 30, 2)
    if storage == "coordinates":
        hessian = gathered_operator(cfg, data, batch, x)
        return hessian, [hessian.rows.rows, hessian.rows.cols, hessian.rows.values]
    return BatchHessian.at(cfg, data, batch, x, MODES[mode]), []


class TestWritesOnlyItsOwnArrays:
    @pytest.mark.parametrize("loss", ["logistic", "huber_svm"])
    # Rows from gathered_batches (coordinates) take analytic vector products only.
    @pytest.mark.parametrize(
        "storage, operand, mode",
        [
            (storage, operand, mode)
            for storage in ("dense", "csr")
            for operand in ("vector", "block-with-zero-column")
            for mode in sorted(MODES)
        ]
        + [("coordinates", "vector", "analytic")],
    )
    def test_product(self, storage, operand, mode, loss):
        data = dataset("dense" if storage == "dense" else "csr")
        rng = np.random.default_rng(5)
        cfg = ObjectiveConfig(loss, reg_a=0.1)
        x = rng.standard_normal(data.dim)
        hessian, stored = one_operator(storage, cfg, data, x, mode)
        v = rng.standard_normal(data.dim) if operand == "vector" else rng.standard_normal((data.dim, 4))
        if v.ndim == 2:
            v[:, 1] = 0.0
        own = [hessian.x, hessian.margins, hessian.weights]
        kept = [v, x, *data_arrays(data), *stored, *(a for a in own if a is not None)]
        before = snapshot(kept)
        first = hessian @ v
        assert snapshot(kept) == before
        assert (hessian @ v).tobytes() == first.tobytes()
        assert not any(np.shares_memory(first, a) for a in kept)

    @pytest.mark.parametrize("loss", ["logistic", "huber_svm"])
    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_full_pass(self, loss, storage):
        data = dataset(storage)
        x = np.random.default_rng(6).standard_normal(data.dim)
        kept = [x, *data_arrays(data)]
        before = snapshot(kept)
        loss_value, grad = loss_and_gradient(ObjectiveConfig(loss, reg_a=0.1), data, x)
        assert snapshot(kept) == before
        assert not any(np.shares_memory(grad, a) for a in kept)

    @pytest.mark.parametrize("loss", ["logistic", "huber_svm"])
    @pytest.mark.parametrize("shape", [(50,), (50, 3)])
    def test_margin_derivative(self, loss, shape):
        margins = np.random.default_rng(7).standard_normal(shape) * 3.0
        margins.flat[:4] = (0.0, -0.0, 0.5, 1.5)
        e = np.exp(-np.abs(margins))
        before = snapshot([margins, e])
        cfg = ObjectiveConfig(loss)
        for derivative in (_margin_derivative(cfg, margins), _margin_derivative(cfg, margins, e)):
            assert snapshot([margins, e]) == before
            assert not np.shares_memory(derivative, margins) and not np.shares_memory(derivative, e)


class TestBatchThatStoresNothing:
    """A CSR batch whose rows store no entries: every product is float64 and only the regularizer is left."""

    BATCH = np.array([0, 2, 3])

    @pytest.fixture
    def data(self):
        matrix = sparse.csr_array(([1.0, 2.0, -1.0], [0, 2, 5], [0, 0, 0, 0, 0, 2, 3, 3, 3]), shape=(8, 6))
        return Dataset(features=matrix, labels=labels_for(8, 3))

    @pytest.fixture
    def empty_batch(self, data):
        (rows,) = next(gathered_batches(ObjectiveConfig("logistic"), data, np.stack([self.BATCH, [4, 5, 6]])))
        assert rows.values.size == 0
        return rows

    def test_coordinates_products_are_float64(self, empty_batch):
        rows = empty_batch
        for product in (rows @ np.ones(6), rows.T @ np.ones(3), np.ones(3) @ rows):
            assert product.dtype == np.float64
            np.testing.assert_array_equal(product, 0.0)

    # Gathered rows take lissa's analytic products only.
    @pytest.mark.parametrize("mode", ["analytic"])
    @pytest.mark.parametrize("shape", [(6,)])
    def test_product_is_the_regularizer(self, data, mode, shape):
        cfg = ObjectiveConfig("logistic", reg_a=0.3)
        rng = np.random.default_rng(8)
        v = rng.standard_normal(shape)
        hessian = gathered_operator(cfg, data, self.BATCH, rng.standard_normal(6))
        assert hessian.rows.values.size == 0
        product = hessian @ v
        assert product.dtype == np.float64
        np.testing.assert_array_equal(product, cfg.reg_a * v)

    def test_gradient_difference_is_the_regularizer(self, empty_batch):
        rows = empty_batch
        cfg = ObjectiveConfig("logistic", reg_a=0.3)
        rng = np.random.default_rng(9)
        w, snapshot_x = rng.standard_normal(6), rng.standard_normal(6)
        margins = np.zeros(3)  # the snapshot's margins on rows that store nothing
        r = w - snapshot_x
        difference = batch_gradient_difference(cfg, rows, r, margins, _margin_derivative(cfg, margins))
        assert difference.dtype == np.float64
        np.testing.assert_array_equal(difference, cfg.reg_a * (w - snapshot_x))


def peak_bytes(run) -> int:
    """Peak bytes that ``run`` allocates beyond what it had allocated when it started, after one warm-up call."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTemporaries:
    """Peak memory of one product or full pass, in full-size arrays, on a libsvm-fd-sized problem.

    A 5%-dense CSR batch of b = 1000 rows by d = 300 at l = 16 columns, and a
    full pass over n = 13600 rows.  Written without in-place kernels, a
    finite-difference product peaks at 9.0 ``b x l`` blocks, an analytic one
    at 2.9, and the full pass at 6.0 ``n``-vectors; the bounds fail those.
    """

    b, d, l, n = 1000, 300, 16, 13600
    cfg = ObjectiveConfig("logistic", reg_a=1e-3)

    def block_product_blocks(self, mode):
        data = Dataset(features=random_csr(self.b, self.d, 15, seed=10), labels=labels_for(self.b, 11))
        rng = np.random.default_rng(12)
        hessian = BatchHessian.at(self.cfg, data, None, 0.3 * rng.standard_normal(self.d), mode)
        v = rng.standard_normal((self.d, self.l))
        return peak_bytes(lambda: hessian @ v) / (self.b * self.l * 8)

    def test_finite_difference_product(self):
        assert self.block_product_blocks(CENTRAL_FD) <= 6.5

    def test_analytic_product(self):
        assert self.block_product_blocks(ANALYTIC) <= 2.0

    def test_logistic_full_pass(self):
        data = Dataset(features=random_csr(self.n, self.d, 15, seed=13), labels=labels_for(self.n, 14))
        x = 0.3 * np.random.default_rng(15).standard_normal(self.d)
        assert peak_bytes(lambda: loss_and_gradient(self.cfg, data, x)) / (self.n * 8) <= 5.0


def test_svrg_epoch_peak_grows_only_with_its_index_array():
    # Drawing an epoch's (inner_steps, b) indices holds the int64 draws and
    # their sorted copy at once: two index arrays.  The stored margins and
    # derivatives are gathered a run of batches at a time; gathering them
    # for every drawn index at once measured three index arrays.
    data = Dataset(features=random_csr(2000, 50, 4, seed=16), labels=labels_for(2000, 17))
    cfg = ObjectiveConfig("logistic", reg_a=0.1)

    def epoch_peak(steps):
        bl = BaselineConfig(method="svrg", eta=0.1, t_max=1, b=200, inner_steps=steps, seed=18)
        return peak_bytes(lambda: run_svrg(bl, cfg, data, np.zeros(50)))

    index_bytes = 8 * 200 * (3000 - 1000)
    assert epoch_peak(3000) - epoch_peak(1000) <= 2.25 * index_bytes
