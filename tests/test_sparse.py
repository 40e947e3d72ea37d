"""CSR features: agreement with dense storage, and scipy kept off the dense paths."""

import io
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

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
    SpanConfig,
    batch_gradient,
    batch_loss,
    loss_and_gradient,
    run_lissa,
    run_newsamp,
    run_span,
    run_svrg,
)
from spanopt.datasets import load_libsvm, normalize_rows, to_binary_dataset
from spanopt.errors import DimensionTooLarge
from spanopt.objectives import _batch_rows, batch_gradient_difference, gather_batches

SRC = Path(__file__).resolve().parents[1] / "src"

# Products add the same terms in another order in each format.
RTOL = 1e-12


def sparse_features(n, d, seed, density=0.3, empty_rows=(3,)):
    """A random CSR matrix with some rows that store nothing."""
    rng = np.random.default_rng(seed)
    dense = np.where(rng.random((n, d)) < density, rng.standard_normal((n, d)), 0.0)
    dense[list(empty_rows)] = 0.0
    return sparse.csr_array(dense)


def both_formats(n=30, d=7, seed=0, loss="logistic", reg=0.05):
    """One problem stored dense and as CSR, rows unit-normalized."""
    csr, _ = normalize_rows(Dataset(features=sparse_features(n, d, seed), labels=labels_for(n, seed)))
    dense = Dataset(features=csr.matrix.toarray(), labels=csr.labels)
    return ObjectiveConfig(loss, reg_a=reg), dense, csr


def labels_for(n, seed):
    return np.where(np.random.default_rng(seed + 100).random(n) < 0.5, 1.0, -1.0)


def close(a, b):
    np.testing.assert_allclose(a, b, rtol=RTOL, atol=1e-15)


class TestStorage:
    def test_csr_stays_csr_and_dense_view_matches(self):
        matrix = sparse_features(9, 4, seed=1)
        ds = Dataset(features=matrix, labels=labels_for(9, 1))
        assert sparse.issparse(ds.matrix) and ds.matrix.format == "csr"
        assert ds.n_samples == 9 and ds.dim == 4 and ds.stored == matrix.nnz
        np.testing.assert_array_equal(ds.features, matrix.toarray())

    def test_dense_features_are_the_stored_matrix(self):
        features = np.ones((3, 2))
        ds = Dataset(features=features, labels=np.ones(3))
        assert ds.features is ds.matrix and ds.stored == 6

    def test_duplicates_are_summed(self):
        coo = sparse.coo_array((np.array([1.0, 2.0]), (np.array([0, 0]), np.array([1, 1]))), shape=(1, 3))
        ds = Dataset(features=coo, labels=np.ones(1))
        np.testing.assert_array_equal(ds.features, [[0.0, 3.0, 0.0]])

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_values_refused(self, value):
        with pytest.raises(ValueError, match="NaN/Inf"):
            Dataset(features=sparse.csr_array(np.array([[0.0, value]])), labels=np.ones(1))

    def test_dense_view_beyond_physical_memory_refused_before_allocation(self):
        # Each row's vector fits; all of them dense would not.
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        d = physical // 8 // 4
        matrix = sparse.csr_array(
            (np.ones(8), np.arange(8), np.arange(9)), shape=(8, d)
        )
        ds = Dataset(features=matrix, labels=np.ones(8))
        tracemalloc.start()
        try:
            with pytest.raises(DimensionTooLarge, match="dense 8 x"):
                ds.features
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestLibsvmToCsr:
    def test_kept_rows_are_csr_and_match_the_file(self):
        examples, dim = load_libsvm(io.StringIO("4 1:1 3:2\n9 2:2\n7 3:3\n4\n9 1:-1 3:1\n"))
        ds = to_binary_dataset(examples, 4.0, 9.0, dim=dim)
        assert sparse.issparse(ds.matrix)
        np.testing.assert_array_equal(
            ds.features, [[1.0, 0.0, 2.0], [0.0, 2.0, 0.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 1.0]]
        )
        np.testing.assert_array_equal(ds.labels, [1.0, -1.0, 1.0, -1.0])


class TestNormalizeRows:
    def test_agrees_with_dense_including_empty_and_extreme_rows(self):
        dense = np.array([
            [3.0, 4.0, 0.0],
            [0.0, 0.0, 0.0],      # stores nothing
            [3e200, 0.0, 4e200],  # squared norm overflows
            [0.0, 0.0, 0.0],
            [1e-200, 1e-200, 0.0],  # squared norm underflows
            [0.0, -2.0, 0.0],
            [0.0, 0.0, 0.0],      # a trailing row that stores nothing
        ])
        matrix = sparse.csr_array(dense)
        labels = labels_for(7, 2)
        from_csr, zero_csr = normalize_rows(Dataset(features=matrix, labels=labels))
        from_dense, zero_dense = normalize_rows(Dataset(features=dense, labels=labels))
        assert sparse.issparse(from_csr.matrix)
        assert zero_csr == zero_dense == 3
        close(from_csr.features, from_dense.features)
        np.testing.assert_allclose(
            from_csr.features[[2, 4]], [[0.6, 0.0, 0.8], [math.sqrt(0.5), math.sqrt(0.5), 0.0]], rtol=1e-15
        )

    def test_stored_zeros_make_a_zero_row(self):
        matrix = sparse.csr_array((np.array([0.0, 0.0, 2.0]), np.array([0, 1, 1]), np.array([0, 2, 3])), shape=(2, 2))
        normalized, zero_rows = normalize_rows(Dataset(features=matrix, labels=np.ones(2)))
        assert zero_rows == 1
        np.testing.assert_array_equal(normalized.features, [[0.0, 0.0], [0.0, 1.0]])

    def test_random_rows_agree(self):
        matrix = sparse_features(40, 9, seed=3, empty_rows=(0, 17, 39))
        labels = labels_for(40, 3)
        from_csr, zero_csr = normalize_rows(Dataset(features=matrix, labels=labels))
        from_dense, zero_dense = normalize_rows(Dataset(features=matrix.toarray(), labels=labels))
        assert zero_csr == zero_dense >= 3  # some random rows are empty too
        close(from_csr.features, from_dense.features)


class TestObjectives:
    @pytest.mark.parametrize("loss", ["logistic", "huber_svm"])
    @pytest.mark.parametrize("batch", [None, np.array([0, 3, 4, 11, 29])])
    def test_loss_and_gradient_agree(self, loss, batch):
        cfg, dense, csr = both_formats(loss=loss)
        x = np.random.default_rng(5).standard_normal(dense.dim)
        close(batch_loss(cfg, csr, batch, x), batch_loss(cfg, dense, batch, x))
        close(batch_gradient(cfg, csr, batch, x), batch_gradient(cfg, dense, batch, x))
        loss_csr, grad_csr = loss_and_gradient(cfg, csr, x)
        loss_dense, grad_dense = loss_and_gradient(cfg, dense, x)
        close(loss_csr, loss_dense)
        close(grad_csr, grad_dense)

    def test_batch_gather_is_the_dense_rows(self):
        cfg, dense, csr = both_formats()
        batch = np.array([1, 3, 8, 20])
        rows, labels = _batch_rows(cfg, csr, batch)
        np.testing.assert_array_equal(rows.toarray(), dense.features[batch])
        np.testing.assert_array_equal(labels, dense.labels[batch])

    def test_gathered_batches_take_the_dense_products(self):
        cfg, dense, csr = both_formats()
        batches = [np.array([0, 3, 5]), np.array([2, 3]), np.array([29])]
        x = np.random.default_rng(6).standard_normal((dense.dim, 2))
        for (rows, labels), (dense_rows, dense_labels), batch in zip(
            gather_batches(cfg, csr, batches), gather_batches(cfg, dense, batches), batches
        ):
            np.testing.assert_array_equal(dense_rows, dense.features[batch])
            np.testing.assert_array_equal(labels, dense_labels)
            assert rows.shape == dense_rows.shape
            close(rows @ x, dense_rows @ x)
            close(rows @ x[:, 0], dense_rows @ x[:, 0])
            y = np.arange(1.0, batch.size + 1)
            close(rows.T @ y, dense_rows.T @ y)

    @pytest.mark.parametrize("mode", [ANALYTIC, CENTRAL_FD], ids=["analytic", "fd"])
    @pytest.mark.parametrize("batch", [None, np.array([1, 2, 3, 9, 14, 22])])
    def test_block_products_and_dense_matrix_agree(self, mode, batch):
        cfg, dense, csr = both_formats(seed=4)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(dense.dim)
        h_csr = BatchHessian.at(cfg, csr, batch, x, mode)
        h_dense = BatchHessian.at(cfg, dense, batch, x, mode)
        block = rng.standard_normal((dense.dim, 4))
        block[:, 2] = 0.0  # a zero column gives an exact zero
        tol = dict(rtol=RTOL, atol=1e-15) if mode is ANALYTIC else dict(rtol=1e-7, atol=1e-9)
        np.testing.assert_allclose(h_csr @ block, h_dense @ block, **tol)
        np.testing.assert_allclose(h_csr @ block[:, 0], h_dense @ block[:, 0], **tol)
        close(h_csr.dense(), h_dense.dense())
        np.testing.assert_array_equal(h_csr.dense(), h_csr.dense().T)


class TestSvrg:
    @staticmethod
    def estimate(cfg, data, batch, w, snapshot, mu):
        """What a run_svrg step moves along, over its batch's rows from gather_batches."""
        ((rows, labels),) = gather_batches(cfg, data, [batch])
        return batch_gradient_difference(cfg, rows, labels, w, snapshot) + mu

    def test_snapshot_identity_is_exact_on_csr(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            cfg, _, csr = both_formats(n=25, d=6, seed=seed, loss=("logistic", "huber_svm")[seed % 2])
            snapshot = rng.standard_normal(csr.dim)
            mu = batch_gradient(cfg, csr, None, snapshot)
            batch = np.sort(rng.choice(25, size=1 + seed % 7, replace=False))
            estimate = self.estimate(cfg, csr, batch, snapshot, snapshot, mu)
            np.testing.assert_array_equal(estimate, mu)

    def test_snapshot_identity_is_exact_on_dense(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n, d = 12 + seed, 3 + seed % 9
            data = Dataset(features=rng.standard_normal((n, d)), labels=labels_for(n, seed))
            cfg = ObjectiveConfig("logistic", reg_a=0.1)
            snapshot = rng.standard_normal(d)
            mu = batch_gradient(cfg, data, None, snapshot)
            batch = np.sort(rng.choice(n, size=1 + seed % 5, replace=False))
            np.testing.assert_array_equal(self.estimate(cfg, data, batch, snapshot, snapshot, mu), mu)

    def test_estimate_is_the_gradient_difference(self):
        cfg, dense, csr = both_formats(seed=8)
        rng = np.random.default_rng(8)
        w, snapshot = rng.standard_normal((2, dense.dim))
        mu = batch_gradient(cfg, dense, None, snapshot)
        batch = np.array([2, 5, 6, 18])
        expected = batch_gradient(cfg, dense, batch, w) - batch_gradient(cfg, dense, batch, snapshot) + mu
        close(self.estimate(cfg, dense, batch, w, snapshot, mu), expected)
        close(self.estimate(cfg, csr, batch, w, snapshot, mu), expected)


def refuse_dense_view(monkeypatch):
    def refuse(self):
        raise AssertionError("a library path built the dense view of CSR features")

    monkeypatch.setattr(Dataset, "features", property(refuse))


class TestSolversNeverDensify:
    RUNS = {
        "span": lambda cfg, data, x0: run_span(SpanConfig(t_max=5, m=2, l=6, q=1, b=12, eta=0.5, seed=3), cfg, data, x0),
        "span-analytic": lambda cfg, data, x0: run_span(
            SpanConfig(t_max=5, m=2, l=6, q=1, b=12, eta=0.5, seed=3, hvp_mode=ANALYTIC), cfg, data, x0
        ),
        "svrg": lambda cfg, data, x0: run_svrg(
            BaselineConfig(method="svrg", eta=0.5, t_max=3, b=3, seed=4), cfg, data, x0
        ),
        "newsamp": lambda cfg, data, x0: run_newsamp(
            BaselineConfig(method="newsamp", eta=1.0, t_max=3, b=15, m=2, seed=5), cfg, data, x0
        ),
        "lissa": lambda cfg, data, x0: run_lissa(
            BaselineConfig(method="lissa", eta=1.0, t_max=2, inner_steps=10, s1=2, seed=6), cfg, data, x0
        ),
    }

    @pytest.mark.parametrize("method", sorted(RUNS))
    def test_csr_solve_agrees_with_dense(self, monkeypatch, method):
        cfg, dense, csr = both_formats(n=40, d=8, seed=9)
        x0 = np.zeros(dense.dim)
        x_dense, trace_dense = self.RUNS[method](cfg, dense, x0)
        refuse_dense_view(monkeypatch)
        x_csr, trace_csr = self.RUNS[method](cfg, csr, x0)
        assert len(trace_csr) == len(trace_dense)
        np.testing.assert_allclose(x_csr, x_dense, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose([r.loss for r in trace_csr], [r.loss for r in trace_dense], rtol=1e-9)


def test_features_that_store_nothing():
    ds = Dataset(features=sparse.csr_array((4, 8)), labels=np.array([1.0, -1.0, 1.0, -1.0]))
    normalized, zero_rows = normalize_rows(ds)
    assert zero_rows == 4 and normalized.stored == 0
    cfg = ObjectiveConfig("logistic", reg_a=0.1)
    for runner in TestSolversNeverDensify.RUNS.values():
        x, trace = runner(cfg, normalized, np.ones(8))
        assert np.isfinite(x).all() and len(trace) > 0


def test_dense_paths_never_import_scipy():
    # Importing scipy.sparse costs ~20 MB of resident memory; dense data must not pay it.
    script = (
        "import sys\n"
        "import numpy as np\n"
        "import spanopt\n"
        "from spanopt import ANALYTIC, BaselineConfig, ObjectiveConfig, SpanConfig\n"
        "from spanopt import run_newsamp, run_span, run_svrg\n"
        "from spanopt.datasets import synth_classification, synth_quadratic\n"
        "data = synth_classification(200, 10, seed=1)\n"
        "objective = ObjectiveConfig('logistic', reg_a=1e-3)\n"
        "x0 = np.zeros(10)\n"
        "run_span(SpanConfig(t_max=3, m=2, l=6, q=1, b=50), objective, data, x0)\n"
        "run_svrg(BaselineConfig(method='svrg', eta=0.5, t_max=2, b=5), objective, data, x0)\n"
        "run_newsamp(BaselineConfig(method='newsamp', eta=1.0, t_max=2, b=50, m=3), objective, data, x0)\n"
        "quadratic, _ = synth_quadratic(np.linspace(5.0, 1.0, 12))\n"
        "run_span(SpanConfig(t_max=3, m=1, l=5, q=1, b=1, hvp_mode=ANALYTIC), quadratic, None, np.ones(12))\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
