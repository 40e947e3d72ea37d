"""CSR features: agreement with dense storage, and scipy kept off the dense paths."""

import collections
import copy
import dataclasses
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
    loss_and_gradient,
    run_lissa,
    run_newsamp,
    run_span,
    run_svrg,
)
from spanopt import baselines, objectives
from spanopt.datasets import load_libsvm, normalize_rows, to_binary_dataset
from spanopt.errors import DimensionTooLarge
from spanopt.objectives import (
    _batch_rows,
    _margin_derivative,
    _pass,
    batch_gradient_difference,
    gathered_batches,
    sample_batches,
)

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
    dense = Dataset(features=csr.features, labels=csr.labels)
    return ObjectiveConfig(loss, reg_a=reg), dense, csr


def labels_for(n, seed):
    return np.where(np.random.default_rng(seed + 100).random(n) < 0.5, 1.0, -1.0)


def close(a, b):
    np.testing.assert_allclose(a, b, rtol=RTOL, atol=1e-15)


class TestStorage:
    def test_csr_stays_csr_and_dense_view_matches(self):
        matrix = sparse_features(9, 4, seed=1)
        ds = Dataset(features=matrix, labels=labels_for(9, 1))
        assert sparse.issparse(ds.signed_rows) and ds.signed_rows.format == "csr"
        assert ds.n_samples == 9 and ds.dim == 4 and ds.stored == matrix.nnz
        np.testing.assert_array_equal(ds.features, matrix.toarray())

    def test_dense_features_are_the_stored_matrix(self):
        features = np.ones((3, 2))
        ds = Dataset(features=features, labels=np.ones(3))
        assert ds.features.tobytes() == ds.signed_rows.tobytes() and ds.stored == 6

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
        assert sparse.issparse(ds.signed_rows)
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
        assert sparse.issparse(from_csr.signed_rows)
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
        loss_csr, grad_csr = loss_and_gradient(cfg, csr, x, batch)
        loss_dense, grad_dense = loss_and_gradient(cfg, dense, x, batch)
        close(loss_csr, loss_dense)
        close(grad_csr, grad_dense)

    def test_batch_gather_is_the_dense_rows(self):
        cfg, dense, csr = both_formats()
        batch = np.array([1, 3, 8, 20])
        rows = _batch_rows(cfg, csr, batch)
        np.testing.assert_array_equal(rows.toarray(), dense.signed_rows[batch])

    def test_gathered_batches_take_the_dense_products(self):
        cfg, dense, csr = both_formats()
        batches = np.array([[0, 3, 5], [2, 3, 29]])
        x = np.random.default_rng(6).standard_normal((dense.dim, 2))
        for (rows,), (dense_rows,), batch in zip(
            gathered_batches(cfg, csr, batches), gathered_batches(cfg, dense, batches), batches
        ):
            np.testing.assert_array_equal(dense_rows, dense.labels[batch][:, None] * dense.features[batch])
            assert rows.shape == dense_rows.shape
            close(rows @ x[:, 0], dense_rows @ x[:, 0])
            y = np.arange(1.0, batch.size + 1)
            close(y @ rows, dense_rows.T @ y)

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


def stores_nothing_in_some_rows_and_columns(n, d, seed):
    """A random CSR dataset whose row 0, where n > 1, and column 0, where d > 1, store nothing."""
    matrix = sparse_features(n, d, seed, density=0.6, empty_rows=(0,) if n > 1 else ()).toarray()
    if d > 1:
        matrix[:, 0] = 0.0
    matrix[-1, -1] = 1.5  # so the matrix stores something
    return Dataset(features=sparse.csr_array(matrix), labels=labels_for(n, seed))


class TestStoredTranspose:
    """A CSR dataset's full-data products ``rows.T @ y`` go through one stored CSR transpose."""

    @pytest.mark.parametrize("n, d", [(40, 9), (1, 6), (25, 1)], ids=["random", "n=1", "d=1"])
    @pytest.mark.parametrize("loss", ["logistic", "huber_svm"])
    def test_full_gradients_are_the_transposed_product_bit_for_bit(self, n, d, loss):
        data = stores_nothing_in_some_rows_and_columns(n, d, seed=n + d)
        cfg = ObjectiveConfig(loss, reg_a=0.05)
        x = np.random.default_rng(3).standard_normal(d)
        y = _margin_derivative(cfg, data.signed_rows @ x)
        expected = data.signed_rows.T @ y  # scipy's product on the transposed view
        expected /= n
        expected += cfg.reg_a * x
        assert loss_and_gradient(cfg, data, x)[1].tobytes() == expected.tobytes()
        assert data.transposed.format == "csr"
        np.testing.assert_array_equal(data.transposed.toarray(), data.signed_rows.toarray().T)

    def test_passes_and_methods_reuse_one_transpose(self):
        cfg, _, data = both_formats(n=40, d=8, seed=9)
        x0 = np.zeros(data.dim)
        loss_and_gradient(cfg, data, x0)
        transposed = data.transposed
        loss_and_gradient(cfg, data, np.ones(data.dim))
        TestSolversNeverDensify.RUNS["span"](cfg, data, x0)
        TestSolversNeverDensify.RUNS["svrg"](cfg, data, x0)
        assert data.transposed is transposed

    def test_dense_data_build_none(self):
        cfg, data, _ = both_formats(n=40, d=8, seed=9)
        x0 = np.zeros(data.dim)
        loss_and_gradient(cfg, data, x0)
        TestSolversNeverDensify.RUNS["span"](cfg, data, x0)
        assert vars(data).keys() == {"signed_rows", "labels"}
        assert data.transposed.base is data.signed_rows

    def test_the_transpose_is_no_field_and_takes_no_part_in_equality(self):
        _, _, data = both_formats()
        bare = copy.copy(data)
        data.transposed  # built and kept on ``data`` alone
        assert [f.name for f in dataclasses.fields(data)] == ["signed_rows", "labels"]
        assert "_transposed" in vars(data) and "_transposed" not in vars(bare)
        assert data == bare and bare == data
        assert repr(data) == repr(bare)


class TestGatheredBatches:
    """The walk svrg and lissa take over their drawn batches, a run of batches gathered at a time."""

    @staticmethod
    def walk_data(storage):
        cfg, dense, csr = both_formats(n=30, d=7, seed=2)
        if storage == "dense":
            return cfg, dense
        if storage == "csr":
            return cfg, csr
        # Rows 0-3 store nothing, and the first batch takes only those.
        features = sparse_features(30, 7, seed=2, empty_rows=(0, 1, 2, 3))
        return cfg, Dataset(features=features, labels=labels_for(30, 2))

    @pytest.mark.parametrize(
        "storage, b",
        [("dense", 1), ("dense", 3), ("dense", 30), ("csr", 1), ("csr", 3), ("csr", 30)]
        + [("csr-first-batch-empty", 1), ("csr-first-batch-empty", 3)],
    )
    @pytest.mark.parametrize("runs", [0, 1, 2])
    def test_each_batch_is_its_own_gather(self, storage, b, runs):
        cfg, data = self.walk_data(storage)
        per_row = -(-data.stored // data.n_samples)
        count = 0 if runs == 0 else (runs - 1) * (objectives._GATHER_ENTRIES // (b * per_row)) + 2
        rng = np.random.default_rng(b)
        indices = sample_batches(30, b, count, rng)
        if storage == "csr-first-batch-empty" and count:
            indices[0] = np.arange(b)
        per_sample = (1.5 * np.arange(30), rng.standard_normal(30))
        walked = list(gathered_batches(cfg, data, indices, *per_sample))
        assert len(walked) == count
        for (rows, *entries), batch in zip(walked, indices):
            expected_rows = _batch_rows(cfg, data, batch)
            for got, values in zip(entries, per_sample):
                np.testing.assert_array_equal(got, values[batch])
            assert rows.shape == expected_rows.shape
            r, y = rng.standard_normal(data.dim), rng.standard_normal(b)
            assert (rows @ r).tobytes() == (expected_rows @ r).tobytes()
            assert (y @ rows).tobytes() == (expected_rows.T @ y).tobytes()
        if storage == "csr-first-batch-empty" and count:
            assert walked[0][0].values.size == 0 and walked[1][0].values.size > 0

    @pytest.mark.parametrize("storage", ["dense", "csr", "csr-first-batch-empty"])
    def test_rows_are_the_datasets_signed_rows(self, storage):
        cfg, data = self.walk_data(storage)
        signed = data.signed_rows
        stored = [signed] if storage == "dense" else [signed.data, signed.indices, signed.indptr]
        before = [a.tobytes() for a in (*stored, data.labels)]
        for indices in (np.array([[0, 1, 2], [3, 9, 29], [4, 11, 12]]), np.arange(30)[None]):
            for (rows,), batch in zip(gathered_batches(cfg, data, indices), indices):
                if storage == "dense":
                    assert rows.tobytes() == signed[batch].tobytes()
                else:
                    expected = signed[batch].tocoo()
                    assert rows.rows.tolist() == expected.row.tolist() and rows.cols.tolist() == expected.col.tolist()
                    assert rows.values.tobytes() == expected.data.tobytes()
                if storage == "csr-first-batch-empty" and batch[-1] < 4:
                    assert rows.values.size == 0
        assert [a.tobytes() for a in (*stored, data.labels)] == before

    @pytest.mark.parametrize(
        "features",
        [
            np.ones((30, 7)),
            np.ones((30, 600)),  # a batch of 30 rows alone holds 18000 entries
            sparse.csr_array((np.ones(60), np.tile([1, 40], 30), np.arange(0, 61, 2)), shape=(30, 50)),
        ],
        ids=["dense", "dense-wide", "csr-two-per-row"],
    )
    @pytest.mark.parametrize("b", [1, 3, 30])
    def test_no_gather_exceeds_the_entry_budget(self, monkeypatch, features, b):
        cfg = ObjectiveConfig("logistic")
        data = Dataset(features=features, labels=labels_for(30, 0))
        gather, gathers = objectives._batch_rows, []

        def recorded(cfg, data, indices):
            rows = gather(cfg, data, indices)
            gathers.append((rows.shape[0], int(rows.size)))
            return rows

        monkeypatch.setattr(objectives, "_batch_rows", recorded)
        indices = sample_batches(30, b, 20000, np.random.default_rng(0))
        assert sum(1 for _ in gathered_batches(cfg, data, indices)) == 20000
        assert sum(rows for rows, _ in gathers) == 20000 * b and len(gathers) > 1
        per_batch = b * data.stored // 30
        for rows, entries in gathers:
            assert entries <= objectives._GATHER_ENTRIES or rows == b
        for _, entries in gathers[:-1]:  # each run takes as many batches as fit
            assert entries + per_batch > objectives._GATHER_ENTRIES


class TestSvrg:
    @staticmethod
    def estimate(cfg, data, batch, w, snapshot, mu):
        """What a run_svrg step moves along, over its batch's rows from gathered_batches.

        The snapshot's margins are those of the step bracket's full-data pass.
        """
        margins = _pass(cfg, data, None, snapshot)[2]
        derivatives = _margin_derivative(cfg, margins)
        ((rows,),) = gathered_batches(cfg, data, batch[None])
        return batch_gradient_difference(cfg, rows, w - snapshot, margins[batch], derivatives[batch]) + mu

    def test_snapshot_identity_is_exact_on_csr(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            cfg, _, csr = both_formats(n=25, d=6, seed=seed, loss=("logistic", "huber_svm")[seed % 2])
            snapshot = rng.standard_normal(csr.dim)
            mu = loss_and_gradient(cfg, csr, snapshot)[1]
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
            mu = loss_and_gradient(cfg, data, snapshot)[1]
            batch = np.sort(rng.choice(n, size=1 + seed % 5, replace=False))
            np.testing.assert_array_equal(self.estimate(cfg, data, batch, snapshot, snapshot, mu), mu)

    def test_estimate_is_the_gradient_difference(self):
        cfg, dense, csr = both_formats(seed=8)
        rng = np.random.default_rng(8)
        w, snapshot = rng.standard_normal((2, dense.dim))
        mu = loss_and_gradient(cfg, dense, snapshot)[1]
        batch = np.array([2, 5, 6, 18])
        expected = loss_and_gradient(cfg, dense, w, batch)[1] - loss_and_gradient(cfg, dense, snapshot, batch)[1] + mu
        close(self.estimate(cfg, dense, batch, w, snapshot, mu), expected)
        close(self.estimate(cfg, csr, batch, w, snapshot, mu), expected)

    @pytest.mark.parametrize("loss", ["logistic", "huber_svm"])
    @pytest.mark.parametrize("storage", ["dense", "csr"])
    @pytest.mark.parametrize(
        "batch",
        [[5], [0, 9], [1, 4, 8, 13, 21, 40], list(range(60)), [3]],
        ids=["b1", "b2", "b6", "all-rows", "row-that-stores-nothing"],
    )
    def test_snapshot_identity_is_exact(self, loss, storage, batch):
        # At 60 x 20 the dense full product and a batch's own product differ in
        # the last bit on some of these batches: a step that took w's margins
        # from the batch rows and the snapshot's from the full pass fails here.
        cfg, dense, csr = both_formats(n=60, d=20, seed=11, loss=loss)
        data = dense if storage == "dense" else csr
        for seed in range(10):
            snapshot = 3.0 * np.random.default_rng(seed).standard_normal(data.dim)
            mu = loss_and_gradient(cfg, data, snapshot)[1]
            np.testing.assert_array_equal(self.estimate(cfg, data, np.array(batch), snapshot, snapshot, mu), mu)

    @pytest.mark.parametrize("loss", ["logistic", "huber_svm"])
    def test_run_matches_a_loop_of_two_batch_gradients(self, loss, monkeypatch):
        cfg, dense, csr = both_formats(seed=12, loss=loss)
        bl = BaselineConfig(method="svrg", eta=0.5, t_max=3, b=4, seed=13)
        x0 = np.full(dense.dim, 0.2)
        draw, drawn = baselines.sample_batches, []

        def recorded(n, b, count, rng):
            drawn.append(draw(n, b, count, rng))
            return drawn[-1]

        monkeypatch.setattr(baselines, "sample_batches", recorded)
        runs = [run_svrg(bl, cfg, data, x0)[0] for data in (dense, csr)]
        assert len(drawn) == 6 and all(np.array_equal(a, c) for a, c in zip(drawn[:3], drawn[3:]))
        w = x0
        for batches in drawn[:3]:
            snapshot, mu = w, loss_and_gradient(cfg, dense, w)[1]
            for batch in batches:
                change = loss_and_gradient(cfg, dense, w, batch)[1] - loss_and_gradient(cfg, dense, snapshot, batch)[1]
                w = w - bl.eta * (change + mu)
        for x in runs:
            assert np.linalg.norm(x - w) <= 1e-12 * np.linalg.norm(w)

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_one_product_each_way_per_step_and_one_full_product_per_epoch(self, storage, monkeypatch):
        cfg, dense, csr = both_formats()
        (n, d), b, steps, epochs = dense.signed_rows.shape, 3, 5, 2
        products, coordinates_product = [], objectives._Coordinates.__matmul__
        coordinates_transposed_product = objectives._Coordinates.__rmatmul__

        class Counting(np.ndarray):
            """Dense rows that log each product they take part in, by shapes, as ``rows @ x`` or ``rows.T @ y``."""

            def __matmul__(self, other):
                products.append((self.shape, np.shape(other)))
                return np.asarray(self) @ other

            def __rmatmul__(self, other):  # y @ rows, the product rows.T @ y
                products.append((self.shape[::-1], np.shape(other)))
                return other @ np.asarray(self)

        def counted(coordinates, x):
            products.append((coordinates.shape, x.shape))
            return coordinates_product(coordinates, x)

        def counted_transposed(coordinates, y):  # y @ coordinates, the product coordinates.T @ y
            products.append((coordinates.shape[::-1], y.shape))
            return coordinates_transposed_product(coordinates, y)

        if storage == "dense":
            data = dense
            object.__setattr__(data, "signed_rows", data.signed_rows.view(Counting))
        else:
            data = csr
            monkeypatch.setattr(objectives._Coordinates, "__matmul__", counted)
            monkeypatch.setattr(objectives._Coordinates, "__rmatmul__", counted_transposed)
        bl = BaselineConfig(method="svrg", eta=0.5, t_max=epochs, b=b, inner_steps=steps, seed=14)
        run_svrg(bl, cfg, data, np.zeros(d))
        expected = {((b, d), (d,)): epochs * steps, ((d, b), (b,)): epochs * steps}
        if storage == "dense":
            # The step bracket's full passes (one at the start, one per epoch)
            # take one product each way; the snapshot reads its margins from them.
            expected.update({((n, d), (d,)): 1 + epochs, ((d, n), (n,)): 1 + epochs})
        assert collections.Counter(products) == expected


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

    def test_csr_svrg_agrees_with_dense_over_several_gather_runs(self, monkeypatch):
        # Dense and CSR rows cut an epoch into gather runs of different
        # lengths; the batches, some of whose rows are redrawn, must not move.
        cfg, dense, csr = both_formats(n=40, d=8, seed=9)
        bl = BaselineConfig(method="svrg", eta=0.05, t_max=2, b=5, inner_steps=1000, seed=4)
        assert bl.inner_steps * bl.b * dense.dim > 2 * objectives._GATHER_ENTRIES
        assert -(-csr.stored // csr.n_samples) < dense.dim  # so fewer, longer runs for CSR
        x0 = np.zeros(dense.dim)
        x_dense, trace_dense = run_svrg(bl, cfg, dense, x0)
        refuse_dense_view(monkeypatch)
        x_csr, trace_csr = run_svrg(bl, cfg, csr, x0)
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
