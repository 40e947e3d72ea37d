"""Reference-optimizer contracts: gd, svrg, newsamp, lissa, and the step loop they share with span."""


import numpy as np
import pytest
from scipy import sparse

from spanopt import (
    BaselineConfig,
    Dataset,
    ObjectiveConfig,
    SpanConfig,
    batch_gradient,
    batch_loss,
    run_gd,
    run_lissa,
    run_newsamp,
    run_span,
    run_svrg,
)
from spanopt import baselines, objectives
from spanopt.baselines import (
    lissa_hessian_scale,
    neumann_inverse_apply,
    newsamp_inverse,
)
from spanopt.datasets import synth_classification
from spanopt.errors import DivergingSeries, NonFiniteResult
from spanopt.linalg import sym_eig_small


def quadratic(spectrum):
    return ObjectiveConfig("quadratic", quadratic_spectrum=np.asarray(spectrum, dtype=float))


def overflowing_logistic():
    # With x0 = ones, the L2 term alone puts the gradient at 1e300 per entry.
    return ObjectiveConfig("logistic", reg_a=1e300), synth_classification(n=40, d=8, seed=0)


def toy_logistic(n=20, d=2, seed=0, reg=0.1):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    labels = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    return ObjectiveConfig("logistic", reg_a=reg), Dataset(features=x, labels=labels)


class TestBaselineConfig:
    # Under a NaN eta a run traced NaN; under a negative grad_tol its stop rule never fired.
    @pytest.mark.parametrize("eta", [-1.0, float("nan"), float("inf")], ids=["negative", "nan", "inf"])
    def test_eta_must_be_finite_and_non_negative(self, eta):
        with pytest.raises(ValueError, match="eta"):
            BaselineConfig(method="gd", eta=eta, t_max=3)

    @pytest.mark.parametrize("grad_tol", [-1.0, float("nan")], ids=["negative", "nan"])
    def test_grad_tol_must_be_non_negative(self, grad_tol):
        with pytest.raises(ValueError, match="grad_tol"):
            BaselineConfig(method="gd", eta=0.5, t_max=3, grad_tol=grad_tol)

    # A fractional t_max was accepted, and the run ended in a TypeError from range().
    @pytest.mark.parametrize("t_max", [2.5, -1, "3", float("nan")], ids=["fractional", "negative", "text", "nan"])
    def test_t_max_must_be_a_non_negative_integer(self, t_max):
        with pytest.raises(ValueError, match="t_max"):
            BaselineConfig(method="gd", eta=0.5, t_max=t_max)

    # A fractional size or count was accepted, and the run ended in a TypeError
    # from rng.choice or range().
    @pytest.mark.parametrize("field", ["b", "s1", "m", "inner_steps"])
    def test_sizes_and_counts_must_be_positive_integers(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be a positive integer"):
            BaselineConfig(method="newsamp", eta=0.5, t_max=2, **{"m": 2, field: 2.5})


    @pytest.mark.parametrize(
        "kwargs, message",
        [(dict(method="adam"), "unknown method 'adam'"), (dict(method="newsamp"), "newsamp needs")],
        ids=["unknown-method", "newsamp-without-rank"],
    )
    def test_method_and_rank_refused(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            BaselineConfig(eta=0.5, t_max=2, **kwargs)


class TestGradientDescent:
    def test_unit_curvature_one_step(self):
        cfg = BaselineConfig(method="gd", eta=1.0, t_max=1)
        x, trace = run_gd(cfg, quadratic([1.0]), None, np.array([5.0]))
        assert abs(x[0]) <= 1e-14
        assert len(trace) == 1

    def test_zero_step_leaves_x(self):
        cfg = BaselineConfig(method="gd", eta=0.0, t_max=3)
        x0 = np.array([1.0, 2.0])
        x, _ = run_gd(cfg, quadratic([1.0, 10.0]), None, x0)
        np.testing.assert_array_equal(x, x0)

    def test_stable_step_matches_closed_form(self):
        # x_t = (1 - eta * sigma)^t x_0 component-wise; loss decreases monotonically.
        spectrum = np.array([1.0, 10.0])
        eta = 0.19
        cfg = BaselineConfig(method="gd", eta=eta, t_max=20)
        x0 = np.array([1.0, 1.0])
        x, trace = run_gd(cfg, quadratic(spectrum), None, x0)
        expected = (1.0 - eta * spectrum) ** 20 * x0
        np.testing.assert_allclose(x, expected, rtol=1e-12)
        losses = [r.loss for r in trace]
        assert all(b < a for a, b in zip(losses, losses[1:]))

    @pytest.mark.parametrize("reg", [0.0, 0.3])
    def test_same_bits_as_the_plain_loop(self, reg):
        # Every iterate and every row are those of x <- x - eta * (s * x + a * x)
        # written out, with the loss 0.5 * x @ (s * x) + 0.5 * a * x @ x.
        rng = np.random.default_rng(24)
        s = rng.uniform(0.5, 5.0, size=50)
        objective = ObjectiveConfig("quadratic", reg_a=reg, quadratic_spectrum=s)
        eta = 0.15
        x = rng.standard_normal(50)
        got, trace = run_gd(BaselineConfig(method="gd", eta=eta, t_max=20), objective, None, x)
        for row in trace:
            x = x - eta * (s * x + reg * x)
            assert row.loss == 0.5 * float(x @ (s * x)) + 0.5 * reg * float(x @ x)
            assert row.grad_norm == float(np.linalg.norm(s * x + reg * x))
        assert len(trace) == 20
        assert got.tobytes() == x.tobytes()

    def test_zero_regularizer_whose_squared_norm_overflows(self):
        # The row read loss nan (0 * inf from reg_a * x @ x) and the run raised
        # NonFiniteResult at step 1; the loss is 1e300.
        objective = ObjectiveConfig("quadratic", reg_a=0.0, quadratic_spectrum=[1e-10, 1e-10])
        x0 = np.array([1e155, 1e155])
        x, trace = run_gd(BaselineConfig(method="gd", eta=0.0, t_max=1), objective, None, x0)
        np.testing.assert_array_equal(x, x0)
        assert trace[0].loss == pytest.approx(1e300, rel=1e-15)

    def test_positive_regularizer_whose_squared_norm_overflows_raises(self):
        objective = ObjectiveConfig("quadratic", reg_a=0.1, quadratic_spectrum=[1e-10, 1e-10])
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(NonFiniteResult, match="at step 1"):
                run_gd(BaselineConfig(method="gd", eta=0.0, t_max=1), objective, None, np.array([1e155, 1e155]))


class TestSvrg:
    @pytest.mark.parametrize("with_data", [False, True], ids=["no-data", "quadratic-with-data"])
    def test_needs_sampled_data(self, with_data):
        # A quadratic carries no samples, whatever dataset comes with it.
        _, data = toy_logistic(n=6, d=2)
        bl = BaselineConfig(method="svrg", eta=0.1, t_max=2, b=2)
        with pytest.raises(ValueError, match="svrg needs sampled data"):
            run_svrg(bl, quadratic([1.0, 2.0]), data if with_data else None, np.ones(2))

    def test_snapshot_identity_is_exact(self):
        cfg, data = toy_logistic()
        snapshot = np.array([0.3, -0.7])
        mu = batch_gradient(cfg, data, None, snapshot)
        # A run_svrg step's estimate, over the rows of one gathered batch.
        ((rows, labels),) = objectives.gather_batches(cfg, data, [np.array([2, 5, 11])])
        estimate = objectives.batch_gradient_difference(cfg, rows, labels, snapshot, snapshot) + mu
        np.testing.assert_array_equal(estimate, mu)  # bitwise

    def test_single_sample_dataset_reduces_to_gd(self):
        cfg = ObjectiveConfig("logistic", reg_a=0.2)
        data = Dataset(features=np.array([[0.6, 0.8]]), labels=np.array([1.0]))
        bl = BaselineConfig(method="svrg", eta=0.3, t_max=2, b=1, inner_steps=4, seed=1)
        x_svrg, _ = run_svrg(bl, cfg, data, np.zeros(2))
        x_gd = np.zeros(2)
        for _ in range(8):  # 2 epochs x 4 inner steps
            x_gd = x_gd - 0.3 * batch_gradient(cfg, data, None, x_gd)
        np.testing.assert_allclose(x_svrg, x_gd, atol=1e-12)

    def test_toy_logistic_converges_with_tuned_step(self):
        cfg, data = toy_logistic(n=20, d=2, seed=3)
        best = np.inf
        for eta in (0.1, 0.5, 1.0):
            bl = BaselineConfig(method="svrg", eta=eta, t_max=30, b=1, seed=5)
            _, trace = run_svrg(bl, cfg, data, np.zeros(2))
            best = min(best, trace[-1].grad_norm)
        assert best <= 1e-4

    def test_deterministic(self):
        cfg, data = toy_logistic(n=15, d=3, seed=4)
        bl = BaselineConfig(method="svrg", eta=0.5, t_max=3, b=2, seed=9)
        x1, t1 = run_svrg(bl, cfg, data, np.zeros(3))
        x2, t2 = run_svrg(bl, cfg, data, np.zeros(3))
        np.testing.assert_array_equal(x1, x2)
        assert [r.loss for r in t1] == [r.loss for r in t2]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverged_epoch_raises_without_warnings(self):
        # The iterate overflowed inside the epoch with numpy warnings, and the
        # next full-data pass ran on it.
        cfg, data = toy_logistic(n=15, d=3, seed=4, reg=1e300)
        bl = BaselineConfig(method="svrg", eta=0.5, t_max=3, b=2, seed=9)
        with pytest.raises(NonFiniteResult, match="epoch 1"):
            run_svrg(bl, cfg, data, np.ones(3))


class TestNewsamp:
    def test_truncated_inverse_diagonal_case(self):
        values = np.array([4.0, 2.0, 1.0])
        inv = newsamp_inverse(values, np.eye(3), m=1)
        np.testing.assert_allclose(inv, np.diag([0.25, 0.5, 0.5]), atol=1e-12)

    def test_full_rank_truncation_recovers_inverse(self):
        rng = np.random.default_rng(6)
        a = rng.standard_normal((6, 6))
        h = a @ a.T + 6.0 * np.eye(6)
        eig = sym_eig_small(h)
        inv = newsamp_inverse(eig.values, eig.vectors, m=5)
        np.testing.assert_allclose(inv @ h, np.eye(6), atol=1e-8)

    def test_formula_matches_dense_inverse_of_regularized_matrix(self):
        rng = np.random.default_rng(7)
        for d, m in ((10, 3), (25, 6), (50, 12)):
            a = rng.standard_normal((d, d))
            h = a @ a.T / d + 0.5 * np.eye(d)
            eig = sym_eig_small(h)
            inv = newsamp_inverse(eig.values, eig.vectors, m)
            top = eig.vectors[:, :m]
            regularized = (
                top @ np.diag(eig.values[:m]) @ top.T
                + eig.values[m] * (np.eye(d) - top @ top.T)
            )
            np.testing.assert_allclose(inv @ regularized, np.eye(d), atol=1e-8)

    def test_one_step_exact_newton_with_full_rank(self):
        spectrum = np.array([4.0, 2.0, 1.0])
        cfg = BaselineConfig(method="newsamp", eta=1.0, t_max=1, m=2)
        x, _ = run_newsamp(cfg, quadratic(spectrum), None, np.array([1.0, -2.0, 3.0]))
        assert np.linalg.norm(x) <= 1e-10

    def test_trace_records_flattening_eigenvalue(self):
        spectrum = np.array([4.0, 2.0, 1.0])
        cfg = BaselineConfig(method="newsamp", eta=0.5, t_max=2, m=1)
        _, trace = run_newsamp(cfg, quadratic(spectrum), None, np.ones(3))
        assert trace[0].lambda_used == pytest.approx(2.0, abs=1e-10)


class TestLissa:
    def test_quadratic_ignores_a_dataset(self):
        # A quadratic's Hessian products take the full operator, with or without a dataset.
        _, data = toy_logistic(n=6, d=3)
        objective = quadratic([2.0, 1.0, 0.5])
        bl = BaselineConfig(method="lissa", eta=1.0, t_max=3, s1=2, inner_steps=10, seed=6)
        x_alone, alone = run_lissa(bl, objective, None, np.ones(3))
        x_data, with_data = run_lissa(bl, objective, data, np.ones(3))
        np.testing.assert_array_equal(x_alone, x_data)
        assert [r._replace(wall_clock_s=0.0) for r in alone] == [
            r._replace(wall_clock_s=0.0) for r in with_data
        ]

    def test_geometric_closed_form_on_half_identity(self):
        # H = 0.5 I: after j steps the estimate is (2 - 2 * 0.5^(j+1)) g.
        g = np.array([1.0, -2.0, 0.5])
        apply_h = lambda u: 0.5 * u
        for j in (0, 1, 5, 20):
            estimate = neumann_inverse_apply(apply_h, g, depth=j)
            expected = (2.0 - 2.0 * 0.5 ** (j + 1)) * g
            np.testing.assert_allclose(estimate, expected, atol=1e-10)

    def test_depth_zero_is_gradient(self):
        g = np.array([3.0, 4.0])
        np.testing.assert_array_equal(neumann_inverse_apply(lambda u: 0.9 * u, g, depth=0), g)

    def test_linear_convergence_rate_is_one_minus_h(self):
        h = np.diag([0.3, 0.5, 0.8])
        g = np.array([1.0, 1.0, 1.0])
        target = np.linalg.solve(h, g)
        rate = np.linalg.norm(np.eye(3) - h, ord=2)  # 0.7
        errors = [
            np.linalg.norm(neumann_inverse_apply(lambda u: h @ u, g, depth=j) - target)
            for j in (0, 5, 10, 15)
        ]
        assert all(b < a for a, b in zip(errors, errors[1:]))
        for step, (a, b) in zip((5, 5, 5), zip(errors, errors[1:])):
            assert b <= a * (rate**step) * 1.5

    def test_diverging_series_raises(self):
        with pytest.raises(DivergingSeries):
            neumann_inverse_apply(lambda u: 3.0 * u, np.ones(2), depth=100)

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_operator_raises(self, value):
        with pytest.raises(DivergingSeries):
            neumann_inverse_apply(lambda u: np.full_like(u, value), np.ones(2), depth=3)

    def test_direction_matches_dense_solve_on_quadratic(self):
        spectrum = np.array([0.2, 0.35, 0.5, 0.7, 0.9])
        objective = quadratic(spectrum)
        x0 = np.array([1.0, -1.0, 2.0, 0.5, -0.3])
        g = batch_gradient(objective, None, None, x0)
        target = g / spectrum
        rel_errs = []
        for seed in range(50):
            cfg = BaselineConfig(method="lissa", eta=1.0, t_max=1, s1=8, inner_steps=200, seed=seed)
            x1, _ = run_lissa(cfg, objective, None, x0.copy())
            direction = (x0 - x1) / cfg.eta
            rel_errs.append(np.linalg.norm(direction - target) / np.linalg.norm(target))
        assert np.median(rel_errs) <= 0.05

    def test_scale_probe_pads_spectral_norm(self):
        objective = quadratic([0.5, 2.0])
        scale = lissa_hessian_scale(objective, None, np.zeros(2), seed=3)
        assert scale == pytest.approx(2.5, rel=1e-4)

    def test_scale_probe_overflow_is_not_zero_curvature(self):
        # reg_a = 1e300 gives a Hessian of norm ~1e300, whose power-iteration
        # estimate overflows; that is a non-finite result, not a flat objective.
        objective = ObjectiveConfig("quadratic", reg_a=1e300, quadratic_spectrum=np.array([0.5, 2.0]))
        with pytest.raises(NonFiniteResult):
            lissa_hessian_scale(objective, None, np.zeros(2), seed=3)

    def test_stochastic_run_converges_on_logistic(self):
        cfg, data = toy_logistic(n=30, d=3, seed=8, reg=0.3)
        bl = BaselineConfig(method="lissa", eta=1.0, t_max=15, s1=4, inner_steps=60, seed=2)
        _, trace = run_lissa(bl, cfg, data, np.zeros(3))
        assert trace[-1].grad_norm < trace[0].grad_norm * 0.1

    def test_deterministic(self):
        cfg, data = toy_logistic(n=12, d=3, seed=9, reg=0.2)
        bl = BaselineConfig(method="lissa", eta=0.8, t_max=3, s1=2, inner_steps=20, seed=21)
        x1, t1 = run_lissa(bl, cfg, data, np.zeros(3))
        x2, t2 = run_lissa(bl, cfg, data, np.zeros(3))
        np.testing.assert_array_equal(x1, x2)
        assert [r.loss for r in t1] == [r.loss for r in t2]


def drawn_one_batch_at_a_time(n, b, count, rng):
    """The draw that svrg and lissa made before runs came from one call: a sample_batch per batch."""
    return np.array([objectives.sample_batch(n, b, rng) for _ in range(count)], dtype=np.int64).reshape(count, b)


class TestDrawStreams:
    """Which traces drawing a run of batches per generator call left unchanged."""

    @staticmethod
    def problem(storage):
        cfg, data = toy_logistic(n=30, d=4, seed=6, reg=0.2)
        if storage == "csr":
            features = np.where(np.abs(data.features) < 0.3, 0.0, data.features)
            data = Dataset(features=sparse.csr_array(features), labels=data.labels)
        return cfg, data

    @staticmethod
    def runs(monkeypatch, storage, method, **settings):
        cfg, data = TestDrawStreams.problem(storage)
        bl = BaselineConfig(method=method, seed=11, **settings)
        run = {"svrg": run_svrg, "lissa": run_lissa}[method]
        now = run(bl, cfg, data, np.zeros(4))
        with monkeypatch.context() as patch:
            patch.setattr(baselines, "sample_batches", drawn_one_batch_at_a_time)
            before = run(bl, cfg, data, np.zeros(4))
        return now, before

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    @pytest.mark.parametrize(
        "method,settings",
        [("svrg", dict(eta=0.3, t_max=3, b=1)), ("lissa", dict(eta=1.0, t_max=3, s1=2, inner_steps=20))],
        ids=["svrg-b1", "lissa"],
    )
    def test_single_index_streams_keep_their_bits(self, monkeypatch, storage, method, settings):
        (x_now, trace_now), (x_before, trace_before) = self.runs(monkeypatch, storage, method, **settings)
        np.testing.assert_array_equal(x_now, x_before)
        assert [r._replace(wall_clock_s=0.0) for r in trace_now] == [r._replace(wall_clock_s=0.0) for r in trace_before]

    def test_single_index_svrg_makes_no_per_batch_draw(self, monkeypatch):
        calls = []

        def counted(n, b, rng):
            calls.append(b)
            return objectives.sample_batch(n, b, rng)

        monkeypatch.setattr(objectives, "sample_batch", counted)
        cfg, data = self.problem("dense")
        run_svrg(BaselineConfig(method="svrg", eta=0.3, t_max=3, b=1, seed=11), cfg, data, np.zeros(4))
        assert calls == []

    def test_svrg_draws_each_epoch_in_one_call(self, monkeypatch):
        # At b = 3 of n = 30 about one row in ten repeats an index and is redrawn.
        drawn = []

        def recorded(n, b, count, rng):
            drawn.append(objectives.sample_batches(n, b, count, rng))
            return drawn[-1]

        monkeypatch.setattr(baselines, "sample_batches", recorded)
        cfg, data = self.problem("dense")
        _, trace = run_svrg(BaselineConfig(method="svrg", eta=0.3, t_max=3, b=3, seed=11), cfg, data, np.zeros(4))
        assert len(drawn) == len(trace) == 3
        for batches in drawn:
            assert batches.shape == (10, 3) and batches.dtype == np.int64
            assert np.all(np.diff(batches, axis=1) > 0)
            assert batches.min() >= 0 and batches.max() < 30


# Every method's runner, and its settings for the shared-contract runs on a
# toy logistic problem of dimension 4 (span's sketch width l = 4 needs d >= 4).
RUNNERS = {"span": run_span, "gd": run_gd, "svrg": run_svrg, "newsamp": run_newsamp, "lissa": run_lissa}
SETTINGS = {
    "span": dict(eta=1.0, m=0, l=4, q=1, b=12),
    "gd": dict(eta=0.5),
    "svrg": dict(eta=0.3, b=3, inner_steps=4),
    "newsamp": dict(eta=1.0, m=1, b=12),
    "lissa": dict(eta=1.0, s1=2, inner_steps=20),
}


def method_config(method, **kwargs):
    if method == "span":
        return SpanConfig(**SETTINGS[method], **kwargs)
    return BaselineConfig(method=method, **SETTINGS[method], **kwargs)


class TestSharedTraceContract:
    def test_wall_clock_non_decreasing_everywhere(self):
        cfg, data = toy_logistic(n=10, d=4, seed=10)
        for method, runner in RUNNERS.items():
            _, trace = runner(method_config(method, t_max=4, seed=0), cfg, data, np.zeros(4))
            stamps = [r.wall_clock_s for r in trace]
            assert all(b >= a for a, b in zip(stamps, stamps[1:])), method
            assert [r.iteration for r in trace] == [1, 2, 3, 4], method

    def test_one_full_gradient_per_iteration(self, monkeypatch):
        # The gradient at each new iterate comes with its loss and is carried
        # into the next step (svrg's snapshot gradient included), so a T-step
        # solve makes T + 1 full-data gradients: one per row and the start.
        cfg, data = toy_logistic(n=30, d=4, seed=11)
        full = []
        real = objectives._gradient

        def counting(objective, rows, *rest):
            full.append(rows is data.features)
            return real(objective, rows, *rest)

        monkeypatch.setattr(objectives, "_gradient", counting)
        for method, runner in RUNNERS.items():
            full.clear()
            _, trace = runner(method_config(method, t_max=5, seed=2), cfg, data, np.zeros(4))
            assert len(trace) == 5, method
            assert sum(full) == 6, method

    @pytest.mark.parametrize("method", ["gd", "svrg", "newsamp", "lissa", "span"])
    def test_rows_equal_fresh_loss_and_gradient(self, method):
        # Each row's loss and gradient norm are those of batch_loss and
        # batch_gradient at the iterate the row reports, bit for bit.
        cfg, data = toy_logistic(n=24, d=4, seed=12)
        for t_max in (1, 2, 3):
            x, trace = RUNNERS[method](method_config(method, t_max=t_max, seed=4), cfg, data, np.zeros(4))
            assert trace[-1].loss == batch_loss(cfg, data, None, x)
            assert trace[-1].grad_norm == float(np.linalg.norm(batch_gradient(cfg, data, None, x)))

    def test_diverging_step_raises(self):
        # gd's first iterate overflows: the run wrote rows (inf, inf), then
        # (nan, nan), and returned normally.  The step's own numpy warnings print.
        cfg, data = overflowing_logistic()
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(NonFiniteResult, match="at step 1"):
                run_gd(BaselineConfig(method="gd", eta=0.5, t_max=3), cfg, data, np.ones(8))

    def test_grad_norm_whose_square_overflows(self):
        # newsamp's first iterate has a finite gradient whose sum of squares
        # overflows; its row read grad_norm = inf beside a finite loss.
        cfg, data = overflowing_logistic()
        bl = BaselineConfig(method="newsamp", eta=1.0, t_max=1, m=2, seed=0)
        with pytest.warns(RuntimeWarning, match="overflow encountered in dot"):
            x, trace = run_newsamp(bl, cfg, data, np.ones(8))
        g = batch_gradient(cfg, data, None, x)
        peak = np.abs(g).max()
        assert np.isfinite(trace[0].loss) and np.isfinite(trace[0].grad_norm)
        assert trace[0].grad_norm == peak * np.linalg.norm(g / peak)

    @pytest.mark.parametrize("method", ["span", "gd", "svrg", "newsamp", "lissa"])
    def test_grad_tol_stops_early(self, method):
        # A run with grad_tol stops at the first row whose gradient norm is at
        # most the tolerance, and its rows up to there are those of the run
        # without one, apart from the wall clock.
        cfg, data = toy_logistic(n=24, d=4, seed=12)
        runner = RUNNERS[method]
        _, full = runner(method_config(method, t_max=8, seed=5), cfg, data, np.zeros(4))
        tol = full[2].grad_norm
        stop = next(i for i, r in enumerate(full) if r.grad_norm <= tol)
        x, trace = runner(method_config(method, t_max=8, seed=5, grad_tol=tol), cfg, data, np.zeros(4))
        assert len(trace) == stop + 1
        assert [r._replace(wall_clock_s=0.0) for r in trace] == [
            r._replace(wall_clock_s=0.0) for r in full[: stop + 1]
        ]
        assert trace[-1].loss == batch_loss(cfg, data, None, x)
