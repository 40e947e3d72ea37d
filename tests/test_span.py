"""Subspace construction, perturbed inverse, error probe, and the driver."""

import dataclasses

import numpy as np
import pytest

from spanopt import (
    ANALYTIC,
    CENTRAL_FD,
    BaselineConfig,
    BatchHessian,
    Dataset,
    ObjectiveConfig,
    SpanConfig,
    SpanState,
    apply_inverse,
    assemble_subspace,
    build_subspace,
    hessian_error_probe,
    loss_and_gradient,
    min_power_iterations,
    run_newsamp,
    run_span,
    span_step,
)
from spanopt import linalg, objectives
from spanopt import span as span_module
from spanopt.bench import build_method_config
from spanopt.datasets import synth_classification
from spanopt.errors import ConfigError, IndefiniteBlock, InvalidRankParams, RankDeficient, SingularSystem
from spanopt.span import _STREAM_SKETCH


def quadratic(spectrum):
    return ObjectiveConfig("quadratic", quadratic_spectrum=np.asarray(spectrum, dtype=float))


def explicit_perturbed_hessian(s, h):
    p = s.u @ s.u.T
    return p @ h @ p + s.lam * (np.eye(h.shape[0]) - p)


def newton_optimum(cfg, data, d, tol=1e-12):
    x = np.zeros(d)
    for _ in range(100):
        g = loss_and_gradient(cfg, data, x)[1]
        if np.linalg.norm(g) <= tol:
            break
        x = x - np.linalg.solve(BatchHessian.at(cfg, data, None, x, ANALYTIC).dense(), g)
    return x


def small_logistic(n=40, d=8, seed=1, reg=0.05):
    rng = np.random.default_rng(seed)
    feats = rng.standard_normal((n, d))
    feats /= np.linalg.norm(feats, axis=1, keepdims=True)
    data = Dataset(features=feats, labels=np.where(rng.random(n) < 0.5, 1.0, -1.0))
    return ObjectiveConfig("logistic", reg_a=reg), data


class TestBuildSubspace:
    def test_full_width_block_is_similar_to_hessian(self):
        cfg = quadratic([1.0, 2.0, 3.0, 4.0])
        s = build_subspace(BatchHessian.at(cfg, None, None, np.zeros(4), ANALYTIC), 4, 1, seed=2)
        np.testing.assert_allclose(s.block_eig.values, [4.0, 3.0, 2.0, 1.0], atol=1e-8)

    def test_isotropic_operator_safeguard(self):
        c = 2.0
        cfg = quadratic([c] * 6)
        s = build_subspace(BatchHessian.at(cfg, None, None, np.zeros(6), ANALYTIC), 3, 1, seed=1)
        assert s.lam == pytest.approx(c / 2, rel=1e-10)

    def test_safeguard_postcondition(self):
        rng = np.random.default_rng(0)
        for seed in range(10):
            d = 20
            spectrum = np.sort(rng.uniform(0.5, 8.0, size=d))[::-1]
            hessian = BatchHessian.at(quadratic(spectrum), None, None, np.zeros(d), ANALYTIC)
            s = build_subspace(hessian, 8, 1, seed=seed)
            assert s.lam == 0.5 * s.block_eig.values[-1]
            assert np.abs(s.u.T @ s.u - np.eye(8)).max() <= 1e-10
            # The eigenpairs are those of the symmetrized captured block.
            block = (hessian @ s.u).T @ s.u
            symmetrized = 0.5 * (block + block.T)
            v, w = s.block_eig.vectors, s.block_eig.values
            assert np.abs(v @ np.diag(w) @ v.T - symmetrized).max() <= 1e-12 * np.abs(symmetrized).max()

    @pytest.mark.parametrize("mode", [ANALYTIC, CENTRAL_FD], ids=["analytic", "finite-difference"])
    @pytest.mark.parametrize("m", [0, 1, 4], ids=["m=0", "m=1", "m=l-4"])
    def test_safeguard_is_half_the_smallest_block_eigenvalue(self, m, mode):
        # One rule whatever the rank target, for a fresh sketch and a carried
        # basis alike; by interlacing it is at most half of sigma_l(H_B).
        d, l = 20, 8
        objective = ObjectiveConfig("logistic", reg_a=1e-3)
        data = synth_classification(n=200, d=d, seed=m)
        rng = np.random.default_rng(m)
        for seed in range(4):
            batch = objectives.sample_batch(200, 80, rng)
            x = rng.standard_normal(d)
            hessian = BatchHessian.at(objective, data, batch, x, mode)
            fresh = build_subspace(hessian, l, 1, seed=seed)
            u = linalg.qr_orthonormal(hessian @ fresh.u)
            carried = assemble_subspace(u, hessian @ u)
            sigma = np.linalg.eigvalsh(BatchHessian.at(objective, data, batch, x, ANALYTIC).dense())[::-1]
            for s in (fresh, carried):
                assert s.lam == 0.5 * s.block_eig.values[-1]
                assert s.lam <= 0.5 * sigma[l - 1] * (1.0 + 1e-6)

    def test_indefinite_block_raises(self):
        u = np.eye(3)[:, :2]
        z = np.diag([-1.0, 2.0, 0.0])[:, :2]  # captured block diag(-1, 2)
        with pytest.raises(IndefiniteBlock):
            assemble_subspace(u, z)

    def test_ill_conditioned_block_raises(self):
        u = np.eye(3)[:, :2]
        with pytest.raises(SingularSystem):
            assemble_subspace(u, np.diag([1.0, 1e-13, 0.0])[:, :2])
        # An exactly singular block's zero eigenvalue may land on either side of 0.
        with pytest.raises(SingularSystem):
            assemble_subspace(np.eye(2), np.array([[1.0, 2.0], [2.0, 4.0]]))
        s = assemble_subspace(u, np.diag([1.0, 1e-6, 0.0])[:, :2])
        np.testing.assert_allclose(apply_inverse(s, np.array([1.0, 1.0, 0.0])), [1.0, 1e6, 0.0])


class TestApplyInverse:
    def test_full_rank_is_exact_newton_inverse(self):
        cfg = quadratic([2.0, 4.0])
        s = build_subspace(BatchHessian.at(cfg, None, None, np.zeros(2), ANALYTIC), 2, 1, seed=5)
        np.testing.assert_allclose(apply_inverse(s, np.array([1.0, 1.0])), [0.5, 0.25], atol=1e-10)

    def test_zero_gradient(self):
        cfg = quadratic([1.0, 2.0, 3.0])
        s = build_subspace(BatchHessian.at(cfg, None, None, np.zeros(3), ANALYTIC), 2, 1, seed=1)
        np.testing.assert_array_equal(apply_inverse(s, np.zeros(3)), np.zeros(3))

    def test_inverts_explicit_construction(self):
        spectrum = np.linspace(9.0, 1.0, 10)
        cfg = quadratic(spectrum)
        s = build_subspace(BatchHessian.at(cfg, None, None, np.zeros(10), ANALYTIC), 6, 2, seed=7)
        h_hat = explicit_perturbed_hessian(s, np.diag(spectrum))
        rng = np.random.default_rng(8)
        for _ in range(20):
            v = rng.standard_normal(10)
            np.testing.assert_allclose(apply_inverse(s, h_hat @ v), v, atol=1e-8 * np.linalg.norm(v))

    def test_spectrum_split(self):
        # The explicit construction has exactly l eigenvalues from the
        # captured block and d - l copies of lambda.
        d, l = 12, 5
        spectrum = np.linspace(6.0, 1.0, d)
        cfg = quadratic(spectrum)
        s = build_subspace(BatchHessian.at(cfg, None, None, np.zeros(d), ANALYTIC), l, 2, seed=3)
        h_hat = explicit_perturbed_hessian(s, np.diag(spectrum))
        eigs = np.sort(np.linalg.eigvalsh(h_hat))
        block_eigs = np.sort(s.block_eig.values)
        expected = np.sort(np.concatenate([block_eigs, np.full(d - l, s.lam)]))
        np.testing.assert_allclose(eigs, expected, atol=1e-8 * spectrum[0])


class TestHessianErrorProbe:
    def test_full_capture_is_exact(self):
        spectrum = np.linspace(5.0, 1.0, 8)
        cfg = quadratic(spectrum)
        hessian = BatchHessian.at(cfg, None, None, np.zeros(8), ANALYTIC)
        s = build_subspace(hessian, 8, 1, seed=2)
        err = hessian_error_probe(s, hessian, seed=1)
        assert err <= 1e-8

    def test_violated_safeguard_breaks_bound(self):
        # Setting lambda to sigma_1 blows the error past 3 sigma_{m+1},
        # demonstrating why the safeguard caps it.
        spectrum = np.array([100.0] + [1.0] * 11)
        cfg = quadratic(spectrum)
        hessian = BatchHessian.at(cfg, None, None, np.zeros(12), ANALYTIC)
        s = build_subspace(hessian, 6, 2, seed=3)
        sigma_m1 = spectrum[2]  # sigma_{m+1} at rank target m = 2
        good_err = hessian_error_probe(s, hessian, seed=1)
        assert good_err <= 3.0 * sigma_m1
        bad = dataclasses.replace(s, lam=float(spectrum[0]))
        bad_err = hessian_error_probe(bad, hessian, seed=1)
        assert bad_err > 3.0 * sigma_m1

    def test_probe_matches_dense_difference(self):
        spectrum = np.linspace(10.0, 1.0, 15)
        cfg = quadratic(spectrum)
        hessian = BatchHessian.at(cfg, None, None, np.zeros(15), ANALYTIC)
        s = build_subspace(hessian, 6, 2, seed=9)
        probed = hessian_error_probe(s, hessian, seed=5)
        dense = np.abs(
            np.linalg.eigvalsh(explicit_perturbed_hessian(s, np.diag(spectrum)) - np.diag(spectrum))
        ).max()
        assert probed == pytest.approx(dense, rel=1e-5)


    def test_finite_difference_probe_tracks_dense_oracle(self):
        # In finite-difference mode the probe runs symmetric power iteration
        # on an operator that is nonsymmetric at the finite-difference error
        # (~5e-9 of ||H_B|| here).  Its bias against the analytic probe stays
        # at that level, far inside the power iteration's own stopping error
        # against the dense oracle (~1e-5 relative at tol=1e-6).
        cfg, data = small_logistic(n=80, d=12, seed=4)
        rng = np.random.default_rng(4)
        for seed in range(4):
            x = rng.standard_normal(12)
            batch = np.sort(rng.choice(80, 40, replace=False))
            hessian = BatchHessian.at(cfg, data, batch, x, ANALYTIC)
            s = build_subspace(hessian, 6, 1, seed=seed)
            h = hessian.dense()
            dense = np.abs(np.linalg.eigvalsh(explicit_perturbed_hessian(s, h) - h)).max()
            fd = hessian_error_probe(s, BatchHessian.at(cfg, data, batch, x, CENTRAL_FD), seed=seed)
            analytic = hessian_error_probe(s, hessian, seed=seed)
            assert fd == pytest.approx(dense, rel=1e-4)
            assert fd == pytest.approx(analytic, rel=1e-7)


    def test_carried_basis_within_approximation_bound(self):
        # The bound of criterion 1 covers a fresh Gaussian sketch; after its
        # first step `run_span` carries its basis forward instead.  On the
        # same d=50 quadratic, every probed row of every seeded run stays
        # within 3 sigma_(m+1).
        d, m, l = 50, 10, 16
        spectrum = 1.0 + (50.0 - np.arange(1, d + 1)) / 5.0
        bound = 3.0 * spectrum[m]
        q = min_power_iterations(d, l, m)
        worst = 0.0
        for seed in range(20):
            span_cfg = SpanConfig(
                t_max=15, m=m, l=l, q=q, b=1, eta=1.0, seed=seed, hvp_mode=ANALYTIC, probe_hessian_error=True
            )
            _, trace = run_span(span_cfg, quadratic(spectrum), None, np.ones(d))
            assert len(trace) == 15
            worst = max(worst, *(record.hessian_err for record in trace))
        assert worst <= bound

    @pytest.mark.parametrize("mode", [ANALYTIC, CENTRAL_FD], ids=["analytic", "finite-difference"])
    def test_carried_basis_within_approximation_bound_logistic(self, monkeypatch, mode):
        # The logistic half: a logistic batch Hessian moves with the batch and
        # the iterate, so each step's bound is 3 sigma_(m+1) of its own batch
        # Hessian, read off the dense analytic matrix at the step's batch and x.
        built = []
        real = objectives.BatchHessian.at

        def recording(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(objectives.BatchHessian, "at", staticmethod(recording))
        d, m, l = 30, 4, 10
        objective = ObjectiveConfig("logistic", reg_a=1e-3)
        data = synth_classification(n=300, d=d, seed=0)
        q = min_power_iterations(d, l, m)
        for seed in range(10):
            span_cfg = SpanConfig(
                t_max=12, m=m, l=l, q=q, b=150, eta=1.0, seed=seed, hvp_mode=mode, probe_hessian_error=True
            )
            state = SpanState(x=np.zeros(d))
            for _ in range(12):
                built.clear()
                state, record = span_step(state, objective, data, span_cfg)
                (cfg, step_data, batch, x, _), = built
                sigma = np.linalg.eigvalsh(real(cfg, step_data, batch, x, ANALYTIC).dense())[::-1]
                assert record.hessian_err <= 3.0 * sigma[m]

    @pytest.mark.parametrize("mode", [ANALYTIC, CENTRAL_FD], ids=["analytic", "finite-difference"])
    def test_one_operator_per_probed_step(self, monkeypatch, mode):
        # The sketch, the captured block and the probe share one operator.
        built = []
        real = objectives.BatchHessian.at

        def counting(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(objectives.BatchHessian, "at", staticmethod(counting))
        cfg, data = small_logistic()
        span_cfg = SpanConfig(t_max=3, m=0, l=4, q=1, b=20, eta=0.5, seed=3, hvp_mode=mode, probe_hessian_error=True)
        state = SpanState(x=np.zeros(8))
        for t in range(3):
            state, record = span_step(state, cfg, data, span_cfg)
            assert len(built) == t + 1
            assert record.hessian_err is not None


class TestSpanStep:
    def test_one_step_exact_newton_full_width(self):
        d = 12
        cfg = quadratic(np.linspace(10.0, 1.0, d))
        span_cfg = SpanConfig(t_max=1, m=0, l=d, q=1, b=1, eta=1.0, seed=0, hvp_mode=ANALYTIC)
        x1, trace = run_span(span_cfg, cfg, None, np.arange(1.0, d + 1.0))
        assert np.linalg.norm(x1) <= 1e-8
        assert len(trace) == 1

    def test_zero_gradient_fixed_point(self):
        cfg = quadratic([2.0, 3.0])
        span_cfg = SpanConfig(t_max=1, m=0, l=2, q=1, b=1, eta=1.0, seed=0, hvp_mode=ANALYTIC)
        state = SpanState(x=np.zeros(2))
        new_state, _ = span_step(state, cfg, None, span_cfg)
        np.testing.assert_array_equal(new_state.x, np.zeros(2))

    def test_toy_logistic_matches_newton_oracle(self):
        feats = np.array([[1.0, 0.2], [-0.3, 1.0], [0.8, -0.5], [-1.0, -0.6]])
        feats /= np.linalg.norm(feats, axis=1, keepdims=True)
        data = Dataset(features=feats, labels=np.array([1.0, -1.0, 1.0, -1.0]))
        cfg = ObjectiveConfig("logistic", reg_a=0.3)
        x_star = newton_optimum(cfg, data, 2)
        span_cfg = SpanConfig(t_max=20, m=0, l=2, q=1, b=4, eta=0.5, seed=0, hvp_mode=CENTRAL_FD)
        x_final, _ = run_span(span_cfg, cfg, data, np.zeros(2))
        assert np.linalg.norm(x_final - x_star) <= 1e-6


class TestWarmStart:
    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_block_products_per_step(self, monkeypatch, q):
        # Step 0 sketches fresh: 2q + 1 products and Z.  Every later step
        # orthonormalizes the last step's Z into its basis and makes one
        # product, its own Z.
        counts = []
        real = objectives.BatchHessian.__matmul__

        def counting(self, v):
            counts[-1] += 1
            return real(self, v)

        monkeypatch.setattr(objectives.BatchHessian, "__matmul__", counting)
        cfg, data = small_logistic()
        span_cfg = SpanConfig(t_max=5, m=0, l=4, q=q, b=20, eta=0.5, seed=3)
        state = SpanState(x=np.zeros(8))
        for _ in range(5):
            counts.append(0)
            state, _ = span_step(state, cfg, data, span_cfg)
        assert counts == [2 * q + 2, 1, 1, 1, 1]

    def test_quadratic_carried_basis_is_one_power_step(self):
        # A quadratic's H_B depends on neither the batch nor x, so the image
        # carried from the last step is the product H U_prev itself.
        cfg = quadratic(np.linspace(6.0, 1.0, 10))
        span_cfg = SpanConfig(t_max=6, m=0, l=4, q=2, b=1, eta=0.5, seed=11, hvp_mode=ANALYTIC)
        hessian = BatchHessian.at(cfg, None, None, np.zeros(10), ANALYTIC)
        state, _ = span_step(SpanState(x=np.ones(10)), cfg, None, span_cfg)
        for _ in range(5):
            previous_u = state.subspace.u
            state, _ = span_step(state, cfg, None, span_cfg)
            assert np.array_equal(state.subspace.u, linalg.qr_orthonormal(hessian @ previous_u))

    @pytest.mark.parametrize("mode", [ANALYTIC, CENTRAL_FD], ids=["analytic", "finite-difference"])
    def test_carried_block_is_on_the_current_batch(self, monkeypatch, mode):
        # The basis comes from the previous batch's product; the block and
        # the safeguard must still be those of this step's own batch Hessian.
        built = []
        real_at = objectives.BatchHessian.at

        def recording_at(*args):
            built.append(real_at(*args))
            return built[-1]

        monkeypatch.setattr(objectives.BatchHessian, "at", staticmethod(recording_at))
        cfg, data = small_logistic()
        span_cfg = SpanConfig(t_max=6, m=0, l=4, q=1, b=20, eta=0.5, seed=3, hvp_mode=mode)
        tol = 1e-12 if mode == ANALYTIC else 1e-6
        state, _ = span_step(SpanState(x=np.zeros(8)), cfg, data, span_cfg)
        for _ in range(5):
            state, _ = span_step(state, cfg, data, span_cfg)
            dense = built[-1].dense()
            u = state.subspace.u
            expected = np.linalg.eigvalsh(u.T @ dense @ u)[::-1]
            np.testing.assert_allclose(state.subspace.block_eig.values, expected, rtol=0, atol=tol * expected[0])
            l = u.shape[1]
            assert state.subspace.lam <= 0.5 * np.linalg.eigvalsh(dense)[::-1][l - 1] * (1.0 + tol)

    def test_step_zero_is_the_fresh_sketch(self):
        cfg = quadratic(np.linspace(6.0, 1.0, 10))
        span_cfg = SpanConfig(t_max=1, m=0, l=4, q=2, b=1, eta=0.5, seed=11, hvp_mode=ANALYTIC)
        state, _ = span_step(SpanState(x=np.ones(10)), cfg, None, span_cfg)
        fresh = build_subspace(
            BatchHessian.at(cfg, None, None, np.ones(10), ANALYTIC), span_cfg.l, span_cfg.q,
            seed=linalg.derive_seed(11, _STREAM_SKETCH, 0),
        )
        assert np.array_equal(state.subspace.u, fresh.u)

    def test_rank_deficient_warm_block_falls_back_to_fresh_sketch(self, monkeypatch):
        cfg = quadratic(np.linspace(6.0, 1.0, 10))
        span_cfg = SpanConfig(t_max=2, m=0, l=4, q=2, b=1, eta=0.5, seed=11, hvp_mode=ANALYTIC)
        state, _ = span_step(SpanState(x=np.ones(10)), cfg, None, span_cfg)
        fresh = build_subspace(
            BatchHessian.at(cfg, None, None, state.x, ANALYTIC), span_cfg.l, span_cfg.q,
            seed=linalg.derive_seed(11, _STREAM_SKETCH, 1),
        )
        warm, _ = span_step(state, cfg, None, span_cfg)
        assert not np.allclose(warm.subspace.u, fresh.u)

        raised = []
        real = span_module.qr_orthonormal

        def fail_once(y):
            if not raised:
                raised.append(y.shape)
                raise RankDeficient("forced")
            return real(y)

        monkeypatch.setattr(span_module, "qr_orthonormal", fail_once)
        fallback, _ = span_step(state, cfg, None, span_cfg)
        assert raised == [(10, 4)]
        assert np.array_equal(fallback.subspace.u, fresh.u)


class TestCarriedGradient:
    def test_one_full_gradient_per_iteration(self, monkeypatch):
        # The gradient at x_{t+1} comes with the row's loss and is carried
        # into the next step: T + 1 full-data gradients for T steps.
        cfg, data = small_logistic()
        full = []
        transposed = Dataset.transposed  # read by each full-data gradient product

        def counting(dataset):
            full.append(dataset is data)
            return transposed.fget(dataset)

        monkeypatch.setattr(Dataset, "transposed", property(counting))
        span_cfg = SpanConfig(t_max=6, m=0, l=4, q=1, b=20, eta=0.5, seed=3)
        _, trace = run_span(span_cfg, cfg, data, np.zeros(8))
        assert len(trace) == 6
        assert sum(full) == 7

    @pytest.mark.parametrize("mode", [ANALYTIC, CENTRAL_FD])
    def test_rows_equal_fresh_loss_and_gradient(self, mode):
        cfg, data = small_logistic(seed=2)
        span_cfg = SpanConfig(t_max=6, m=0, l=4, q=1, b=20, eta=0.5, seed=5, hvp_mode=mode)
        state = SpanState(x=np.zeros(8))
        for _ in range(6):
            state, record = span_step(state, cfg, data, span_cfg)
            grad = loss_and_gradient(cfg, data, state.x)[1]
            assert np.array_equal(state.grad, grad)
            assert record.loss == loss_and_gradient(cfg, data, state.x)[0]
            assert record.grad_norm == float(np.linalg.norm(grad))


@pytest.fixture
def batch_generators(monkeypatch):
    """Seeds of the generators ``np.random.default_rng`` builds while the test runs."""
    seeds = []
    real = np.random.default_rng

    def counting(seed=None):
        seeds.append(seed)
        return real(seed)

    monkeypatch.setattr(np.random, "default_rng", counting)
    return seeds


class TestBatchStream:
    """span and newsamp draw every batch of a run from one generator."""

    def test_hand_driven_steps_equal_run_span(self):
        objective = ObjectiveConfig("logistic", reg_a=1e-3)
        data = synth_classification(n=200, d=12, seed=4)
        span_cfg = SpanConfig(t_max=8, m=0, l=4, q=1, b=30, eta=0.6, seed=9, probe_hessian_error=True)
        x_run, trace = run_span(span_cfg, objective, data, np.zeros(12))
        state, rows = SpanState(x=np.zeros(12)), []
        for _ in range(8):
            state, record = span_step(state, objective, data, span_cfg)
            rows.append(record._replace(wall_clock_s=0.0))
        assert rows == [record._replace(wall_clock_s=0.0) for record in trace]
        np.testing.assert_array_equal(state.x, x_run)

    @pytest.mark.parametrize("t_max", [1, 3, 9])
    @pytest.mark.parametrize("method", ["span", "newsamp"])
    def test_one_generator_per_sampled_run(self, batch_generators, method, t_max):
        objective = ObjectiveConfig("logistic", reg_a=1e-3)
        data = synth_classification(n=100, d=8, seed=1)
        batch_generators.clear()  # the dataset's label noise drew from one
        if method == "span":
            cfg = SpanConfig(t_max=t_max, m=0, l=4, q=1, b=20, eta=0.5, seed=3)
            _, trace = run_span(cfg, objective, data, np.zeros(8))
        else:
            cfg = BaselineConfig(method="newsamp", eta=1.0, t_max=t_max, b=20, m=2, seed=3)
            _, trace = run_newsamp(cfg, objective, data, np.zeros(8))
        assert len(trace) == t_max
        assert len(batch_generators) == 1

    def test_quadratic_run_builds_no_generator(self, batch_generators):
        span_cfg = SpanConfig(t_max=5, m=0, l=4, q=1, b=1, eta=0.5, seed=3, hvp_mode=ANALYTIC)
        _, trace = run_span(span_cfg, quadratic(np.linspace(6.0, 1.0, 10)), None, np.ones(10))
        assert len(trace) == 5
        assert batch_generators == []

    @pytest.mark.parametrize("n, b", [(100, 3), (3, 20)], ids=["small-batch", "few-samples"])
    def test_unregularized_batch_below_sketch_width_refused(self, monkeypatch, n, b):
        # H_B without regularization has rank at most min(b, n) < l: the first
        # QR of the sketch raised a bare RankDeficient.
        def refuse(*args, **kwargs):
            raise AssertionError("a sketch was drawn before the batch rank was checked")

        monkeypatch.setattr(span_module, "power_range", refuse)
        data = synth_classification(n=n, d=8, seed=1)
        span_cfg = SpanConfig(t_max=2, m=0, l=4, q=1, b=b, eta=0.5, seed=3)
        with pytest.raises(InvalidRankParams, match=rf"min\(b, n\) >= l at reg_a = 0, got b={b}, n={n}, l=4"):
            run_span(span_cfg, ObjectiveConfig("logistic"), data, np.zeros(8))

    @pytest.mark.parametrize("reg_a, b", [(0.0, 4), (1e-3, 2)], ids=["batch-at-width", "regularized"])
    def test_batch_rank_refusal_is_only_where_it_is_proven(self, reg_a, b):
        data = synth_classification(n=100, d=8, seed=1, decay=0.0)
        span_cfg = SpanConfig(t_max=2, m=0, l=4, q=1, b=b, eta=0.5, seed=3, hvp_mode=ANALYTIC)
        _, trace = run_span(span_cfg, ObjectiveConfig("logistic", reg_a=reg_a), data, np.zeros(8))
        assert len(trace) == 2


class TestRunSpan:
    def test_zero_iterations(self):
        cfg = quadratic([1.0, 2.0])
        span_cfg = SpanConfig(t_max=0, m=0, l=2, q=1, b=1, eta=1.0, seed=0)
        x0 = np.array([3.0, 4.0])
        x, trace = run_span(span_cfg, cfg, None, x0)
        np.testing.assert_array_equal(x, x0)
        assert trace == []

    def test_controlled_spectrum_converges(self):
        # Decaying head, flat tail just under the safeguard: gradient norm
        # reaches 1e-6 within 30 full-batch unit steps.
        spectrum = np.concatenate([np.linspace(10.0, 2.5, 16), np.full(34, 1.25)])
        cfg = quadratic(spectrum)
        span_cfg = SpanConfig(t_max=30, m=10, l=16, q=1, b=1, eta=1.0, seed=3, hvp_mode=ANALYTIC)
        x0 = linalg.gaussian_matrix(50, 1, 99)[:, 0]
        _, trace = run_span(span_cfg, cfg, None, x0)
        assert trace[-1].grad_norm <= 1e-6

    def test_same_seed_identical_traces(self):
        rng = np.random.default_rng(1)
        feats = rng.standard_normal((30, 8))
        feats /= np.linalg.norm(feats, axis=1, keepdims=True)
        data = Dataset(features=feats, labels=np.where(rng.random(30) < 0.5, 1.0, -1.0))
        cfg = ObjectiveConfig("logistic", reg_a=0.05)
        span_cfg = SpanConfig(t_max=5, m=0, l=4, q=1, b=10, eta=0.8, seed=42, hvp_mode=CENTRAL_FD)
        _, first = run_span(span_cfg, cfg, data, np.zeros(8))
        _, second = run_span(span_cfg, cfg, data, np.zeros(8))
        for a, b in zip(first, second):
            assert a.iteration == b.iteration
            assert a.loss == b.loss  # bitwise
            assert a.grad_norm == b.grad_norm
            assert a.lambda_used == b.lambda_used

    @pytest.mark.parametrize("problem", ["logistic-analytic", "logistic-finite-difference", "quadratic"])
    def test_rank_target_does_not_enter_the_step(self, problem):
        # m is the analysis's rank target: runs with m left out, m = 0 and
        # m = l - 4 agree in every column but the clock, the probed error included.
        if problem == "quadratic":
            objective, data, b, mode, x0 = quadratic(np.linspace(6.0, 1.0, 30)), None, 1, ANALYTIC, np.ones(30)
        else:
            objective, data = ObjectiveConfig("logistic", reg_a=1e-3), synth_classification(n=300, d=30, seed=2)
            b, x0 = 150, np.zeros(30)
            mode = ANALYTIC if problem == "logistic-analytic" else CENTRAL_FD
        settings = dict(t_max=6, l=16, q=1, b=b, eta=1.0, seed=5, hvp_mode=mode, probe_hessian_error=True)
        runs = []
        for rank in ({}, {"m": 0}, {"m": 12}):
            x, trace = run_span(SpanConfig(**settings, **rank), objective, data, x0.copy())
            runs.append((x.tobytes(), [record._replace(wall_clock_s=0.0) for record in trace]))
        assert runs[0] == runs[1] == runs[2]

    def test_wall_clock_non_decreasing(self):
        cfg = quadratic(np.linspace(4.0, 1.0, 10))
        span_cfg = SpanConfig(t_max=6, m=0, l=4, q=1, b=1, eta=0.5, seed=0, hvp_mode=ANALYTIC)
        _, trace = run_span(span_cfg, cfg, None, np.ones(10))
        stamps = [r.wall_clock_s for r in trace]
        assert all(b >= a for a, b in zip(stamps, stamps[1:]))

    def test_auto_step_schedule_rejected(self):
        values = {"span.T": "5", "span.l": "16", "span.eta": "auto"}
        with pytest.raises(ConfigError, match="span.eta"):
            build_method_config(values, "span", seed=3)

    def test_default_eta_contracts_an_uncaptured_direction(self):
        # eta = 1 scales an uncaptured direction near sigma_min(Z^T U) by about
        # 1 - 2 eta = -1; the default sits near 1/2, in SpanConfig and in bench.
        assert SpanConfig(t_max=3, m=0, l=4, q=1, b=1).eta == 0.55
        values = {"span.T": "5", "span.l": "16"}
        assert build_method_config(values, "span", seed=3).eta == 0.55

    @pytest.mark.parametrize(
        "eta", [[0.9, 0.5, 0.1], np.array([0.5]), "0.5", 0.0, -1.0, float("nan"), float("inf")],
        ids=["schedule", "array", "text", "zero", "negative", "nan", "inf"],
    )
    def test_eta_must_be_one_positive_number(self, eta):
        with pytest.raises(ValueError):
            SpanConfig(t_max=3, m=0, l=4, q=1, b=1, eta=eta, seed=0, hvp_mode=ANALYTIC)

    @pytest.mark.parametrize(
        "grad_tol", [-1.0, float("nan"), "x", [1e-3, 1e-6]], ids=["negative", "nan", "text", "schedule"]
    )
    def test_grad_tol_must_be_non_negative(self, grad_tol):
        with pytest.raises(ValueError, match="grad_tol"):
            SpanConfig(t_max=3, m=0, l=4, q=1, b=1, eta=1.0, seed=0, hvp_mode=ANALYTIC, grad_tol=grad_tol)

    # A fractional t_max was accepted, and the run ended in a TypeError from range().
    @pytest.mark.parametrize("t_max", [2.5, -1, "3", float("nan")], ids=["fractional", "negative", "text", "nan"])
    def test_t_max_must_be_a_non_negative_integer(self, t_max):
        with pytest.raises(ValueError, match="t_max"):
            SpanConfig(t_max=t_max, m=0, l=4, q=1, b=1, eta=1.0, seed=0, hvp_mode=ANALYTIC)

    # A fractional b was accepted, and the run ended in a TypeError from rng.choice.
    @pytest.mark.parametrize("b", [2.5, 0, "3"], ids=["fractional", "zero", "text"])
    def test_b_must_be_a_positive_integer(self, b):
        with pytest.raises(ValueError, match="^b must be a positive integer"):
            SpanConfig(t_max=2, m=0, l=4, q=1, b=b, eta=1.0, seed=0, hvp_mode=ANALYTIC)

    # A fractional l, q or m was accepted, and the run ended in a TypeError or
    # IndexError; a text l failed at construction with a TypeError.
    @pytest.mark.parametrize(
        "field, value", [("l", 8.5), ("q", 1.5), ("m", 2.5), ("l", "16")],
        ids=["fractional-l", "fractional-q", "fractional-m", "text-l"],
    )
    def test_sketch_shape_must_be_integers(self, field, value):
        shape = {"l": 8, "q": 1, "m": 2, field: value}
        with pytest.raises(InvalidRankParams, match="bad sketch parameters"):
            SpanConfig(t_max=2, b=4, eta=1.0, seed=0, **shape)

    @pytest.mark.parametrize(
        "edit, message",
        [({"l": 4, "m": 1}, r"need m \+ 4 <= l"), ({"l": 0}, "bad sketch"), ({"q": -1}, "bad sketch"),
         ({"m": -1}, "bad sketch")],
        ids=["gap", "zero-width", "negative-power", "negative-rank"],
    )
    def test_sketch_shape_must_fit_the_analysis(self, edit, message):
        shape = {"l": 8, "q": 1, "m": 2, **edit}
        with pytest.raises(InvalidRankParams, match=message):
            SpanConfig(t_max=2, b=4, eta=1.0, seed=0, **shape)

    def test_rank_target_is_optional(self):
        # A config without a rank target has m = 0; one that sets it must still fit the sketch.
        assert SpanConfig(t_max=3, l=4, q=1, b=1).m == 0
        with pytest.raises(InvalidRankParams, match=r"need m \+ 4 <= l"):
            SpanConfig(t_max=3, l=12, q=1, b=1, m=10)


class TestContractionBound:
    def test_per_step_ratio_within_contraction_bound(self):
        # Full batch on a strongly convex quadratic with a step inside the
        # admissible range computed from the known spectrum; quadratics have
        # zero Hessian-Lipschitz constant, so only the linear term remains.
        d = 30
        spectrum = np.linspace(4.0, 1.0, d)
        cfg = quadratic(spectrum)
        sigma_1, sigma_d = spectrum[0], spectrum[-1]
        eta = sigma_d / (48.0 * sigma_1 - 16.0 * sigma_d)  # valid for any lambda_min <= sigma_1 / 2
        sigma_m1 = spectrum[6]
        span_cfg = SpanConfig(t_max=10, m=6, l=10, q=2, b=1, eta=eta, seed=0, hvp_mode=ANALYTIC)
        for seed in range(3):
            state = SpanState(x=linalg.gaussian_matrix(d, 1, 500 + seed)[:, 0])
            cfg_seeded = dataclasses.replace(span_cfg, seed=seed)
            for _ in range(10):
                prev = np.linalg.norm(state.x)
                state, _ = span_step(state, cfg, None, cfg_seeded)
                lam_min = state.subspace.lam
                assert lam_min <= 2.0 * sigma_m1 + 1e-9
                ratio = np.linalg.norm(state.x) / prev
                assert ratio <= 1.0 - eta * sigma_d**2 / (36.0 * lam_min**2) + 1e-6
