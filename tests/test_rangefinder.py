"""Powered-sketch range capture and the minimum-power formula."""

import math

import numpy as np
import pytest

from spanopt import ANALYTIC, BatchHessian, ObjectiveConfig, min_power_iterations, power_range
from spanopt import linalg, rangefinder
from spanopt.errors import InvalidRankParams


def quadratic(spectrum):
    return ObjectiveConfig("quadratic", quadratic_spectrum=np.asarray(spectrum, dtype=float))


def projector(u):
    return u @ u.T


class TestPowerRange:
    def test_isotropic_operator_preserves_sketch_span(self):
        # H = c I maps the sketch to itself, so span(U) = span(Omega).
        cfg = quadratic([2.0, 2.0, 2.0, 2.0])
        u = power_range(BatchHessian.at(cfg, None, None, np.zeros(4), ANALYTIC), 2, 1, seed=3)
        omega = linalg.gaussian_matrix(4, 2, 3)
        q_omega = linalg.qr_orthonormal(omega)
        assert np.abs(projector(u) - projector(q_omega)).max() <= 1e-8

    def test_top_directions_captured(self):
        # spectrum (1, 2, 3): top-2 eigendirections are e3 then e2.
        cfg = quadratic([1.0, 2.0, 3.0])
        u = power_range(BatchHessian.at(cfg, None, None, np.zeros(3), ANALYTIC), 2, 5, seed=11)
        p = projector(u)
        e2, e3 = np.eye(3)[:, 1], np.eye(3)[:, 2]
        assert np.linalg.norm(e3 - p @ e3) <= 1e-3
        assert np.linalg.norm(e2 - p @ e2) <= 1e-2

    def test_q_zero_is_plain_sketch(self):
        cfg = quadratic([3.0, 1.0, 0.5, 0.2])
        u = power_range(BatchHessian.at(cfg, None, None, np.zeros(4), ANALYTIC), 2, 0, seed=5)
        h_omega = np.diag([3.0, 1.0, 0.5, 0.2]) @ linalg.gaussian_matrix(4, 2, 5)
        expected = linalg.qr_orthonormal(h_omega)
        assert np.abs(projector(u) - projector(expected)).max() <= 1e-8

    def test_orthonormality_invariant(self):
        rng = np.random.default_rng(0)
        for seed in range(10):
            d = int(rng.integers(6, 30))
            spectrum = np.sort(rng.uniform(0.5, 5.0, size=d))[::-1]
            q = int(rng.integers(0, 4))
            u = power_range(BatchHessian.at(quadratic(spectrum), None, None, np.zeros(d), ANALYTIC), 5, q, seed=seed)
            assert np.abs(u.T @ u - np.eye(5)).max() <= 1e-10

    @pytest.mark.parametrize("q, calls", [(2, 1), (3, 7)])
    def test_reorthonormalizes_between_products_from_q_3(self, monkeypatch, q, calls):
        # Below q = 3 only the last product is orthonormalized; from q = 3
        # every one of the 2q + 1 products is.
        qr_calls = []

        def counting_qr(y):
            qr_calls.append(y)
            return linalg.qr_orthonormal(y)

        monkeypatch.setattr(rangefinder, "qr_orthonormal", counting_qr)
        power_range(BatchHessian.at(quadratic(np.linspace(6.0, 1.0, 12)), None, None, np.zeros(12), ANALYTIC), 4, q, seed=9)
        assert len(qr_calls) == calls

    def test_width_checked_against_dimension(self):
        with pytest.raises(InvalidRankParams, match="exceeds dimension d=5"):
            power_range(BatchHessian.at(quadratic(np.ones(5)), None, None, np.zeros(5), ANALYTIC), 8, 1, seed=0)

    def test_reorthonormalized_loop_spans_same_space(self):
        # q=4 re-orthonormalizes between products; the span is that of the
        # raw power H^9 Omega.
        spectrum = np.linspace(6.0, 1.0, 12)
        u_re = power_range(BatchHessian.at(quadratic(spectrum), None, None, np.zeros(12), ANALYTIC), 4, 4, seed=9)
        u_raw = linalg.qr_orthonormal(np.diag(spectrum**9) @ linalg.gaussian_matrix(12, 4, 9))
        assert np.abs(projector(u_raw) - projector(u_re)).max() <= 1e-6

    def test_capture_monotone_in_power(self):
        # Captured energy ||U U^T H U U^T||_F averaged over 50 seeds does not
        # decrease from q=0 to q=3.
        spectrum = np.linspace(8.0, 1.0, 12)
        cfg = quadratic(spectrum)
        h = np.diag(spectrum)

        def mean_energy(q):
            total = 0.0
            for seed in range(50):
                u = power_range(BatchHessian.at(cfg, None, None, np.zeros(12), ANALYTIC), 4, q, seed=seed)
                p = projector(u)
                total += np.linalg.norm(p @ h @ p)
            return total / 50.0

        assert mean_energy(3) >= mean_energy(0) - 1e-9

    def test_alignment_phenomenon_diag123(self):
        # Powering diag(1,2,3) eleven times collapses a normalized Gaussian
        # sketch column onto +/- e3.  The per-seed failure probability is
        # about 5%, so the >= 95/100 threshold is pinned to seeds 0..99
        # (measured: 97/100).
        cfg = quadratic([1.0, 2.0, 3.0])
        aligned = 0
        for seed in range(100):
            # q = 5 re-orthonormalizes, which for one column only rescales it.
            u = power_range(BatchHessian.at(cfg, None, None, np.zeros(3), ANALYTIC), 1, 5, seed=seed)
            if abs(u[2, 0]) >= 0.99:
                aligned += 1
        assert aligned >= 95


class TestPowerRangeFailure:
    def test_rank_deficient_operator_fails_after_retries(self, monkeypatch):
        # A rank-one batch Hessian cannot support a width-2 sketch; a redraw
        # would produce dependent columns again, so the first failure
        # propagates without one.
        from spanopt import Dataset
        from spanopt.errors import RankDeficient

        draws = []
        real_draw = rangefinder.gaussian_matrix

        def counting_draw(*args, **kwargs):
            draws.append(args)
            return real_draw(*args, **kwargs)

        monkeypatch.setattr(rangefinder, "gaussian_matrix", counting_draw)
        data = Dataset(features=np.array([[1.0, 0.0]]), labels=np.array([1.0]))
        cfg = ObjectiveConfig("logistic", reg_a=0.0)
        with pytest.raises(RankDeficient):
            power_range(BatchHessian.at(cfg, data, None, np.zeros(2), ANALYTIC), 2, 0, seed=0)
        assert len(draws) == 1


class TestMinPowerIterations:
    def test_reference_value(self):
        # Recomputed independently: the log argument is
        # 34*sqrt(2) + (16*sqrt(20)/11)*sqrt(90) ~= 113.35, and
        # ceil(0.5 * log1.5(113.35)) = ceil(5.794) = 6.
        assert min_power_iterations(100, 20, 10) == 6

    def test_formula_direct_evaluation(self):
        for d, l, m in ((50, 16, 10), (200, 12, 8), (1000, 30, 20)):
            arg = 34.0 * math.sqrt(l / (l - m)) + 16.0 * math.sqrt(l) / (l - m + 1) * math.sqrt(d - m)
            expected = math.ceil(0.5 * math.log(arg) / math.log(1.5))
            assert min_power_iterations(d, l, m) == expected

    def test_always_at_least_one(self):
        # 34 sqrt(l/(l-m)) > 34 makes the log argument > 1 for valid inputs.
        rng = np.random.default_rng(1)
        for _ in range(50):
            m = int(rng.integers(1, 20))
            l = m + 4 + int(rng.integers(0, 10))
            d = l + int(rng.integers(0, 500))
            assert min_power_iterations(d, l, m) >= 1

    def test_monotone_in_dimension(self):
        assert min_power_iterations(10000, 20, 10) >= min_power_iterations(100, 20, 10)

    def test_invalid_params(self):
        with pytest.raises(InvalidRankParams):
            min_power_iterations(100, 12, 9)
        with pytest.raises(InvalidRankParams):
            min_power_iterations(10, 20, 10)
        with pytest.raises(InvalidRankParams):
            min_power_iterations(100, 12, 0)
