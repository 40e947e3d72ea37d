"""Acceptance gate: one test per release criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import time
from pathlib import Path

import numpy as np

from spanopt import (
    ANALYTIC,
    CENTRAL_FD,
    BatchHessian,
    ObjectiveConfig,
    SpanConfig,
    SpanState,
    apply_inverse,
    build_subspace,
    hessian_error_probe,
    loss_and_gradient,
    min_power_iterations,
    run_span,
    sample_batch,
    span_step,
)
from spanopt import linalg
from spanopt.baselines import neumann_inverse_apply, newsamp_inverse
from spanopt.bench import load_experiment_config, read_trace_csv, per_iteration_scaling, run_experiment
from spanopt.datasets import synth_classification
from spanopt.linalg import sym_eig_small
from spanopt.objectives import _margin_derivative, _pass, batch_gradient_difference, gathered_batches

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def verdict(tag: str, ok: bool, detail: str) -> None:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{tag} failed: {detail}"


def quadratic(spectrum):
    return ObjectiveConfig("quadratic", quadratic_spectrum=np.asarray(spectrum, dtype=float))


def newton_optimum(cfg, data, d, tol=1e-12):
    x = np.zeros(d)
    for _ in range(100):
        g = loss_and_gradient(cfg, data, x)[1]
        if np.linalg.norm(g) <= tol:
            break
        x = x - np.linalg.solve(BatchHessian.at(cfg, data, None, x, ANALYTIC).dense(), g)
    return x


def desk_problem():
    """The 2000-sample, d=100 logistic instance shared by criteria 5 and 6."""
    data = synth_classification(2000, 100, seed=3, decay=1.0)
    objective = ObjectiveConfig("logistic", reg_a=1e-3)
    return objective, data


def test_criterion_1_approximation_bound_statistical():
    # d=50 quadratic, sigma_i = 1 + (50 - i)/5, m=10, l=16, q from the
    # minimum-power formula, safeguard lambda: the probed error stays within
    # 3 sigma_{m+1} in at least 95% of 200 seeded trials (theory guarantees
    # probability >= 1 - 6 e^{m-l} ~ 0.89).
    start = time.perf_counter()
    d, m, l = 50, 10, 16
    spectrum = 1.0 + (50.0 - np.arange(1, d + 1)) / 5.0
    cfg = quadratic(spectrum)
    q = min_power_iterations(d, l, m)
    bound = 3.0 * spectrum[m]
    x = np.zeros(d)
    hits = 0
    for trial in range(200):
        hessian = BatchHessian.at(cfg, None, None, x, ANALYTIC)
        s = build_subspace(hessian, l, q, seed=linalg.derive_seed(1234, trial))
        err = hessian_error_probe(s, hessian, seed=trial)
        hits += err <= bound
    elapsed = time.perf_counter() - start
    verdict(
        "AC1",
        hits >= 190 and elapsed <= 120.0,
        f"error <= 3 sigma_(m+1) in {hits}/200 trials (need >= 190), q={q}, {elapsed:.1f}s (cap 120s)",
    )


def test_criterion_2_exact_capture_degeneracy():
    d = 12
    spectrum = np.linspace(10.0, 1.0, d)
    cfg = quadratic(spectrum)
    hessian = BatchHessian.at(cfg, None, None, np.zeros(d), ANALYTIC)
    s = build_subspace(hessian, d, 1, seed=4)
    err = hessian_error_probe(s, hessian, seed=2)
    span_cfg = SpanConfig(t_max=1, m=0, l=d, q=1, b=1, eta=1.0, seed=4, hvp_mode=ANALYTIC)
    x1, _ = run_span(span_cfg, cfg, None, np.arange(1.0, d + 1.0))
    dist = float(np.linalg.norm(x1))  # optimum is the origin
    verdict(
        "AC2",
        err <= 1e-8 and dist <= 1e-8,
        f"l=d gives error {err:.2e} (cap 1e-8) and one-step distance {dist:.2e} (cap 1e-8)",
    )


def test_criterion_3_contraction_on_quadratics():
    # Full batch, constant step inside the admissible range computed from the
    # known spectrum (valid for any lambda_min <= sigma_1 / 2); every step of
    # a 30-step run over 20 seeds contracts at least as fast as
    # 1 - eta sigma_d^2 / (36 lambda_min^2).
    start = time.perf_counter()
    d = 30
    spectrum = np.linspace(4.0, 1.0, d)
    cfg = quadratic(spectrum)
    sigma_1, sigma_d = spectrum[0], spectrum[-1]
    sigma_m1 = spectrum[6]
    eta = sigma_d / (48.0 * sigma_1 - 16.0 * sigma_d)
    violations = 0
    worst_margin = np.inf
    for seed in range(20):
        span_cfg = SpanConfig(t_max=30, m=6, l=10, q=2, b=1, eta=eta, seed=seed, hvp_mode=ANALYTIC)
        state = SpanState(x=linalg.gaussian_matrix(d, 1, 9000 + seed)[:, 0])
        for _ in range(30):
            prev = np.linalg.norm(state.x)
            state, _ = span_step(state, cfg, None, span_cfg)
            lam_min = state.subspace.lam
            assert lam_min <= 2.0 * sigma_m1 + 1e-9  # contraction analysis requires this
            ratio = np.linalg.norm(state.x) / prev
            bound = 1.0 - eta * sigma_d**2 / (36.0 * lam_min**2)
            worst_margin = min(worst_margin, bound + 1e-6 - ratio)
            violations += ratio > bound + 1e-6
    elapsed = time.perf_counter() - start
    verdict(
        "AC3",
        violations == 0 and elapsed <= 60.0,
        f"0 of 600 steps violated the linear coefficient (worst margin {worst_margin:.2e}), {elapsed:.1f}s (cap 60s)",
    )


def test_criterion_4_hvp_fidelity():
    # Central finite differences vs the analytic product on logistic
    # problems with d <= 50: relative error <= 1e-5 on 100 random (x, v).
    worst = 0.0
    checked = 0
    for block, d in enumerate((50, 35, 20, 10)):
        rng = np.random.default_rng(600 + block)
        feats = rng.standard_normal((60, d))
        feats /= np.linalg.norm(feats, axis=1, keepdims=True)
        from spanopt import Dataset

        data = Dataset(features=feats, labels=np.where(rng.random(60) < 0.5, 1.0, -1.0))
        cfg = ObjectiveConfig("logistic", reg_a=0.05)
        for _ in range(25):
            x = rng.standard_normal(d)
            v = rng.standard_normal(d)
            fd = BatchHessian.at(cfg, data, None, x, CENTRAL_FD) @ v
            exact = BatchHessian.at(cfg, data, None, x, ANALYTIC) @ v
            worst = max(worst, float(np.linalg.norm(fd - exact) / np.linalg.norm(exact)))
            checked += 1
    verdict("AC4", checked == 100 and worst <= 1e-5, f"worst relative error {worst:.2e} over {checked} pairs (cap 1e-5)")


def test_criterion_5_hessian_error_ordering():
    # Desk-scale analog of the approximation-error comparison: with matched
    # rank m, the sketched construction must sit within 1.5x of the truncated
    # eigendecomposition's error (the rank-m optimum) and strictly below the
    # Neumann estimator's implied-operator error, in >= 80% of 20 seeds.
    start = time.perf_counter()
    objective, data = desk_problem()
    d, m, l, q, b = 100, 10, 16, 2, 600
    x_star = newton_optimum(objective, data, d)
    passes = 0
    for seed in range(20):
        rng = np.random.default_rng(linalg.derive_seed(777, seed))
        batch = sample_batch(data.n_samples, b, rng)
        x_eval = x_star + 0.1 * linalg.gaussian_matrix(d, 1, seed)[:, 0]  # near-path iterate

        hessian = BatchHessian.at(objective, data, batch, x_eval, ANALYTIC)
        s = build_subspace(hessian, l, q, seed=linalg.derive_seed(778, seed))
        span_err = hessian_error_probe(s, hessian, seed=seed)

        h_batch = hessian.dense()
        eig = sym_eig_small(h_batch)
        newsamp_err = float(eig.values[m] - eig.values[-1])

        # Implied operator of the stochastic Neumann estimator: average s1
        # depth-100 recursions applied to the identity, then invert.
        scale = 1.25 * float(eig.values[0])
        rng2 = np.random.default_rng(linalg.derive_seed(779, seed))

        def sampled_hvp(u):
            idx = np.array([batch[rng2.integers(len(batch))]])
            return BatchHessian.at(objective, data, idx, x_eval, ANALYTIC) @ u

        estimate = np.zeros((d, d))
        for _ in range(4):
            estimate += neumann_inverse_apply(sampled_hvp, np.eye(d), depth=100, scale=scale)
        estimate /= 4.0
        implied = np.linalg.solve(estimate, np.eye(d))
        implied = 0.5 * (implied + implied.T)
        lissa_err = float(np.abs(sym_eig_small(implied - h_batch).values).max())

        passes += (span_err <= 1.5 * newsamp_err) and (span_err < lissa_err)
    elapsed = time.perf_counter() - start
    verdict(
        "AC5",
        passes >= 16 and elapsed <= 300.0,
        f"ordering held in {passes}/20 seeds (need >= 16), {elapsed:.1f}s (cap 300s)",
    )


def test_criterion_6_convergence_race(tmp_path):
    # Same problem, tuned configs from the shipped benchmark file: the
    # sketched method must reach 1e-8 suboptimality no later in wall clock
    # than the dense truncated-eigendecomposition baseline and within 1.5x
    # its iteration count.
    objective, data = desk_problem()
    x_star = newton_optimum(objective, data, 100)
    f_star = loss_and_gradient(objective, data, x_star)[0]

    cfg = load_experiment_config(CONFIG_DIR / "desk-logistic.cfg")
    cfg.output_dir = tmp_path / "desk"
    cfg.methods = ["span", "newsamp"]
    result = run_experiment(cfg)
    assert result.all_ok

    def first_hit(method):
        for record in read_trace_csv(tmp_path / "desk" / f"{method}.csv"):
            if record.loss - f_star <= 1e-8:
                return record.iteration, record.wall_clock_s
        return None, None

    span_iter, span_wc = first_hit("span")
    ns_iter, ns_wc = first_hit("newsamp")
    ok = (
        span_iter is not None
        and ns_iter is not None
        and span_wc <= ns_wc
        and span_iter <= 1.5 * ns_iter
    )
    verdict(
        "AC6",
        ok,
        f"suboptimality 1e-8 hit at iter {span_iter} / {span_wc and round(span_wc, 3)}s (sketched) vs "
        f"iter {ns_iter} / {ns_wc and round(ns_wc, 3)}s (dense); need wc <= and iters <= 1.5x",
    )


def test_criterion_7_scaling_trend():
    # Near-linear growth for the sketched step, quadratic-plus for the dense
    # baseline (capped at d=400): factors per 4x dimension increase.
    rows = per_iteration_scaling([100, 400, 1600], l=16, m=10, q=1, steps=25, warmup=3, seed=0, rounds=3)
    span_s = {r.d: r.span_step_s for r in rows}
    ns_s = {r.d: r.newsamp_step_s for r in rows if r.newsamp_step_s is not None}
    span_g1 = span_s[400] / span_s[100]
    span_g2 = span_s[1600] / span_s[400]
    ns_g = ns_s[400] / ns_s[100]
    ok = span_g1 <= 6.0 and span_g2 <= 6.0 and ns_g >= 10.0 and 1600 not in ns_s
    verdict(
        "AC7",
        ok,
        f"sketched growth {span_g1:.2f} and {span_g2:.2f} per 4x d (cap 6), dense growth {ns_g:.2f} (floor 10)",
    )


def test_criterion_8_oracle_equivalences():
    rng = np.random.default_rng(42)

    # (a) apply_inverse inverts the explicitly constructed perturbed matrix.
    inverse_ok = True
    for d in (10, 20, 30):
        spectrum = np.linspace(8.0, 1.0, d)
        cfg = quadratic(spectrum)
        s = build_subspace(BatchHessian.at(cfg, None, None, np.zeros(d), ANALYTIC), 6, 2, seed=d)
        p = s.u @ s.u.T
        h_hat = p @ np.diag(spectrum) @ p + s.lam * (np.eye(d) - p)
        for _ in range(10):
            v = rng.standard_normal(d)
            inverse_ok &= bool(np.linalg.norm(apply_inverse(s, h_hat @ v) - v) <= 1e-8 * np.linalg.norm(v))

    # (b) truncated-inverse formula vs dense inversion of the regularized matrix.
    a = rng.standard_normal((40, 40))
    h = a @ a.T / 40 + 0.5 * np.eye(40)
    eig = sym_eig_small(h)
    m = 8
    top = eig.vectors[:, :m]
    regularized = top @ np.diag(eig.values[:m]) @ top.T + eig.values[m] * (np.eye(40) - top @ top.T)
    formula = newsamp_inverse(eig.values, eig.vectors, m)
    newsamp_ok = bool(np.abs(formula @ regularized - np.eye(40)).max() <= 1e-8)

    # (c) deterministic Neumann recursion vs the geometric series on c I.
    g = rng.standard_normal(5)
    lissa_ok = True
    for j in (0, 3, 10, 25):
        estimate = neumann_inverse_apply(lambda u: 0.5 * u, g, depth=j)
        expected = (2.0 - 2.0 * 0.5 ** (j + 1)) * g
        lissa_ok &= bool(np.abs(estimate - expected).max() <= 1e-10)

    # (d) variance-reduction snapshot identity, exact to the bit.
    from spanopt import Dataset

    feats = rng.standard_normal((12, 4))
    data = Dataset(features=feats, labels=np.where(rng.random(12) < 0.5, 1.0, -1.0))
    cfg = ObjectiveConfig("logistic", reg_a=0.1)
    snapshot = rng.standard_normal(4)
    # The snapshot's gradient and margins come from the step bracket's one full-data pass.
    _, mu, margins = _pass(cfg, data, None, snapshot)
    derivatives = _margin_derivative(cfg, margins)
    batch = np.array([1, 5, 9])
    ((rows,),) = gathered_batches(cfg, data, batch[None])
    r = snapshot - snapshot
    estimate = batch_gradient_difference(cfg, rows, r, margins[batch], derivatives[batch]) + mu
    svrg_ok = bool(np.array_equal(estimate, mu))

    verdict(
        "AC8",
        inverse_ok and newsamp_ok and lissa_ok and svrg_ok,
        f"perturbed-inverse {inverse_ok}, truncated-inverse {newsamp_ok}, "
        f"geometric-series {lissa_ok}, snapshot identity {svrg_ok}",
    )


def test_criterion_9_determinism(tmp_path):
    config_text = (
        "seed = 19\noutput_dir = {out}\nmethods = span, gd, newsamp, lissa\nx0 = ones\n"
        "objective.loss = quadratic\ndataset.spectrum = 9,7,5,4,3,2.2,1.8,1.5,1.2,1\n"
        "preiterate.epochs = 0\n"
        "span.T = 6\nspan.l = 5\nspan.q = 1\nspan.b = 1\nspan.eta = 0.8\nspan.hvp = analytic\n"
        "gd.T = 6\ngd.eta = 0.1\n"
        "newsamp.T = 6\nnewsamp.m = 4\nnewsamp.eta = 1.0\n"
        "lissa.T = 6\nlissa.eta = 1.0\nlissa.s1 = 2\nlissa.inner_steps = 80\n"
    )
    mismatches = []
    for run in ("a", "b"):
        path = tmp_path / f"{run}.cfg"
        path.write_text(config_text.format(out=tmp_path / run))
        run_experiment(load_experiment_config(path))
    for method in ("span", "gd", "newsamp", "lissa"):
        lines_a = (tmp_path / "a" / f"{method}.csv").read_text().splitlines()
        lines_b = (tmp_path / "b" / f"{method}.csv").read_text().splitlines()
        for la, lb in zip(lines_a, lines_b):
            fa, fb = la.split(","), lb.split(",")
            del fa[1], fb[1]  # wall_clock_s column
            if fa != fb:
                mismatches.append(method)
                break
    verdict(
        "AC9",
        not mismatches,
        "byte-identical traces modulo the wall-clock column"
        + (f" (mismatches: {mismatches})" if mismatches else " for all four methods"),
    )
