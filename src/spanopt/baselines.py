"""Reference optimizers for head-to-head benchmarking.

Gradient descent, variance-reduced SGD with snapshots, truncated-eigenvalue
subsampled Newton, and Neumann-series inverse estimation each supply one
update, ``step(t, x, grad)``, and run it through the step loop of
:mod:`spanopt.span`: its stop rule, and its per-step bracket, whose
cumulative wall clock includes the fused loss and gradient at each new
iterate (the gradient is carried into the next step, so each step makes one
full-data pass of its own) and which builds the full-gradient trace rows.
A baseline's update returns the next iterate, its lambda column (newsamp's
flattening eigenvalue, else ``None``) and ``None, None``: it carries no
basis and has no probe.  Determinism is keyed by the config seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from .errors import DivergingSeries, IndefiniteBlock, InvalidRankParams, NonFiniteResult, SingularSystem
from .hvp import ANALYTIC
from .linalg import derive_seed, spectral_norm_sym, sym_eig_small
from .objectives import (
    BatchHessian,
    Dataset,
    ObjectiveConfig,
    batch_gradient_difference,
    gather_batches,
    sample_batch,
)
from .span import TraceRecord, _check_count, _check_run_length, _drive, _step

METHODS = ("gd", "svrg", "newsamp", "lissa")

_DIVERGENCE_LIMIT = 1e8

# svrg and lissa gather the rows of consecutive batches at once, up to about
# this many stored feature entries (128 KiB of values) per gather.
_GATHER_ENTRIES = 1 << 14


@dataclass(frozen=True)
class BaselineConfig:
    """One config type for all four methods; each run_* validates what it needs.

    ``t_max`` counts outer iterations (epochs, for svrg).  ``b`` is the batch
    size for whatever the method subsamples: inner gradients (svrg), the
    dense Hessian (newsamp).  ``m`` is the newsamp truncation rank,
    ``inner_steps`` the svrg steps per epoch / lissa recursion depth, and
    ``s1`` the number of averaged lissa estimates.
    """

    method: str
    eta: float
    t_max: int
    b: int = 1
    m: Optional[int] = None
    inner_steps: Optional[int] = None
    s1: int = 1
    seed: int = 0
    grad_tol: float = 0.0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if not 0 <= self.eta < math.inf:
            raise ValueError("eta must be a finite non-negative number")
        _check_run_length(self.t_max, self.grad_tol)
        _check_count("b", self.b)
        _check_count("s1", self.s1)
        if self.m is not None:
            _check_count("m", self.m)
        elif self.method == "newsamp":
            raise ValueError("newsamp needs a positive truncation rank m")
        if self.inner_steps is not None:
            _check_count("inner_steps", self.inner_steps)


def run_gd(
    cfg: BaselineConfig,
    objective: ObjectiveConfig,
    data: Dataset | None,
    x0: np.ndarray,
) -> tuple[np.ndarray, list[TraceRecord]]:
    """Plain full-gradient descent: x <- x - eta * grad F(x)."""
    return _drive(cfg, x0, _step, objective, data, lambda t, x, grad: (x - cfg.eta * grad, None, None, None))


def _drawn_batches(
    objective: ObjectiveConfig,
    data: Dataset,
    draw: Callable[[], np.ndarray],
    size: int,
    total: int,
) -> Iterator[tuple]:
    """``(rows, labels)`` of ``total`` batches of ``size`` rows, ``draw()`` after ``draw()``.

    The batches are drawn in stream order, but a run of them at a time,
    whose rows :func:`gather_batches` gathers at once: a few-row batch then
    costs no gather of its own.
    """
    per_row = max(1, -(-data.stored // data.n_samples))
    per_run = max(1, _GATHER_ENTRIES // (size * per_row))
    for first in range(0, total, per_run):
        yield from gather_batches(objective, data, [draw() for _ in range(min(per_run, total - first))])


def run_svrg(
    cfg: BaselineConfig,
    objective: ObjectiveConfig,
    data: Dataset,
    x0: np.ndarray,
) -> tuple[np.ndarray, list[TraceRecord]]:
    """Snapshot-based variance-reduced SGD; one trace row per epoch.

    Each epoch snapshots the current iterate, whose full gradient the last
    trace row already computed, then takes ``inner_steps`` batched steps
    (default: one pass, ceil(N / b)).  The batches are drawn in stream
    order a run at a time, and each run's rows are gathered at once.  A
    step moves along ``grad f_B(w) - grad f_B(snapshot) + grad F(snapshot)``,
    whose first two terms are one :func:`batch_gradient_difference`, exactly
    zero at ``w == snapshot``.  An epoch whose iterate ends non-finite raises
    :class:`NonFiniteResult`; it is checked once per epoch, not per inner step.
    """
    if data is None or objective.loss_kind == "quadratic":
        raise ValueError("svrg needs sampled data, and quadratics carry no samples")
    n = data.n_samples
    b = min(cfg.b, n)
    steps_per_epoch = cfg.inner_steps or max(1, -(-n // cfg.b))

    def epoch(t: int, snapshot: np.ndarray, snapshot_grad: np.ndarray):
        rng = np.random.default_rng(derive_seed(cfg.seed, 10, t))
        x = snapshot
        with np.errstate(over="ignore", invalid="ignore"):  # a diverged epoch fails the check below
            for rows, labels in _drawn_batches(objective, data, lambda: sample_batch(n, b, rng), b, steps_per_epoch):
                estimate = batch_gradient_difference(objective, rows, labels, x, snapshot) + snapshot_grad
                x = x - cfg.eta * estimate
        if not np.isfinite(x).all():
            raise NonFiniteResult(f"svrg iterate is not finite after epoch {t + 1}")
        return x, None, None, None

    return _drive(cfg, x0, _step, objective, data, epoch)


def newsamp_inverse(values: np.ndarray, vectors: np.ndarray, m: int) -> np.ndarray:
    """Truncated-eigendecomposition regularized inverse.

    With eigenvalues sorted descending, the top-m directions keep their exact
    inverse curvature and everything below is flattened to 1/sigma_{m+1}:

        Hinv = sigma_{m+1}^{-1} I + sum_{i<=m} (sigma_i^{-1} - sigma_{m+1}^{-1}) u_i u_i^T
    """
    values = np.asarray(values, dtype=float)
    if m < 1 or m >= values.size:
        raise InvalidRankParams(f"truncation rank m={m} outside [1, {values.size - 1}]")
    sigma_next = values[m]
    if sigma_next <= 0:
        raise IndefiniteBlock(f"sigma_{m + 1} = {sigma_next:.3e} <= 0")
    top = vectors[:, :m]
    inv = np.eye(values.size) / sigma_next
    inv += top @ np.diag(1.0 / values[:m] - 1.0 / sigma_next) @ top.T
    return inv


def run_newsamp(
    cfg: BaselineConfig,
    objective: ObjectiveConfig,
    data: Dataset | None,
    x0: np.ndarray,
) -> tuple[np.ndarray, list[TraceRecord]]:
    """Subsampled Newton with a rank-m truncated dense eigendecomposition.

    Deliberately dense: the per-iteration d^2 Hessian and d^3 eigensolve are
    this baseline's defining cost, so the dense-Hessian dimension cap
    applies.  The flattening eigenvalue sigma_{m+1} is recorded in the
    lambda column of the trace.
    """

    def step(t: int, x: np.ndarray, grad: np.ndarray):
        batch = None
        if data is not None:
            rng = np.random.default_rng(derive_seed(cfg.seed, 20, t))
            batch = sample_batch(data.n_samples, min(cfg.b, data.n_samples), rng)
        eig = sym_eig_small(BatchHessian.at(objective, data, batch, x, ANALYTIC).dense())
        inv = newsamp_inverse(eig.values, eig.vectors, cfg.m)
        return x - cfg.eta * (inv @ grad), float(eig.values[cfg.m]), None, None

    return _drive(cfg, x0, _step, objective, data, step)


def neumann_inverse_apply(
    apply_hvp: Callable[[np.ndarray], np.ndarray],
    g: np.ndarray,
    depth: int,
    scale: float = 1.0,
) -> np.ndarray:
    """Truncated Neumann series estimate of ``H^{-1} g``.

    Runs u <- g + u - H u / scale for ``depth`` steps starting from u = g
    (so depth 0 returns g / scale, the zeroth-order term) and returns
    u / scale.  Requires ``||H / scale|| < 1`` to converge; growth past 1e8
    or to NaN or Inf raises :class:`DivergingSeries`.  ``g`` may be a
    matrix, in which case ``apply_hvp`` must accept one.
    """
    u = np.asarray(g, dtype=float).copy()
    for _ in range(depth):
        u = g + u - apply_hvp(u) / scale
        if not float(np.abs(u).max()) <= _DIVERGENCE_LIMIT:  # NaN and Inf fail it too
            raise DivergingSeries("Neumann recursion exceeded 1e8; operator not contractive")
    return u / scale


def lissa_hessian_scale(
    objective: ObjectiveConfig,
    data: Dataset | None,
    x0: np.ndarray,
    seed: int = 0,
) -> float:
    """Probe ||H(x0)|| on the full batch and pad it by a 25% margin.

    The Neumann recursion assumes the (scaled) Hessian has norm below one;
    dividing by this value enforces that along the iterate path in practice.
    A zero Hessian at ``x0`` raises :class:`SingularSystem`.
    """
    hessian = BatchHessian.at(objective, data, None, x0, ANALYTIC)
    norm = spectral_norm_sym(hessian.__matmul__, hessian.x.size, tol=1e-4, seed=seed)
    if norm == 0.0:
        raise SingularSystem("objective has zero curvature at x0")
    return 1.25 * norm


def run_lissa(
    cfg: BaselineConfig,
    objective: ObjectiveConfig,
    data: Dataset | None,
    x0: np.ndarray,
) -> tuple[np.ndarray, list[TraceRecord]]:
    """Newton steps with the inverse estimated by stochastic Neumann recursion.

    Each iteration averages ``s1`` independent depth-``inner_steps``
    recursions whose Hessian products come from single random samples
    (analytic GLM products), drawn in stream order and gathered a run at a
    time.  The objective is rescaled by a spectral-norm probe at x0 and the
    resulting direction unscaled.
    """
    depth = cfg.inner_steps if cfg.inner_steps is not None else 100
    scale = lissa_hessian_scale(objective, data, x0, seed=derive_seed(cfg.seed, 30))

    def step(t: int, x: np.ndarray, grad: np.ndarray):
        rng = np.random.default_rng(derive_seed(cfg.seed, 31, t))
        if data is None or objective.loss_kind == "quadratic":
            sampled_hvp = BatchHessian.at(objective, data, None, x, ANALYTIC).__matmul__
        else:
            def draw() -> np.ndarray:
                return np.array([rng.integers(data.n_samples)])

            samples = _drawn_batches(objective, data, draw, 1, cfg.s1 * depth)

            def sampled_hvp(u: np.ndarray) -> np.ndarray:
                rows, labels = next(samples)
                return BatchHessian.of_rows(objective, rows, labels, x, ANALYTIC) @ u

        estimates = np.zeros_like(x)
        for _ in range(cfg.s1):
            estimates += neumann_inverse_apply(sampled_hvp, grad, depth, scale)
        return x - cfg.eta * (estimates / cfg.s1), None, None, None

    return _drive(cfg, x0, _step, objective, data, step)


RUNNERS = {
    "gd": run_gd,
    "svrg": run_svrg,
    "newsamp": run_newsamp,
    "lissa": run_lissa,
}
