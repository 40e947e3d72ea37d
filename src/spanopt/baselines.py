"""Reference optimizers for head-to-head benchmarking.

Gradient descent, variance-reduced SGD with snapshots, truncated-eigenvalue
subsampled Newton, and Neumann-series inverse estimation each supply one
update, ``step(t, x, grad, margins)``, and run it through the step loop of
:mod:`spanopt.span`: its stop rule, and its per-step bracket, whose
cumulative wall clock includes the one full-data pass at each new iterate,
the only one of a step, and which builds the full-gradient trace rows.  The
pass's gradient and per-sample margins are carried into the next update:
svrg's snapshot takes the gradient and ``phi'`` of the margins, and lissa
the margins' curvature weights.  svrg and lissa walk their drawn batches
with :func:`~spanopt.objectives.gathered_batches`.
A baseline's update returns the next iterate, its lambda column (newsamp's
flattening eigenvalue, else ``None``) and ``None, None``: it carries no
basis and has no probe.  Determinism is keyed by the config seed.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DivergingSeries, IndefiniteBlock, InvalidRankParams, NonFiniteResult, SingularSystem
from .hvp import ANALYTIC
from .linalg import derive_seed, sym_eig_small
from .objectives import (
    _CURVATURE_MAX,
    BatchHessian,
    Dataset,
    ObjectiveConfig,
    _check_x,
    _curvature_weights,
    _margin_derivative,
    _row_squared_norms,
    batch_gradient_difference,
    draw_batch,
    gathered_batches,
    sample_batches,
)
from .span import TraceRecord, _check_count, _check_run_length, _drive, _step

_DIVERGENCE_LIMIT = 1e8

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
        if not isinstance(self.eta, numbers.Real) or not 0 <= self.eta < math.inf:
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
    return _drive(cfg, x0, _step, objective, data, lambda t, x, grad, margins: (x - cfg.eta * grad, None, None, None))


def run_svrg(
    cfg: BaselineConfig,
    objective: ObjectiveConfig,
    data: Dataset,
    x0: np.ndarray,
) -> tuple[np.ndarray, list[TraceRecord]]:
    """Snapshot-based variance-reduced SGD (Johnson & Zhang, 2013); one trace row per epoch.

    Each epoch snapshots the current iterate, whose full gradient and
    per-sample margins the step bracket's pass already computed, and takes
    the loss derivative ``phi'`` of each margin (elementwise, no product).
    It then takes ``inner_steps`` batched steps (default: one pass,
    ceil(N / b)).  The epoch's batches come from one :func:`sample_batches`
    call, and :func:`gathered_batches` yields their signed rows and stored
    entries.  The epoch carries the iterate ``w`` as its offset
    ``r = w - snapshot``, from ``r = 0``.  A step moves along
    ``grad f_B(w) - grad f_B(snapshot) + grad F(snapshot)``, whose first
    two terms are one :func:`batch_gradient_difference` of ``r``: one
    product of the batch rows with it and one transposed product, exactly
    zero at ``r = 0``.  An epoch whose iterate ends non-finite raises
    :class:`NonFiniteResult`; it is checked once per epoch, not per inner
    step.
    """
    if data is None or objective.loss_kind == "quadratic":
        raise ValueError("svrg needs sampled data, and quadratics carry no samples")
    n = data.n_samples
    b = min(cfg.b, n)
    steps_per_epoch = cfg.inner_steps or max(1, -(-n // cfg.b))

    def epoch(t: int, snapshot: np.ndarray, snapshot_grad: np.ndarray, margins: np.ndarray):
        rng = np.random.default_rng(derive_seed(cfg.seed, 10, t))
        derivatives = _margin_derivative(objective, margins)
        r = np.zeros_like(snapshot)  # the iterate's offset from the snapshot
        batches = gathered_batches(objective, data, sample_batches(n, b, steps_per_epoch, rng), margins, derivatives)
        with np.errstate(over="ignore", invalid="ignore"):  # a diverged epoch fails the check below
            for rows, batch_margins, batch_derivatives in batches:
                difference = batch_gradient_difference(objective, rows, r, batch_margins, batch_derivatives)
                r = r - cfg.eta * (difference + snapshot_grad)
            x = snapshot + r
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
    lambda column of the trace.  Every batch of a run on sampled data comes
    from one generator, seeded once from the run seed; a quadratic run
    draws nothing and creates none.
    """
    rng = None if data is None else np.random.default_rng(derive_seed(cfg.seed, 20))

    def step(t: int, x: np.ndarray, grad: np.ndarray, margins: np.ndarray):
        batch = draw_batch(data, cfg.b, rng)
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


def lissa_hessian_scale(objective: ObjectiveConfig, data: Dataset | None, x0: np.ndarray) -> float:
    """1.25 times a bound on the norm of every single-sample Hessian, at any iterate.

    A sample's Hessian ``c a a^T + reg_a I`` has norm ``c ||a||^2 + reg_a``,
    and its curvature weight ``c`` is at most 1/4 for logistic loss and 1 for
    Huber, so ``c_max max_i ||a_i||^2 + reg_a`` bounds them all; a quadratic's
    Hessian ``diag(s) + reg_a I`` has norm ``max s + reg_a``.  Divided by this
    scale, every sample's Hessian has norm below one wherever the iterate
    goes, so no Neumann step grows a direction.  With ``reg_a = 0``, a
    Hessian that is zero at ``x0``, every sample whose row is nonzero having
    zero curvature weight at its margin, raises :class:`SingularSystem`.  A
    scale that overflows raises :class:`NonFiniteResult`.
    """
    x0 = _check_x(objective, data, x0)
    if objective.loss_kind == "quadratic":
        bound = float(objective.quadratic_spectrum.max())
    else:
        squared_norms = _row_squared_norms(data)
        bound = _CURVATURE_MAX[objective.loss_kind] * float(squared_norms.max())
    scale = 1.25 * (bound + objective.reg_a)
    if not math.isfinite(scale):
        raise NonFiniteResult("lissa's Hessian scale overflows")
    if not objective.reg_a and objective.loss_kind != "quadratic":
        weights = BatchHessian.at(objective, data, None, x0, ANALYTIC).weights
        if not np.any((weights > 0.0) & (squared_norms > 0.0)):
            raise SingularSystem("objective has zero curvature at x0")
    return scale


def run_lissa(
    cfg: BaselineConfig,
    objective: ObjectiveConfig,
    data: Dataset | None,
    x0: np.ndarray,
) -> tuple[np.ndarray, list[TraceRecord]]:
    """Newton steps with the inverse estimated by stochastic Neumann recursion.

    Each iteration averages ``s1`` independent depth-``inner_steps``
    recursions whose Hessian products come from single random samples
    (analytic GLM products).  An iteration's ``s1 * inner_steps`` samples
    come from one ``sample_batches(n, 1, count, rng)`` call, the same stream
    as one ``rng.integers(n)`` per sample, and :func:`gathered_batches`
    yields their rows and their curvature weights, taken elementwise from
    the step bracket's margins at ``x``, so a sample makes no margin
    product.  Each sample's analytic operator ``w (a·v) a`` takes its
    signed row as it comes.  The recursion runs on the objective divided by
    :func:`lissa_hessian_scale`, a bound on every sample's Hessian norm, and
    the resulting direction is unscaled.
    """
    depth = cfg.inner_steps if cfg.inner_steps is not None else 100
    scale = lissa_hessian_scale(objective, data, x0)

    def step(t: int, x: np.ndarray, grad: np.ndarray, margins: np.ndarray):
        rng = np.random.default_rng(derive_seed(cfg.seed, 31, t))
        if data is None or objective.loss_kind == "quadratic":
            hessians = itertools.repeat(BatchHessian.at(objective, data, None, x, ANALYTIC))
        else:
            indices = sample_batches(data.n_samples, 1, cfg.s1 * depth, rng)
            samples = gathered_batches(objective, data, indices, _curvature_weights(objective, margins))
            hessians = (BatchHessian(objective, x, rows, weights) for rows, weights in samples)
        estimates = np.zeros_like(x)
        for _ in range(cfg.s1):
            estimates += neumann_inverse_apply(lambda u: next(hessians) @ u, grad, depth, scale)
        return x - cfg.eta * (estimates / cfg.s1), None, None, None

    return _drive(cfg, x0, _step, objective, data, step)


RUNNERS = {
    "gd": run_gd,
    "svrg": run_svrg,
    "newsamp": run_newsamp,
    "lissa": run_lissa,
}

METHODS = tuple(RUNNERS)
