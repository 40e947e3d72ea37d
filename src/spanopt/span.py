"""The stochastic projected approximate-Newton optimizer.

Each iteration builds one batch Hessian operator H_B, sketches it into an
orthonormal basis U (a powered Gaussian sketch from
:mod:`spanopt.rangefinder` at the first step; after that, one subspace
iteration from the last step's basis), forms the captured block Z^T U with
one more block product, and applies the perturbed inverse

    U (Z^T U)^{-1} U^T  +  (1/lambda) (I - U U^T)

to the full gradient, inverting the block through its eigenpairs.  lambda
is the safeguard 0.5 * sigma_min(Z^T U), recorded in every trace row:
large enough that the complement term does not dominate the inverse, and
small enough for the error analysis with no estimate of the unobservable
sigma_{m+1}(H_B).  By Cauchy interlacing, sigma_min(U^T H_B U) <=
sigma_l(H_B) <= sigma_{m+1}(H_B) for any rank target m < l, so lambda
meets the condition lambda <= 2 sigma_{m+1} that the contraction analysis
needs.

Every method, the baselines of :mod:`spanopt.baselines` included, runs
through this module's one step loop, which steps from a :class:`SpanState`
until ``t_max`` steps or the gradient-norm tolerance, and its one per-step
bracket around the method's update.  The bracket's clock covers
the update and the fused full-data loss and gradient at the new iterate,
whose gradient is carried into the next step; it builds the trace row.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import IndefiniteBlock, NonFiniteResult, RankDeficient, SingularSystem
from .hvp import CENTRAL_FD, HvpMode
from .linalg import EigenPairs, _unoverflowed_norm, derive_seed, qr_orthonormal, spectral_norm_sym, sym_eig_small
from .objectives import (
    BatchHessian,
    Dataset,
    ObjectiveConfig,
    batch_gradient,
    loss_and_gradient,
    sample_batch,
)
from .rangefinder import RangeConfig, power_range

# Stream tags so each stochastic sub-step of an iteration draws from its own
# child of the run seed.
_STREAM_BATCH = 0
_STREAM_SKETCH = 1
_STREAM_PROBE = 2

# Captured-block condition number from which the perturbed inverse is refused.
_BLOCK_COND_LIMIT = 1e12

# Relative stopping tolerance of the Hessian-error probe's power iteration.
_PROBE_TOL = 1e-6


@dataclass(frozen=True)
class Subspace:
    """Per-iteration sketch state from which the approximate inverse is applied.

    ``u`` is the orthonormal (d, l) basis, ``block_eig`` the eigenpairs of
    the symmetrized captured block Z^T U with ``Z = H_B U`` (the block's one
    copy), and ``lam`` the perturbation, half the block's smallest eigenvalue.
    """

    u: np.ndarray
    block_eig: EigenPairs
    lam: float


def _check_run_length(t_max, grad_tol) -> None:
    """Raise ``ValueError`` unless the step loop can run ``t_max`` steps to ``grad_tol``.

    Every method's config calls it: ``t_max`` must be a non-negative
    integer, and ``grad_tol`` non-negative (NaN would never stop a run).
    """
    if not isinstance(t_max, numbers.Integral) or t_max < 0:
        raise ValueError(f"t_max must be a non-negative integer, got {t_max!r}")
    if not grad_tol >= 0:
        raise ValueError("grad_tol must be non-negative")


def _check_count(name: str, value) -> None:
    """Raise ``ValueError`` unless the config field ``name`` is a positive integer.

    Sizes and counts feed ``range`` and index draws, where a fractional
    value would end the run in a ``TypeError``.
    """
    if not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


@dataclass(frozen=True)
class SpanConfig:
    """Driver hyperparameters: iteration budget, sketch shape, batch size, step size."""

    t_max: int
    m: int
    l: int
    q: int
    b: int
    eta: float = 1.0
    seed: int = 0
    grad_tol: float = 0.0
    hvp_mode: HvpMode = CENTRAL_FD
    probe_hessian_error: bool = False

    def __post_init__(self):
        _check_run_length(self.t_max, self.grad_tol)
        _check_count("b", self.b)
        if not isinstance(self.eta, numbers.Real) or not 0 < self.eta < math.inf:
            raise ValueError("eta must be a finite positive number")
        # Raises InvalidRankParams on a bad sketch shape; l <= d waits for the data.
        self.range_config()

    def range_config(self) -> RangeConfig:
        return RangeConfig(l=self.l, q=self.q, m=self.m)


class TraceRecord(NamedTuple):
    """One benchmark row at the iterate a step produced.

    ``wall_clock_s`` is cumulative.  It includes the full-data loss and
    gradient at that iterate (one fused pass, whose gradient the next step
    reuses) and excludes the rest of the trace bookkeeping, such as the
    Hessian-error probe.  A tuple, like :class:`SpanState`: every step of
    every method builds one.
    """

    iteration: int
    wall_clock_s: float
    loss: float
    grad_norm: float
    hessian_err: Optional[float] = None
    lambda_used: Optional[float] = None


class SpanState(NamedTuple):
    """Immutable state between steps, for every method.

    ``subspace`` is span's last sketch, whose basis the next step carries
    forward (``None`` for the baselines); ``grad`` is the full-data gradient
    at ``x``.  A state without them (the start of a run) sketches fresh and
    computes its own gradient.  A tuple, not a dataclass: the loop builds
    one per step, and the cheapest first-order steps take tens of
    microseconds.
    """

    x: np.ndarray
    t: int = 0
    elapsed_s: float = 0.0
    subspace: Optional[Subspace] = None
    grad: Optional[np.ndarray] = None


def assemble_subspace(u: np.ndarray, z: np.ndarray) -> Subspace:
    """Finish subspace construction from a basis and its Hessian image.

    Takes the eigenpairs of the captured block, which :func:`sym_eig_small`
    symmetrizes (finite differences break symmetry at O(h)), sets the
    safeguard to half its smallest eigenvalue, and raises
    :class:`SingularSystem` when the block's smallest eigenvalue is, in
    magnitude, 1e-12 of its largest or less (a zero up to roundoff, on either
    side of 0, or a condition number of 1e12 or more): its inverse would be
    mostly roundoff.  A clearly negative eigenvalue raises
    :class:`IndefiniteBlock`; for the in-scope convex objectives that means
    the model is mis-specified.
    """
    eig = sym_eig_small(z.T @ u)
    smallest = float(eig.values[-1])
    scale = float(np.abs(eig.values).max())
    if abs(smallest) * _BLOCK_COND_LIMIT <= scale:
        raise SingularSystem(
            f"captured block eigenvalue {smallest:.3e} is below 1e-12 of {scale:.3e}"
        )
    if smallest < 0.0:
        raise IndefiniteBlock(
            f"captured block has eigenvalue {smallest:.3e} < 0; "
            "batch Hessian is not positive definite on the sketch"
        )
    return Subspace(u=u, block_eig=eig, lam=0.5 * smallest)


def build_subspace(hessian: BatchHessian, rc: RangeConfig, seed: int) -> Subspace:
    """Sketch the batch Hessian afresh into a basis and set the safeguard perturbation.

    ``U`` is the powered Gaussian sketch from ``seed`` (``2q + 1``
    products); one more product gives ``Z = H_B U``.
    """
    u = power_range(hessian, rc, seed)
    return assemble_subspace(u, hessian @ u)


def apply_inverse(s: Subspace, g: np.ndarray) -> np.ndarray:
    """Apply the perturbed approximate inverse to ``g`` without forming a d x d matrix.

    Cost is O(d l + l^2): the captured block is inverted through its
    eigenpairs, V diag(1/w) V^T, and the complement is scaled by 1/lambda.
    """
    g = np.asarray(g, dtype=float)
    ug = s.u.T @ g
    v, w = s.block_eig.vectors, s.block_eig.values
    # One product with U gives both U c and U U^T g.  Not U (c - ug/lambda) + g/lambda:
    # for lambda << w_max that sum cancels away the captured part.
    captured, projected = (s.u @ np.column_stack((v @ ((v.T @ ug) / w), ug))).T
    return captured + (g - projected) / s.lam


def hessian_error_probe(s: Subspace, hessian: BatchHessian, seed: int) -> float:
    """Operator-norm distance between the constructed and the true batch Hessian.

    Runs the power-iteration probe on the matrix-free difference operator
    v -> (U U^T H_B (U U^T v) + lambda (v - U U^T v)) - H_B v, so nothing
    dense is ever formed.  Both products of an iteration are one block
    product against ``hessian``, the operator ``s`` was built from.

    In finite-difference mode the products are central differences, so the
    difference operator is nonsymmetric at the finite-difference error
    (about 5e-9 of ``||H_B||`` on small logistic problems), and symmetric
    power iteration on it is biased at that level.  A matrix-free transpose
    is not available to remove it; the bias sits far below the iteration's
    own stopping error (1e-6 relative).
    """

    def difference(v: np.ndarray) -> np.ndarray:
        uv = s.u @ (s.u.T @ v)
        h_uv, h_v = (hessian @ np.column_stack([uv, v])).T
        return s.u @ (s.u.T @ h_uv) + s.lam * (v - uv) - h_v

    # At full capture the difference is roundoff-level and slightly
    # nonsymmetric; an absolute floor keyed to the captured block's Frobenius
    # norm lets the probe settle there instead of chasing noise.
    floor = 1e-11 * float(np.linalg.norm(s.block_eig.values))
    return spectral_norm_sym(difference, hessian.x.size, tol=_PROBE_TOL, seed=seed, abs_tol=floor)


# A method's update: ``(t, x, grad) -> (x_next, lambda_used, subspace, probe)``.
# ``subspace`` is the basis to carry, ``None`` outside span; ``probe``, when
# not ``None``, gives the trace row's Hessian error once the clock has stopped.
_Update = Callable[[int, np.ndarray, np.ndarray], tuple]


def _step(
    state: SpanState, objective: ObjectiveConfig, data: Dataset | None, update: _Update
) -> tuple[SpanState, TraceRecord]:
    """One step of any method under the shared clock, and its trace row.

    The clock covers the gradient at ``state.x`` (computed here only at the
    start of a run, carried after that), the update, and the fused
    full-data loss and gradient at the new iterate.  The gradient goes into
    the returned state for the next step; the probe runs off the clock.
    A new row whose loss or gradient norm is not finite raises
    :class:`NonFiniteResult`: the run has diverged.
    """
    start = time.perf_counter()
    grad = state.grad if state.grad is not None else batch_gradient(objective, data, None, state.x)
    x, lambda_used, subspace, probe = update(state.t, state.x, grad)
    loss, grad = loss_and_gradient(objective, data, x)
    elapsed = state.elapsed_s + (time.perf_counter() - start)
    t = state.t + 1
    # np.linalg.norm's own arithmetic for a vector, without its argument handling.
    grad_norm = _unoverflowed_norm(grad, math.sqrt(grad.dot(grad)))
    if not (math.isfinite(loss) and math.isfinite(grad_norm)):
        raise NonFiniteResult(f"loss {loss} or gradient norm {grad_norm} is not finite at step {t}")
    record = TraceRecord(t, elapsed, loss, grad_norm, None if probe is None else probe(), lambda_used)
    return SpanState(x, t, elapsed, subspace, grad), record


def _drive(cfg, x0: np.ndarray, step: Callable, *args) -> tuple[np.ndarray, list[TraceRecord]]:
    """Run ``step(state, *args)`` from ``x0`` for ``cfg.t_max`` steps, or until a
    row's gradient norm is at most a positive ``cfg.grad_tol``."""
    state = SpanState(np.asarray(x0, dtype=float).copy())
    trace: list[TraceRecord] = []
    for _ in range(cfg.t_max):
        state, record = step(state, *args)
        trace.append(record)
        if cfg.grad_tol > 0.0 and record.grad_norm <= cfg.grad_tol:
            break
    return state.x, trace


def span_step(
    state: SpanState,
    objective: ObjectiveConfig,
    data: Dataset | None,
    cfg: SpanConfig,
) -> tuple[SpanState, TraceRecord]:
    """One iteration: sample, sketch, invert, step with the full gradient.

    The update direction uses the full-dataset gradient; only the Hessian
    sketch is batched.  The step builds one batch Hessian operator, which
    the sketch, ``Z`` and the Hessian-error probe share.  The first step of
    a run draws a fresh powered sketch (:func:`build_subspace`); later steps
    carry the state's last basis forward, ``U = qr(H_B U_prev)``, one
    product in place of ``2q + 1``.  When that block is rank-deficient the
    step sketches afresh.  A fresh sketch's seed is derived from the run
    seed and the step index, and only when one is drawn.  The clock, the
    carried gradient and the trace row are the shared step bracket's.
    """

    def update(t: int, x: np.ndarray, grad: np.ndarray):
        batch = None
        if data is not None:
            rng = np.random.default_rng(derive_seed(cfg.seed, _STREAM_BATCH, t))
            batch = sample_batch(data.n_samples, min(cfg.b, data.n_samples), rng)
        hessian = BatchHessian.at(objective, data, batch, x, cfg.hvp_mode)
        u = None
        if state.subspace is not None:
            try:
                u = qr_orthonormal(hessian @ state.subspace.u)
            except RankDeficient:
                pass  # the carried block lost rank: sketch afresh
        if u is None:
            subspace = build_subspace(hessian, cfg.range_config(), derive_seed(cfg.seed, _STREAM_SKETCH, t))
        else:
            subspace = assemble_subspace(u, hessian @ u)
        probe = None
        if cfg.probe_hessian_error:
            def probe():
                return hessian_error_probe(subspace, hessian, derive_seed(cfg.seed, _STREAM_PROBE, t))
        return x - cfg.eta * apply_inverse(subspace, grad), subspace.lam, subspace, probe

    return _step(state, objective, data, update)


def run_span(
    cfg: SpanConfig,
    objective: ObjectiveConfig,
    data: Dataset | None,
    x0: np.ndarray,
) -> tuple[np.ndarray, list[TraceRecord]]:
    """Run the full driver: ``t_max`` steps or until the gradient norm drops below tolerance."""
    return _drive(cfg, x0, span_step, objective, data, cfg)
