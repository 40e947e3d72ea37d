"""The stochastic projected approximate-Newton optimizer.

Each iteration sketches the batch Hessian into an orthonormal basis U (see
:mod:`spanopt.rangefinder`; after the first step, by one subspace iteration
from the last step's basis), forms the captured block Z^T U with one more
block Hessian product, and applies the perturbed inverse

    U (Z^T U)^{-1} U^T  +  (1/lambda) (I - U U^T)

to the full gradient, inverting the block through its eigenpairs.  lambda
is the safeguard min( sigma_{m+1}(Z^T U), 0.5 * sigma_min(Z^T U) ): large
enough that the complement term does not dominate the inverse, small
enough that it does not inflate the approximation error.  The true batch
spectrum is unobservable, so both quantities are read off the captured
block; the value actually used is recorded in every trace row.  The
full-data gradient at each iterate is computed once, together with the loss
for the trace row, and carried into the next step.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import IndefiniteBlock, SingularSystem
from .hvp import CENTRAL_FD, HvpMode, batch_hessian
from .linalg import EigenPairs, derive_seed, spectral_norm_sym, sym_eig_small
from .objectives import (
    Dataset,
    ObjectiveConfig,
    batch_gradient,
    loss_and_gradient,
    sample_batch,
)
from .rangefinder import RangeConfig, _warm_range, power_range

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

    ``u`` is the orthonormal (d, l) basis, ``small_block`` the symmetrized
    captured block Z^T U with ``Z = H_B U``, ``block_eig`` its eigenpairs,
    and ``lam`` the perturbation actually used.  ``lambda_min`` is half the
    block's smallest eigenvalue; ``sigma_proxy_m1`` its (m+1)-th eigenvalue,
    the observable stand-in for the batch Hessian's (m+1)-th eigenvalue.
    """

    u: np.ndarray
    small_block: np.ndarray
    block_eig: EigenPairs
    lam: float
    lambda_min: float
    sigma_proxy_m1: float


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
        if self.t_max < 0:
            raise ValueError("t_max must be non-negative")
        if self.b < 1:
            raise ValueError("batch size must be positive")
        if self.grad_tol < 0:
            raise ValueError("grad_tol must be non-negative")
        if not isinstance(self.eta, numbers.Real) or not self.eta > 0:
            raise ValueError("eta must be a positive number")
        # Sketch-shape consistency (including d) is checked by RangeConfig at run time.

    def range_config(self) -> RangeConfig:
        return RangeConfig(l=self.l, q=self.q, m=self.m)


@dataclass(frozen=True)
class TraceRecord:
    """One benchmark row at the iterate a step produced.

    ``wall_clock_s`` is cumulative.  It includes the full-data loss and
    gradient at that iterate (one fused pass, whose gradient the next step
    reuses) and excludes the rest of the trace bookkeeping, such as the
    Hessian-error probe.
    """

    iteration: int
    wall_clock_s: float
    loss: float
    grad_norm: float
    hessian_err: Optional[float] = None
    lambda_used: Optional[float] = None


@dataclass(frozen=True)
class SpanState:
    """Immutable driver state between steps.

    ``subspace`` is the last step's sketch, whose basis the next step
    carries forward; ``grad`` is the full-data gradient at ``x``.  A state
    without them (the start of a run) sketches fresh and computes its own
    gradient.
    """

    x: np.ndarray
    t: int = 0
    elapsed_s: float = 0.0
    subspace: Optional[Subspace] = None
    grad: Optional[np.ndarray] = None


def assemble_subspace(u: np.ndarray, z: np.ndarray, m: int) -> Subspace:
    """Finish subspace construction from a basis and its Hessian image.

    Symmetrizes the captured block (finite differences break symmetry at
    O(h)), reads off the safeguard quantities, and raises
    :class:`SingularSystem` when the block's smallest eigenvalue is, in
    magnitude, 1e-12 of its largest or less (a zero up to roundoff, on either
    side of 0, or a condition number of 1e12 or more): its inverse would be
    mostly roundoff.  A clearly negative eigenvalue raises
    :class:`IndefiniteBlock`; for the in-scope convex objectives that means
    the model is mis-specified.
    """
    block = z.T @ u
    block = 0.5 * (block + block.T)
    eig = sym_eig_small(block)
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
    lambda_min = 0.5 * smallest
    sigma_proxy = float(eig.values[m]) if m < eig.values.size else float(eig.values[-1])
    return Subspace(
        u=u,
        small_block=block,
        block_eig=eig,
        lam=min(lambda_min, sigma_proxy),
        lambda_min=lambda_min,
        sigma_proxy_m1=sigma_proxy,
    )


def build_subspace(
    cfg: ObjectiveConfig,
    data: Dataset | None,
    batch: np.ndarray | None,
    x: np.ndarray,
    rc: RangeConfig,
    seed: int,
    mode: HvpMode = CENTRAL_FD,
) -> Subspace:
    """Sketch the batch Hessian at ``x`` and pick the safeguard perturbation.

    One operator serves the ``2q + 1`` sketch products and ``Z = H_B U``.
    """
    hessian = batch_hessian(cfg, data, batch, x, mode)
    u = power_range(hessian, rc, seed)
    return assemble_subspace(u, hessian @ u, rc.m)


def apply_inverse(s: Subspace, g: np.ndarray) -> np.ndarray:
    """Apply the perturbed approximate inverse to ``g`` without forming a d x d matrix.

    Cost is O(d l + l^2): the captured block is inverted through its
    eigenpairs, V diag(1/w) V^T, and the complement is scaled by 1/lambda.
    """
    g = np.asarray(g, dtype=float)
    ug = s.u.T @ g
    v, w = s.block_eig.vectors, s.block_eig.values
    captured = s.u @ (v @ ((v.T @ ug) / w))
    return captured + (g - s.u @ ug) / s.lam


def hessian_error_probe(
    s: Subspace,
    cfg: ObjectiveConfig,
    data: Dataset | None,
    batch: np.ndarray | None,
    x: np.ndarray,
    mode: HvpMode = CENTRAL_FD,
    seed: int = 0,
) -> float:
    """Operator-norm distance between the constructed and the true batch Hessian.

    Runs the power-iteration probe on the matrix-free difference operator
    v -> (U U^T H_B (U U^T v) + lambda (v - U U^T v)) - H_B v, so nothing
    dense is ever formed.  Both products of an iteration are one block
    product against an operator built once for the whole probe.

    In finite-difference mode the products are central differences, so the
    difference operator is nonsymmetric at the finite-difference error
    (about 5e-9 of ``||H_B||`` on small logistic problems), and symmetric
    power iteration on it is biased at that level.  A matrix-free transpose
    is not available to remove it; the bias sits far below the iteration's
    own stopping error (1e-6 relative).
    """
    hessian = batch_hessian(cfg, data, batch, x, mode)

    def difference(v: np.ndarray) -> np.ndarray:
        uv = s.u @ (s.u.T @ v)
        h_uv, h_v = (hessian @ np.column_stack([uv, v])).T
        return s.u @ (s.u.T @ h_uv) + s.lam * (v - uv) - h_v

    # At full capture the difference is roundoff-level and slightly
    # nonsymmetric; an absolute floor keyed to the captured block's scale
    # lets the probe settle there instead of chasing noise.
    floor = 1e-11 * float(np.linalg.norm(s.small_block))
    return spectral_norm_sym(difference, hessian.x.size, tol=_PROBE_TOL, seed=seed, abs_tol=floor)


def span_step(
    state: SpanState,
    objective: ObjectiveConfig,
    data: Dataset | None,
    cfg: SpanConfig,
) -> tuple[SpanState, TraceRecord]:
    """One iteration: sample, sketch, invert, step with the full gradient.

    The update direction uses the full-dataset gradient; only the Hessian
    sketch is batched.  The first step of a run draws a fresh powered
    sketch; later steps take ``U = qr(H_B U_prev)`` from the state's last
    basis and sketch fresh only if that block is rank-deficient, always from
    the step's own derived seed.  The loss and gradient at ``x_{t+1}`` come
    from one full-data pass inside the step's wall clock; the gradient is
    carried in the returned state, and the trace row reports both.
    """
    t = state.t
    start = time.perf_counter()

    batch = None
    if data is not None:
        rng = np.random.default_rng(derive_seed(cfg.seed, _STREAM_BATCH, t))
        batch = sample_batch(data.n_samples, min(cfg.b, data.n_samples), rng)
    rc = cfg.range_config()
    hessian = batch_hessian(objective, data, batch, state.x, cfg.hvp_mode)
    previous = None if state.subspace is None else state.subspace.u
    u = _warm_range(hessian, rc, derive_seed(cfg.seed, _STREAM_SKETCH, t), previous)
    subspace = assemble_subspace(u, hessian @ u, rc.m)
    grad = state.grad if state.grad is not None else batch_gradient(objective, data, None, state.x)
    x_next = state.x - cfg.eta * apply_inverse(subspace, grad)
    loss, grad_next = loss_and_gradient(objective, data, x_next)

    elapsed = state.elapsed_s + (time.perf_counter() - start)

    hessian_err = None
    if cfg.probe_hessian_error:
        hessian_err = hessian_error_probe(
            subspace, objective, data, batch, state.x,
            mode=cfg.hvp_mode, seed=derive_seed(cfg.seed, _STREAM_PROBE, t),
        )
    record = TraceRecord(
        iteration=t + 1,
        wall_clock_s=elapsed,
        loss=loss,
        grad_norm=float(np.linalg.norm(grad_next)),
        hessian_err=hessian_err,
        lambda_used=subspace.lam,
    )
    return SpanState(x=x_next, t=t + 1, elapsed_s=elapsed, subspace=subspace, grad=grad_next), record


def run_span(
    cfg: SpanConfig,
    objective: ObjectiveConfig,
    data: Dataset | None,
    x0: np.ndarray,
) -> tuple[np.ndarray, list[TraceRecord]]:
    """Run the full driver: ``t_max`` steps or until the gradient norm drops below tolerance."""
    state = SpanState(x=np.asarray(x0, dtype=float).copy())
    trace: list[TraceRecord] = []
    for _ in range(cfg.t_max):
        state, record = span_step(state, objective, data, cfg)
        trace.append(record)
        if cfg.grad_tol > 0.0 and record.grad_norm <= cfg.grad_tol:
            break
    return state.x, trace
