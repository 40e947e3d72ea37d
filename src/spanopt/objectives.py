"""Finite-sum objectives: batch loss and gradient, and the batch Hessian operator.

Three loss kinds share one interface: L2-regularized logistic regression,
the smoothed Huber SVM margin loss, and synthetic quadratics with a
prescribed diagonal spectrum.  The quadratic kind carries no samples (batch
arguments are ignored) and exists as the controlled-spectrum test bed.  The
regularizer ``(a/2)||x||^2`` sits outside the sample mean, so it contributes
in full to every batch quantity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import BatchTooLarge, DimensionMismatch, DimensionTooLarge, NonFiniteResult

DENSE_HESSIAN_MAX_DIM = 512

_SQRT_EPS = float(np.sqrt(np.finfo(float).eps))

LOSS_KINDS = ("logistic", "huber_svm", "quadratic")


@dataclass(frozen=True)
class Dataset:
    """Labeled instances: an (n, d) feature matrix and labels in {-1, +1}."""

    features: np.ndarray
    labels: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        features = np.asarray(self.features, dtype=float)
        labels = np.asarray(self.labels, dtype=float)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        if features.ndim != 2:
            raise ValueError("features must be a 2-D array")
        if features.shape[0] < 1 or features.shape[1] < 1:
            raise ValueError("dataset must have at least one sample and one feature")
        if labels.shape != (features.shape[0],):
            raise ValueError("labels must be one per row of features")
        if not np.isfinite(features).all():
            raise ValueError("features contain NaN/Inf")
        if not np.all(np.isin(labels, (-1.0, 1.0))):
            raise ValueError("labels must be exactly -1 or +1")
        if self.normalized:
            norms = np.linalg.norm(features, axis=1)
            nonzero = norms > 0
            if nonzero.any() and np.abs(norms[nonzero] - 1.0).max() > 1e-10:
                raise ValueError("normalized flag set but rows are not unit-norm")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class ObjectiveConfig:
    """Loss kind plus the L2 coefficient; quadratics carry their spectrum here."""

    loss_kind: str
    reg_a: float = 0.0
    quadratic_spectrum: Optional[np.ndarray] = field(default=None)

    def __post_init__(self):
        if self.loss_kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.loss_kind!r}")
        if self.reg_a < 0:
            raise ValueError("reg_a must be non-negative")
        if self.loss_kind == "quadratic":
            if self.quadratic_spectrum is None:
                raise ValueError("quadratic objective needs a spectrum")
            spectrum = np.asarray(self.quadratic_spectrum, dtype=float)
            object.__setattr__(self, "quadratic_spectrum", spectrum)
            if spectrum.ndim != 1 or spectrum.size == 0 or np.any(spectrum <= 0):
                raise ValueError("quadratic spectrum must be positive reals")
        elif self.quadratic_spectrum is not None:
            raise ValueError("quadratic_spectrum only applies to the quadratic kind")

    @property
    def dim(self) -> Optional[int]:
        if self.loss_kind == "quadratic":
            return int(self.quadratic_spectrum.size)
        return None


def _stable_sigmoid(z: np.ndarray) -> np.ndarray:
    # Branch on the sign so exp never overflows (|z| > 30 is routine here).
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _check_x(cfg: ObjectiveConfig, data: Optional[Dataset], x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DimensionMismatch("x must be a vector")
    if cfg.loss_kind == "quadratic":
        if x.size != cfg.quadratic_spectrum.size:
            raise DimensionMismatch(
                f"x has size {x.size}, spectrum has {cfg.quadratic_spectrum.size}"
            )
    else:
        if data is None:
            raise ValueError(f"{cfg.loss_kind} objective requires a dataset")
        if x.size != data.dim:
            raise DimensionMismatch(f"x has size {x.size}, dataset dim is {data.dim}")
    return x


def _batch_rows(cfg: ObjectiveConfig, data: Optional[Dataset], batch: Optional[np.ndarray]) -> tuple:
    """The batch's feature rows and labels; quadratics carry no samples."""
    if cfg.loss_kind == "quadratic":
        return None, None
    if batch is None:
        return data.features, data.labels
    batch = np.asarray(batch, dtype=int)
    if batch.size == 0:
        raise BatchTooLarge("batch must be nonempty")
    return data.features[batch], data.labels[batch]


def _huber_loss_terms(margins: np.ndarray) -> np.ndarray:
    # Branch boundaries (margin 3/2 and 1/2) belong to the smoother side so
    # the gradient stays continuous; the loss value agrees there either way.
    quad = 0.5 * (1.5 - margins) ** 2
    lin = 1.0 - margins
    return np.where(margins >= 1.5, 0.0, np.where(margins >= 0.5, quad, lin))


def _huber_dmargin(margins: np.ndarray) -> np.ndarray:
    return np.where(margins >= 1.5, 0.0, np.where(margins >= 0.5, margins - 1.5, -1.0))


def _huber_curvature(margins: np.ndarray) -> np.ndarray:
    return ((margins >= 0.5) & (margins < 1.5)).astype(float)


def batch_loss(
    cfg: ObjectiveConfig,
    data: Optional[Dataset],
    batch: Optional[np.ndarray],
    x: np.ndarray,
) -> float:
    """Mean loss over the batch plus the full regularizer ``(a/2)||x||^2``."""
    x = _check_x(cfg, data, x)
    rows, labels = _batch_rows(cfg, data, batch)
    return _loss(cfg, x, _margins(rows, labels, x))


def batch_gradient(
    cfg: ObjectiveConfig,
    data: Optional[Dataset],
    batch: Optional[np.ndarray],
    x: np.ndarray,
) -> np.ndarray:
    """Exact gradient of :func:`batch_loss`."""
    x = _check_x(cfg, data, x)
    rows, labels = _batch_rows(cfg, data, batch)
    return _gradient(cfg, rows, labels, x, _margins(rows, labels, x))


def loss_and_gradient(
    cfg: ObjectiveConfig,
    data: Optional[Dataset],
    x: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Full-data loss and gradient at ``x`` from one pass over the data.

    Equal bit for bit to ``batch_loss`` and ``batch_gradient`` with
    ``batch=None``: both come from the same margins by the same arithmetic.
    """
    x = _check_x(cfg, data, x)
    rows, labels = _batch_rows(cfg, data, None)
    margins = _margins(rows, labels, x)
    return _loss(cfg, x, margins), _gradient(cfg, rows, labels, x, margins)


def _margins(rows, labels, x: np.ndarray) -> Optional[np.ndarray]:
    """``labels * (rows @ x)``, column-wise for a (d, k) block; None for quadratics."""
    if rows is None:
        return None
    if x.ndim == 2:
        labels = labels[:, None]
    return labels * (rows @ x)


def _loss(cfg: ObjectiveConfig, x: np.ndarray, margins: Optional[np.ndarray]) -> float:
    reg = 0.5 * cfg.reg_a * float(x @ x)
    if cfg.loss_kind == "quadratic":
        return 0.5 * float(x @ (cfg.quadratic_spectrum * x)) + reg
    if cfg.loss_kind == "logistic":
        return float(np.mean(np.logaddexp(0.0, -margins))) + reg
    return float(np.mean(_huber_loss_terms(margins))) + reg


def _gradient(cfg: ObjectiveConfig, rows, labels, x: np.ndarray, margins) -> np.ndarray:
    """Batch gradient over gathered rows at ``x``, or column-wise at each point of a (d, k) block."""
    if cfg.loss_kind == "quadratic":
        spectrum = cfg.quadratic_spectrum if x.ndim == 1 else cfg.quadratic_spectrum[:, None]
        return spectrum * x + cfg.reg_a * x
    if x.ndim == 2:
        labels = labels[:, None]
    if cfg.loss_kind == "logistic":
        coeff = -labels * _stable_sigmoid(-margins)
    else:
        coeff = _huber_dmargin(margins) * labels
    return rows.T @ coeff / rows.shape[0] + cfg.reg_a * x


def _curvature_weights(cfg: ObjectiveConfig, rows: np.ndarray, labels: np.ndarray, x: np.ndarray):
    if cfg.loss_kind == "logistic":
        s = _stable_sigmoid(rows @ x)
        return s * (1.0 - s)
    return _huber_curvature(labels * (rows @ x))


@dataclass(frozen=True)
class BatchHessian:
    """The batch Hessian ``H_B(x)`` with its batch rows gathered once, for repeated products.

    ``H @ v`` takes a (d,) vector or a (d, k) block.  Analytic products use
    curvature weights computed once, and :meth:`dense` forms the matrix.
    With ``fd_step`` set, products are central differences of the batch
    gradient instead: each column is normalized (so the step never scales
    with ``||v||``, which grows geometrically during power iteration),
    perturbed by ``fd_step = sqrt(eps) * (1 + ||x||)`` both ways and rescaled
    by its own norm, with the ``2k`` perturbed points of a block evaluated in
    one pass; a zero column gives an exact zero.
    """

    cfg: ObjectiveConfig
    x: np.ndarray
    rows: Optional[np.ndarray]  # None for quadratics
    labels: Optional[np.ndarray]
    weights: Optional[np.ndarray] = None  # analytic curvature weights of sampled kinds
    fd_step: Optional[float] = None

    @classmethod
    def at(cls, cfg, data, batch, x, finite_difference: bool = False) -> "BatchHessian":
        """Gather the batch at ``x``, for central-difference products if
        ``finite_difference`` is set and analytic ones otherwise."""
        x = _check_x(cfg, data, x)
        rows, labels = _batch_rows(cfg, data, batch)
        if finite_difference:
            step = _SQRT_EPS * (1.0 + float(np.linalg.norm(x)))
            return cls(cfg, x, rows, labels, fd_step=step)
        weights = None if rows is None else _curvature_weights(cfg, rows, labels, x)
        return cls(cfg, x, rows, labels, weights)

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape[0] != self.x.size:
            raise DimensionMismatch(f"v has leading size {v.shape[0]}, expected {self.x.size}")
        if self.fd_step is not None:
            return self._central_difference(v)
        if self.rows is None:
            scale = self.cfg.quadratic_spectrum + self.cfg.reg_a
            return scale[:, None] * v if v.ndim == 2 else scale * v
        weights = self.weights[:, None] if v.ndim == 2 else self.weights
        return self.rows.T @ (weights * (self.rows @ v)) / self.rows.shape[0] + self.cfg.reg_a * v

    def _central_difference(self, v: np.ndarray) -> np.ndarray:
        block = v if v.ndim == 2 else v[:, None]
        norms = np.linalg.norm(block, axis=0)
        live = norms > 0.0
        steps = block[:, live] * (self.fd_step / norms[live])
        points = np.hstack([self.x[:, None] + steps, self.x[:, None] - steps])
        margins = _margins(self.rows, self.labels, points)
        grads = _gradient(self.cfg, self.rows, self.labels, points, margins)
        out = np.zeros_like(block)
        k = steps.shape[1]
        out[:, live] = (grads[:, :k] - grads[:, k:]) * (norms[live] / (2.0 * self.fd_step))
        if not np.isfinite(out).all():
            raise NonFiniteResult("gradient difference overflowed at the perturbed point")
        return out if v.ndim == 2 else out[:, 0]

    def dense(self) -> np.ndarray:
        """The explicit analytic (d, d) matrix, capped at d <= 512."""
        d = self.x.size
        if d > DENSE_HESSIAN_MAX_DIM:
            raise DimensionTooLarge(f"dense Hessian capped at {DENSE_HESSIAN_MAX_DIM}, got d={d}")
        if self.rows is None:
            return np.diag(self.cfg.quadratic_spectrum + self.cfg.reg_a)
        h = self.rows.T @ (self.weights[:, None] * self.rows) / self.rows.shape[0]
        h = 0.5 * (h + h.T)  # exact symmetry, not just up to BLAS rounding
        h[np.diag_indices(d)] += self.cfg.reg_a
        return h


def exact_hvp(
    cfg: ObjectiveConfig,
    data: Optional[Dataset],
    batch: Optional[np.ndarray],
    x: np.ndarray,
    v: np.ndarray,
) -> np.ndarray:
    """Analytic batch Hessian product ``H_B(x) v``; ``v`` may be a (d, k) block."""
    return BatchHessian.at(cfg, data, batch, x) @ v


def dense_hessian(
    cfg: ObjectiveConfig,
    data: Optional[Dataset],
    batch: Optional[np.ndarray],
    x: np.ndarray,
) -> np.ndarray:
    """Explicit batch Hessian, capped at d <= 512; intended as a test oracle."""
    return BatchHessian.at(cfg, data, batch, x).dense()


def sample_batch(n: int, b: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``b`` distinct indices from ``range(n)`` uniformly, sorted ascending."""
    if b < 1 or b > n:
        raise BatchTooLarge(f"batch size {b} outside [1, {n}]")
    return np.sort(rng.choice(n, size=b, replace=False))
