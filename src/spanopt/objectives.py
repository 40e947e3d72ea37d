"""Finite-sum objectives: batch loss and gradient, and the batch Hessian operator.

Three loss kinds share one interface: L2-regularized logistic regression,
the smoothed Huber SVM margin loss, and synthetic quadratics with a
prescribed diagonal spectrum.  The quadratic kind carries no samples (batch
arguments are ignored) and exists as the controlled-spectrum test bed.  The
regularizer ``(a/2)||x||^2`` sits outside the sample mean, so it contributes
in full to every batch quantity.

A :class:`Dataset` stores its features dense or as ``scipy.sparse`` CSR.
Every sampled computation reads them through :func:`_batch_rows` and the
same few products (``rows @ x``, ``rows.T @ y``), which both formats
provide, so one code path serves both.  This module never imports scipy: only
CSR data, built by whoever imported it, brings it in.

Each pass forms one per-pass quantity that its loss and gradient share: the
margins ``m = labels * (rows @ x)`` of a sampled kind, or a quadratic's one
product ``s * x`` with its spectrum ``s``, from which the loss is
``0.5 * x @ (s * x)`` and the gradient is ``s * x`` itself.  The logistic
full-data pass takes one ``exp`` per sample: the loss terms
``max(-m, 0) + log1p(e)`` and the margin derivative ``-sigmoid(-m)`` both
come from the same ``e = exp(-|m|)`` of each margin ``m``.  A zero
regularizer costs nothing: ``x @ x`` and ``a * x`` are taken only when
``a != 0``, and a quadratic's Hessian diagonal is then its spectrum.

The per-sample kernels (the full pass, :class:`BatchHessian` products, the
margin derivative and the curvature weights) write their elementwise steps
in place, into arrays they allocated themselves, and never into an array a
caller passed in.  Each element still takes the same IEEE operations in the
same order as the plain expressions, apart from commuting a single product or
sum, so the results are the same bits with fewer full-size temporaries.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

import numpy as np

from .errors import BatchTooLarge, DimensionMismatch, DimensionTooLarge, NonFiniteResult
from .hvp import HvpMode
from .linalg import derive_seed

DENSE_HESSIAN_MAX_DIM = 512

_SQRT_EPS = float(np.sqrt(np.finfo(float).eps))

LOSS_KINDS = ("logistic", "huber_svm", "quadratic")


def _check_fits(entries: int, what: str) -> None:
    """Raise :class:`DimensionTooLarge` before allocating ``entries`` 8-byte values beyond physical memory."""
    needed = entries * 8
    available = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if needed > available:
        raise DimensionTooLarge(f"{what} needs {needed} bytes, more than the {available} bytes of physical memory")


@dataclass(frozen=True, init=False)
class Dataset:
    """Labeled instances: an (n, d) feature matrix and labels in {-1, +1}.

    ``features`` is anything numpy reads as a 2-D float array, stored dense,
    or a ``scipy.sparse`` matrix, stored in canonical CSR form (sorted
    indices, no duplicates).  ``matrix`` is the matrix as stored; the
    ``features`` property is always the dense ndarray, built on each access
    for CSR data.  A CSR dataset whose single dense feature vector would not
    fit in physical memory raises :class:`DimensionTooLarge`: every solve
    needs such vectors.
    """

    matrix: Any  # (n, d) float ndarray, or a scipy.sparse CSR array
    labels: np.ndarray

    def __init__(self, features, labels):
        sparse = sys.modules.get("scipy.sparse")  # a sparse matrix means scipy is loaded
        csr = sparse is not None and sparse.issparse(features)
        if csr:
            matrix = sparse.csr_array(features, dtype=float)
            if not matrix.has_canonical_format:
                matrix = matrix.copy()
                matrix.sum_duplicates()
        else:
            matrix = np.asarray(features, dtype=float)
            if matrix.ndim != 2:
                raise ValueError("features must be a 2-D array")
        values = matrix.data if csr else matrix
        labels = np.asarray(labels, dtype=float)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "labels", labels)
        if matrix.shape[0] < 1 or matrix.shape[1] < 1:
            raise ValueError("dataset must have at least one sample and one feature")
        if labels.shape != (matrix.shape[0],):
            raise ValueError("labels must be one per row of features")
        if not np.isfinite(values).all():
            raise ValueError("features contain NaN/Inf")
        if not np.all(np.isin(labels, (-1.0, 1.0))):
            raise ValueError("labels must be exactly -1 or +1")
        if csr:
            _check_fits(matrix.shape[1], f"a feature vector of dimension {matrix.shape[1]}")

    @property
    def features(self) -> np.ndarray:
        """The dense (n, d) feature matrix; for CSR data a new array, refused beyond physical memory."""
        if isinstance(self.matrix, np.ndarray):
            return self.matrix
        n, d = self.matrix.shape
        _check_fits(n * d, f"dense {n} x {d} feature matrix")
        return self.matrix.toarray()

    @property
    def stored(self) -> int:
        """Feature entries the matrix stores: ``n * d`` dense, the nonzeros for CSR."""
        return int(self.matrix.size)

    @property
    def n_samples(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class ObjectiveConfig:
    """Loss kind plus the L2 coefficient; quadratics carry their spectrum here."""

    loss_kind: str
    reg_a: float = 0.0
    quadratic_spectrum: Optional[np.ndarray] = field(default=None)

    def __post_init__(self):
        if self.loss_kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.loss_kind!r}")
        if not 0 <= self.reg_a < math.inf:
            raise ValueError("reg_a must be a finite non-negative number")
        if self.loss_kind == "quadratic":
            if self.quadratic_spectrum is None:
                raise ValueError("quadratic objective needs a spectrum")
            spectrum = np.asarray(self.quadratic_spectrum, dtype=float)
            object.__setattr__(self, "quadratic_spectrum", spectrum)
            if spectrum.ndim != 1 or spectrum.size == 0 or not 0 < spectrum.min() <= spectrum.max() < math.inf:
                raise ValueError("quadratic spectrum must be positive finite reals")
        elif self.quadratic_spectrum is not None:
            raise ValueError("quadratic_spectrum only applies to the quadratic kind")

    @property
    def dim(self) -> Optional[int]:
        if self.loss_kind == "quadratic":
            return int(self.quadratic_spectrum.size)
        return None


def _exp_neg_abs(z: np.ndarray) -> np.ndarray:
    # exp(-|z|) never overflows (|z| > 30 is routine here).
    e = np.abs(z)
    np.negative(e, out=e)
    return np.exp(e, out=e)


def _sigmoid_where(upper: np.ndarray, e: np.ndarray) -> np.ndarray:
    # The numerator picks 1/(1 + e^-z) where ``upper`` (z >= 0) and
    # e^z/(1 + e^z) below, without masked gathers.  Taking the mask rather
    # than z spares the margin derivative a negated copy of its margins.
    # ``e`` is not written.
    s = np.where(upper, 1.0, e)
    s /= 1.0 + e
    return s


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
        return data.matrix, data.labels
    batch = np.asarray(batch, dtype=int)
    if batch.size == 0:
        raise BatchTooLarge("batch must be nonempty")
    return data.matrix[batch], data.labels[batch]


def _huber_loss_terms(margins: np.ndarray) -> np.ndarray:
    # Branch boundaries (margin 3/2 and 1/2) belong to the smoother side so
    # the gradient stays continuous; the loss value agrees there either way.
    # Clipped to the branch's own range, so a discarded margin's square cannot overflow.
    quad = 0.5 * np.clip(1.5 - margins, 0.0, 1.0) ** 2
    lin = 1.0 - margins
    return np.where(margins >= 1.5, 0.0, np.where(margins >= 0.5, quad, lin))


def _huber_dmargin(margins: np.ndarray) -> np.ndarray:
    return np.where(margins >= 1.5, 0.0, np.where(margins >= 0.5, margins - 1.5, -1.0))


def _huber_curvature(margins: np.ndarray) -> np.ndarray:
    return ((margins >= 0.5) & (margins < 1.5)).astype(float)


def _checked_pass(cfg: ObjectiveConfig, data: Optional[Dataset], batch: Optional[np.ndarray], x: np.ndarray) -> tuple:
    """The batch's rows and labels, the checked ``x``, and the margins (a quadratic's ``spectrum * x``)."""
    x = _check_x(cfg, data, x)
    rows, labels = _batch_rows(cfg, data, batch)
    return rows, labels, x, cfg.quadratic_spectrum * x if rows is None else _margins(rows, labels, x)


def batch_loss(
    cfg: ObjectiveConfig,
    data: Optional[Dataset],
    batch: Optional[np.ndarray],
    x: np.ndarray,
) -> float:
    """Mean loss over the batch plus the full regularizer ``(a/2)||x||^2``."""
    _, _, x, margins = _checked_pass(cfg, data, batch, x)
    return _loss(cfg, x, margins)


def batch_gradient(
    cfg: ObjectiveConfig,
    data: Optional[Dataset],
    batch: Optional[np.ndarray],
    x: np.ndarray,
) -> np.ndarray:
    """Exact gradient of :func:`batch_loss`."""
    return _gradient(cfg, *_checked_pass(cfg, data, batch, x))


def loss_and_gradient(
    cfg: ObjectiveConfig,
    data: Optional[Dataset],
    x: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Full-data loss and gradient at ``x`` from one pass over the data.

    Equal bit for bit to ``batch_loss`` and ``batch_gradient`` with
    ``batch=None``: both come from the same per-pass quantity (the margins,
    or a quadratic's ``s * x``) by the same arithmetic.  For logistic loss
    the pass takes one ``exp`` per sample, ``exp(-|m|)`` of each margin,
    which the loss and the margin derivative share.
    """
    rows, labels, x, margins = _checked_pass(cfg, data, None, x)
    e = _exp_neg_abs(margins) if cfg.loss_kind == "logistic" else None
    return _loss(cfg, x, margins, e), _gradient(cfg, rows, labels, x, margins, e)


def _margins(rows, labels, x: np.ndarray) -> np.ndarray:
    """``labels * (rows @ x)``, column-wise for a (d, k) block."""
    if x.ndim == 2:
        labels = labels[:, None]
    margins = rows @ x
    margins *= labels
    return margins


def _loss(cfg: ObjectiveConfig, x: np.ndarray, margins: np.ndarray, e=None) -> float:
    """Mean loss plus regularizer from :func:`_checked_pass`'s ``margins`` (``s * x`` for a quadratic).

    ``e`` is ``exp(-|margins|)`` when the caller has it.  A zero ``reg_a``
    adds nothing, so an overflowing ``x @ x`` cannot turn the loss into
    ``0 * inf = nan``.
    """
    if cfg.loss_kind == "quadratic":
        loss = 0.5 * float(x @ margins)
    elif cfg.loss_kind == "logistic":
        # log(1 + exp(-m)) = max(-m, 0) + log1p(exp(-|m|)), with no overflow.
        if e is None:
            e = _exp_neg_abs(margins)
        terms = np.negative(margins)
        np.maximum(terms, 0.0, out=terms)
        terms += np.log1p(e)
        loss = float(np.mean(terms))
    else:
        loss = float(np.mean(_huber_loss_terms(margins)))
    if cfg.reg_a:
        loss += 0.5 * cfg.reg_a * float(x @ x)
    return loss


def _margin_derivative(cfg: ObjectiveConfig, margins: np.ndarray, e=None) -> np.ndarray:
    """Derivative of the per-sample loss with respect to its margin, in a new array.

    ``e`` is ``exp(-|margins|)`` when the caller has it; neither is written.
    """
    if cfg.loss_kind == "logistic":
        # -sigmoid(-m): -m >= 0 exactly where m <= 0, and exp(-|-m|) is e.
        s = _sigmoid_where(margins <= 0.0, _exp_neg_abs(margins) if e is None else e)
        return np.negative(s, out=s)
    return _huber_dmargin(margins)


def _gradient(cfg: ObjectiveConfig, rows, labels, x: np.ndarray, margins, e=None) -> np.ndarray:
    """Batch gradient over gathered rows at ``x`` from :func:`_checked_pass`'s ``margins``.

    A quadratic's gradient is its ``margins``, ``s * x``, when ``reg_a`` is
    zero: the caller's array, returned as it is.
    """
    if cfg.loss_kind == "quadratic":
        return margins + cfg.reg_a * x if cfg.reg_a else margins
    y = _margin_derivative(cfg, margins, e)
    y *= labels
    grad = rows.T @ y
    grad /= rows.shape[0]
    if cfg.reg_a:
        grad += cfg.reg_a * x
    return grad


def _curvature_weights(cfg: ObjectiveConfig, margins: np.ndarray):
    if cfg.loss_kind == "logistic":
        # sigmoid(m) sigmoid(-m) = e / (1 + e)^2: even in m, and accurate to a
        # few ulps where sigmoid(m) itself rounds to 1.
        e = _exp_neg_abs(margins)
        weights = 1.0 + e
        np.square(weights, out=weights)
        return np.divide(e, weights, out=weights)
    return _huber_curvature(margins)


@dataclass(frozen=True)
class BatchHessian:
    """The batch Hessian ``H_B(x)`` with its batch rows gathered once, for repeated products.

    :meth:`at` gathers a batch and builds the operator; :meth:`of_rows`
    builds it over rows already gathered by :func:`gather_batches`, which
    support products but not :meth:`dense`.  ``H @ v`` takes a (d,) vector or a
    (d, k) block.  A quadratic's ``weights`` are its diagonal ``spectrum + a``
    (the config's own spectrum array when ``a`` is zero), its product
    ``weights * v`` in both modes: the central difference of its linear
    gradient, exactly.  A sampled kind's ``margins`` are its base
    margins ``m0 = labels * (rows @ x)``, in both modes, and every product
    takes one path, ``t = rows @ v``, then a per-sample term ``y``, then
    ``rows.T @ y / b + a v``; the modes differ only in ``y``.  Analytic
    ``weights`` are the curvature weights at ``m0``, and ``y = weights * t``.
    With ``fd_step`` ``h`` set there are no ``weights``, and ``y`` is a
    central difference of the margin derivative ``phi'``:
    ``labels * (phi'(m0 + delta) - phi'(m0 - delta)) * ||v|| / (2h)`` with
    ``delta = labels * t * h / ||v||`` per column.  So the perturbation along
    each column has size ``h = sqrt(eps) * (1 + ||x||)`` whatever ``||v||``
    is (it grows geometrically during power iteration), a zero column
    gives an exact zero, and a column of infinite or NaN norm raises
    :class:`NonFiniteResult`.  :meth:`dense` forms the analytic matrix in either
    mode.  A product writes only into arrays it allocates: ``t`` becomes
    ``y`` (analytic) or ``delta`` in place, and ``m0 - delta`` then reuses
    ``delta``'s buffer.  It never writes ``v``, the stored ``margins``,
    ``weights`` or ``labels``, or the rows.
    """

    cfg: ObjectiveConfig
    x: np.ndarray
    rows: Any  # the batch rows, dense or CSR; None for quadratics
    labels: Optional[np.ndarray]
    weights: Optional[np.ndarray]  # a quadratic's diagonal, or analytic curvature weights
    margins: Optional[np.ndarray] = None  # base margins of sampled kinds
    fd_step: Optional[float] = None

    @classmethod
    def at(cls, cfg, data, batch, x, mode: HvpMode) -> "BatchHessian":
        """Gather the batch at ``x`` for products in ``mode``: central differences or analytic."""
        x = _check_x(cfg, data, x)
        rows, labels = _batch_rows(cfg, data, batch)
        return cls.of_rows(cfg, rows, labels, x, mode)

    @classmethod
    def of_rows(cls, cfg, rows, labels, x: np.ndarray, mode: HvpMode) -> "BatchHessian":
        """The operator at a checked ``x`` over gathered batch rows and labels."""
        if rows is None:
            spectrum = cfg.quadratic_spectrum
            return cls(cfg, x, None, None, spectrum + cfg.reg_a if cfg.reg_a else spectrum)
        margins = _margins(rows, labels, x)
        if mode.kind == "finite_difference":
            return cls(cfg, x, rows, labels, None, margins, _SQRT_EPS * (1.0 + float(np.linalg.norm(x))))
        return cls(cfg, x, rows, labels, _curvature_weights(cfg, margins), margins)

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape[0] != self.x.size:
            raise DimensionMismatch(f"v has leading size {v.shape[0]}, expected {self.x.size}")
        if self.rows is None:
            return self.weights[:, None] * v if v.ndim == 2 else self.weights * v
        per_sample = (slice(None), None) if v.ndim == 2 else slice(None)  # a (b,) array against each column
        t = self.rows @ v
        if self.fd_step is None:
            t *= self.weights[per_sample]
            y = t
        else:
            norms = np.linalg.norm(v, axis=0)
            if not np.isfinite(norms).all():
                raise NonFiniteResult("direction has a non-finite norm")
            labels, m0 = self.labels[per_sample], self.margins[per_sample]
            t *= labels
            t *= self.fd_step / np.where(norms > 0.0, norms, 1.0)  # t is delta now
            y = _margin_derivative(self.cfg, m0 + t)
            y -= _margin_derivative(self.cfg, np.subtract(m0, t, out=t))
            y *= labels
            y *= norms / (2.0 * self.fd_step)
        out = self.rows.T @ y
        out /= self.rows.shape[0]
        out += self.cfg.reg_a * v
        if self.fd_step is not None and not np.isfinite(out).all():
            raise NonFiniteResult("gradient difference overflowed at the perturbed point")
        return out

    def dense(self) -> np.ndarray:
        """The explicit (d, d) matrix of ``H_B(x)`` in any product mode, capped at d <= 512.

        A finite-difference operator stores no curvature weights, so they are
        computed here from its margins; the matrix is the analytic one either way.
        """
        d = self.x.size
        if d > DENSE_HESSIAN_MAX_DIM:
            raise DimensionTooLarge(f"dense Hessian capped at {DENSE_HESSIAN_MAX_DIM}, got d={d}")
        if self.rows is None:
            return np.diag(self.weights)
        weights = self.weights
        if weights is None:
            weights = _curvature_weights(self.cfg, self.margins)
        if isinstance(self.rows, np.ndarray):
            h = self.rows.T @ (weights[:, None] * self.rows) / self.rows.shape[0]
        else:
            h = (self.rows.T @ self.rows.multiply(weights[:, None])).toarray() / self.rows.shape[0]
        h = 0.5 * (h + h.T)  # exact symmetry, not just up to BLAS rounding
        h[np.diag_indices(d)] += self.cfg.reg_a
        return h


class _Coordinates:
    """A few sparse rows as (row, column, value) triples.

    Supports the products the objectives take, ``rows @ x`` for a vector or a
    block and ``rows.T @ y``, as numpy bincounts that add each row's terms in
    stored order.  A batch of a few rows then costs a few microseconds where
    scipy spends tens on each call.
    """

    def __init__(self, rows: np.ndarray, cols: np.ndarray, values: np.ndarray, shape: tuple[int, int]):
        self.rows, self.cols, self.values, self.shape = rows, cols, values, shape

    @property
    def T(self) -> "_Coordinates":
        return _Coordinates(self.cols, self.rows, self.values, self.shape[::-1])

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        if x.ndim == 1:
            if not self.values.size:  # bincount of no entries is int64, whatever its weights
                return np.zeros(self.shape[0])
            return np.bincount(self.rows, weights=self.values * x[self.cols], minlength=self.shape[0])
        out = np.empty((self.shape[0], x.shape[1]))
        for j in range(x.shape[1]):
            out[:, j] = self @ x[:, j]
        return out


def gather_batches(cfg: ObjectiveConfig, data: Dataset, batches: Sequence[np.ndarray]) -> list[tuple]:
    """Each batch's ``(rows, labels)``, with the rows of all the batches gathered at once.

    Dense rows are views into one gathered block.  CSR rows are
    coordinate triples cut from one gathered CSR block, so a batch of a few
    rows takes no scipy call of its own.  Sampled kinds only: quadratics carry
    no samples.
    """
    sizes = [len(batch) for batch in batches]
    rows, labels = _batch_rows(cfg, data, np.concatenate(batches))
    bounds = np.cumsum([0] + sizes).tolist()
    if isinstance(rows, np.ndarray):
        return [(rows[lo:hi], labels[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    # Each stored value's row, counted from the first row of its own batch.
    row_in_batch = np.arange(rows.shape[0]) - np.repeat(bounds[:-1], sizes)
    local = np.repeat(row_in_batch, np.diff(rows.indptr))
    stored = rows.indptr[bounds].tolist()
    return [
        (_Coordinates(local[a:b], rows.indices[a:b], rows.data[a:b], (size, rows.shape[1])), labels[lo:hi])
        for size, lo, hi, a, b in zip(sizes, bounds, bounds[1:], stored, stored[1:])
    ]


def batch_gradient_difference(cfg: ObjectiveConfig, rows, labels, w: np.ndarray, snapshot: np.ndarray) -> np.ndarray:
    """``grad f_B(w) - grad f_B(snapshot)`` over rows from :func:`gather_batches`.

    Both margins come from one 2-column product, so at ``w == snapshot``
    they are equal to the bit, their loss derivatives cancel and the
    difference is exactly zero.  The gradient is then one product of the
    difference of the two margin derivatives.
    """
    derivative = _margin_derivative(cfg, _margins(rows, labels, np.array((w, snapshot)).T))
    change = labels * (derivative[:, 0] - derivative[:, 1])
    return rows.T @ change / rows.shape[0] + cfg.reg_a * (w - snapshot)


def draw_batch(data: Optional[Dataset], b: int, *seed_path: int) -> Optional[np.ndarray]:
    """One step's batch: ``min(b, n)`` distinct rows from the stream ``derive_seed(*seed_path)``.

    Without data (a quadratic) it returns ``None`` and derives no seed.
    """
    if data is None:
        return None
    rng = np.random.default_rng(derive_seed(*seed_path))
    return sample_batch(data.n_samples, min(b, data.n_samples), rng)


def sample_batch(n: int, b: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``b`` distinct indices from ``range(n)`` uniformly, sorted ascending."""
    if b < 1 or b > n:
        raise BatchTooLarge(f"batch size {b} outside [1, {n}]")
    return np.sort(rng.choice(n, size=b, replace=False))


def sample_batches(n: int, b: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` batches of ``b`` distinct indices from ``range(n)``: a ``(count, b)`` array of sorted rows.

    Every row comes from one ``rng.integers`` call, and each row that
    repeats an index is then drawn again by :func:`sample_batch`, in row
    order.  A with-replacement row without a repeat is a uniform
    ``b``-subset, so the rows are exact.  At ``b = 1`` nothing repeats, and
    the one call takes the generator's stream exactly as ``count`` single
    draws ``rng.integers(n)`` or ``sample_batch(n, 1, rng)`` do.  Indices
    beyond physical memory raise :class:`DimensionTooLarge` before any draw.
    """
    if b < 1 or b > n:
        raise BatchTooLarge(f"batch size {b} outside [1, {n}]")
    _check_fits(count * b, f"{count} batches of {b} indices")
    batches = np.sort(rng.integers(0, n, size=(count, b)), axis=1)
    for i in np.flatnonzero((batches[:, 1:] == batches[:, :-1]).any(axis=1)):
        batches[i] = sample_batch(n, b, rng)
    return batches
