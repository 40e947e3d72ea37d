"""Finite-sum objectives: one loss oracle, and the batch Hessian operator.

Three loss kinds share one interface: L2-regularized logistic regression,
the smoothed Huber SVM margin loss, and synthetic quadratics with a
prescribed diagonal spectrum.  The quadratic kind carries no samples (batch
arguments are ignored) and exists as the controlled-spectrum test bed.  The
regularizer ``(a/2)||x||^2`` sits outside the sample mean, so it contributes
in full to every batch quantity.  :func:`loss_and_gradient` is the one loss
oracle: the loss over every row or over a batch, and its exact gradient.

A :class:`Dataset` stores each row times its label, ``y_i a_i``, dense or
as ``scipy.sparse`` CSR: a margin loss reads a sample only through that
signed row, so no oracle multiplies by a label.  Every sampled computation
reads the rows through :func:`_batch_rows` and the same few products
(``rows @ x``, ``rows.T @ y``), which both formats provide, so one code path
serves both; a full-data ``rows.T @ y`` takes :attr:`Dataset.transposed`, a
stored CSR copy for CSR data.  This module never imports scipy: only CSR
data, built by whoever imported it, brings it in.

Each pass forms one per-pass quantity that its loss and gradient share: the
margins ``m = rows @ x`` of a sampled kind, or a quadratic's one
product ``s * x`` with its spectrum ``s``, from which the loss is
``0.5 * x @ (s * x)`` and the gradient is ``s * x`` itself.  The logistic
pass takes one ``exp`` per sample: the loss terms
``max(-m, 0) + log1p(e)`` and the margin derivative ``-sigmoid(-m)`` both
come from the same ``e = exp(-|m|)`` of each margin ``m``.  A zero
regularizer costs nothing: ``x @ x`` and ``a * x`` are taken only when
``a != 0``, and a quadratic's Hessian diagonal is then its spectrum.

The per-sample kernels (the loss pass, :class:`BatchHessian` products, the
curvature weights and the margin derivative's quotient) write their
elementwise steps in place, into arrays they allocated themselves, and never
into an array a caller passed in.  Each element still takes the same IEEE
operations in the same order as the plain expressions, apart from commuting
a single product or sum, so the results are the same bits with fewer
full-size temporaries.  The margin derivative takes ``exp(-|m|)``, when the caller has
none, as plain expressions: svrg's step takes it on a few margins, where an
``out=`` argument costs more than the new array it spares, and the full pass
hands in its own.
"""

from __future__ import annotations

import math
import numbers
import os
import sys
from dataclasses import dataclass, field
from itertools import pairwise
from typing import Any, Iterator, Optional

import numpy as np

from .errors import BatchTooLarge, DimensionMismatch, DimensionTooLarge, NonFiniteResult
from .hvp import HvpMode

DENSE_HESSIAN_MAX_DIM = 512

_SQRT_EPS = float(np.sqrt(np.finfo(float).eps))

LOSS_KINDS = ("logistic", "huber_svm", "quadratic")


def _check_fits(entries: int, what: str) -> None:
    """Raise :class:`DimensionTooLarge` before allocating ``entries`` 8-byte values beyond physical memory."""
    needed = entries * 8
    available = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if needed > available:
        raise DimensionTooLarge(f"{what} needs {needed} bytes, more than the {available} bytes of physical memory")


def _signed(rows, labels: np.ndarray):
    """Each row times its label in a new matrix of the same storage; for CSR only the stored values change."""
    if isinstance(rows, np.ndarray):
        return labels[:, None] * rows
    signed = rows.copy()
    signed.data *= np.repeat(labels, np.diff(signed.indptr))
    return signed


@dataclass(frozen=True, init=False)
class Dataset:
    """Labeled instances: an (n, d) feature matrix and labels in {-1, +1}, stored as signed rows.

    ``features`` is anything numpy reads as a 2-D float array, stored dense,
    or a ``scipy.sparse`` matrix, stored in canonical CSR form (sorted
    indices, no duplicates).  A margin-loss sample enters every oracle only
    through its signed row ``y_i a_i``, so the constructor multiplies each
    row by its label once, on its own copy, and stores the result as
    ``signed_rows``; no oracle multiplies by a label.  Labels are exactly
    +-1, so the signed rows are the features negated where the label is -1,
    to the bit.  The ``features`` property rebuilds the dense unsigned
    matrix, a new array on each access, with the input's bytes: a signed
    zero is restored, and a CSR matrix's implicit zeros stay ``+0.0``.  A CSR
    dataset whose single dense feature vector would not fit in physical
    memory raises :class:`DimensionTooLarge`: every solve needs such vectors.
    """

    signed_rows: Any  # (n, d) float ndarray, or a scipy.sparse CSR array: row i times labels[i]
    labels: np.ndarray

    def __init__(self, features, labels):
        sparse = sys.modules.get("scipy.sparse")  # a sparse matrix means scipy is loaded
        csr = sparse is not None and sparse.issparse(features)
        matrix = sparse.csr_array(features, dtype=float) if csr else np.asarray(features, dtype=float)
        if matrix.ndim != 2:
            raise ValueError("features must be a 2-D array")
        labels = np.asarray(labels, dtype=float)
        if matrix.shape[0] < 1 or matrix.shape[1] < 1:
            raise ValueError("dataset must have at least one sample and one feature")
        if labels.shape != (matrix.shape[0],):
            raise ValueError("labels must be one per row of features")
        if not np.all(np.isin(labels, (-1.0, 1.0))):
            raise ValueError("labels must be exactly -1 or +1")
        signed = _signed(matrix, labels)
        if csr:
            signed.sum_duplicates()  # on the copy; a row's duplicates share its label
        if not np.isfinite(signed.data if csr else signed).all():
            raise ValueError("features contain NaN/Inf")
        if csr:
            _check_fits(matrix.shape[1], f"a feature vector of dimension {matrix.shape[1]}")
        object.__setattr__(self, "signed_rows", signed)
        object.__setattr__(self, "labels", labels)

    @classmethod
    def _of_signed_rows(cls, signed_rows, labels: np.ndarray) -> "Dataset":
        """A dataset over rows already signed by ``labels``, taken as they are, unchecked."""
        data = cls.__new__(cls)
        object.__setattr__(data, "signed_rows", signed_rows)
        object.__setattr__(data, "labels", labels)
        return data

    @property
    def features(self) -> np.ndarray:
        """The dense (n, d) unsigned feature matrix, a new array; for CSR data refused beyond physical memory."""
        features = _signed(self.signed_rows, self.labels)  # signing twice restores each value
        if isinstance(features, np.ndarray):
            return features
        n, d = features.shape
        _check_fits(n * d, f"dense {n} x {d} feature matrix")
        return features.toarray()

    @property
    def transposed(self):
        """``signed_rows.T``, for the full-data products ``signed_rows.T @ y``.

        Dense data return the free view, on each access.  CSR data return a
        CSR copy of the transpose, built at the first access and kept, at the
        cost of one more copy of the stored values and indices: scipy runs
        ``signed_rows.T @ y`` as a scatter over the rows, and the copy's row
        products add the same terms in the same order, from the first sample
        up, so they give the same bits.  The copy is not a field, so it takes
        no part in equality or ``repr``.
        """
        if isinstance(self.signed_rows, np.ndarray):
            return self.signed_rows.T
        transposed = self.__dict__.get("_transposed")
        if transposed is None:
            transposed = self.signed_rows.T.tocsr()
            object.__setattr__(self, "_transposed", transposed)
        return transposed

    @property
    def stored(self) -> int:
        """Feature entries the matrix stores: ``n * d`` dense, the nonzeros for CSR."""
        return int(self.signed_rows.size)

    @property
    def n_samples(self) -> int:
        return self.signed_rows.shape[0]

    @property
    def dim(self) -> int:
        return self.signed_rows.shape[1]


@dataclass(frozen=True)
class ObjectiveConfig:
    """Loss kind plus the L2 coefficient; quadratics carry their spectrum here."""

    loss_kind: str
    reg_a: float = 0.0
    quadratic_spectrum: Optional[np.ndarray] = field(default=None)

    def __post_init__(self):
        if self.loss_kind not in LOSS_KINDS:
            raise ValueError(f"unknown loss kind {self.loss_kind!r}")
        if not isinstance(self.reg_a, numbers.Real) or not 0 <= self.reg_a < math.inf:
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


def _batch_rows(cfg: ObjectiveConfig, data: Optional[Dataset], batch: Optional[np.ndarray]):
    """The batch's signed rows; None for a quadratic, which carries no samples.

    ``batch`` is None for every row, or a nonempty 1-D array of integer row
    indices in ``[0, n)``; an empty one raises :class:`BatchTooLarge`, and
    anything else :class:`DimensionMismatch`, never a wrapped or rounded row.
    """
    if cfg.loss_kind == "quadratic":
        return None
    if batch is None:
        return data.signed_rows
    batch = np.asarray(batch)
    if batch.size == 0:
        raise BatchTooLarge("batch must be nonempty")
    if batch.ndim != 1 or batch.dtype.kind not in "iu" or batch.min() < 0 or batch.max() >= data.n_samples:
        raise DimensionMismatch(f"batch must be a 1-D array of integer row indices in [0, {data.n_samples})")
    return data.signed_rows[batch]


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


def loss_and_gradient(
    cfg: ObjectiveConfig,
    data: Optional[Dataset],
    x: np.ndarray,
    batch: Optional[np.ndarray] = None,
) -> tuple[float, np.ndarray]:
    """The mean loss over ``batch`` plus the full regularizer ``(a/2)||x||^2``, and its exact gradient.

    ``batch`` None means every row.  Both come from one pass over the batch's
    margins, or a quadratic's ``s * x``; a quadratic ignores ``batch``.
    """
    return _pass(cfg, data, batch, x)[:2]


def _pass(cfg: ObjectiveConfig, data: Optional[Dataset], batch: Optional[np.ndarray], x: np.ndarray) -> tuple:
    """:func:`loss_and_gradient` and the margins it came from (a quadratic's ``s * x``).

    The step bracket takes it with ``batch=None``; svrg and lissa read its
    margins.  A full-data ``rows.T @ y`` takes :attr:`Dataset.transposed`.
    A zero ``reg_a`` adds nothing, so an overflowing ``x @ x`` cannot turn
    the loss into ``0 * inf = nan``, and a quadratic's gradient is then its
    ``s * x``, the returned margins themselves.
    """
    x = _check_x(cfg, data, x)
    rows = _batch_rows(cfg, data, batch)
    if rows is None:
        margins = cfg.quadratic_spectrum * x
        loss = 0.5 * float(x @ margins)
        grad = margins + cfg.reg_a * x if cfg.reg_a else margins
    else:
        margins = rows @ x
        e = _exp_neg_abs(margins) if cfg.loss_kind == "logistic" else None
        loss = _mean_loss(margins, e)
        grad = (data.transposed if batch is None else rows.T) @ _margin_derivative(cfg, margins, e)
        grad /= rows.shape[0]
        if cfg.reg_a:
            grad += cfg.reg_a * x
    if cfg.reg_a:
        loss += 0.5 * cfg.reg_a * float(x @ x)
    return loss, grad, margins


def _row_squared_norms(data: Dataset) -> np.ndarray:
    """Each row's squared norm ``||a_i||^2`` in either storage format; one that overflows is inf."""
    matrix = data.signed_rows
    with np.errstate(over="ignore"):
        if isinstance(matrix, np.ndarray):
            return np.einsum("ij,ij->i", matrix, matrix)
        return (matrix * matrix).sum(axis=1)


def _mean_loss(margins: np.ndarray, e: Optional[np.ndarray]) -> float:
    """Mean per-sample loss at ``margins``: logistic with ``e = exp(-|margins|)``, Huber with ``e`` None."""
    if e is None:
        return float(np.mean(_huber_loss_terms(margins)))
    # log(1 + exp(-m)) = max(-m, 0) + log1p(exp(-|m|)), with no overflow.
    terms = np.negative(margins)
    np.maximum(terms, 0.0, out=terms)
    terms += np.log1p(e)
    return float(np.mean(terms))


def _margin_derivative(cfg: ObjectiveConfig, margins: np.ndarray, e=None) -> np.ndarray:
    """Derivative of the per-sample loss with respect to its margin, in a new array.

    ``e`` is ``exp(-|margins|)`` when the caller has it; neither is written.
    """
    if cfg.loss_kind == "logistic":
        # -sigmoid(-m), with e = exp(-|m|) in [0, 1]: the numerator is 1 where
        # m <= 0, for -1/(1 + e^m), and e above, for -e^-m/(1 + e^-m).
        # max(e, m <= 0) is that pick exactly, without masked gathers or the
        # branch a select mispredicts on margins of random sign; a NaN m has
        # a NaN e and a false mask, and stays NaN.  Dividing by -1 - e rather
        # than negating the quotient gives the same bits with one call fewer.
        if e is None:
            e = np.exp(-np.abs(margins))
        s = np.maximum(e, margins <= 0.0)
        s /= -1.0 - e
        return s
    return _huber_dmargin(margins)


# The largest curvature weight of each sampled loss, at any margin:
# sigmoid(m) sigmoid(-m) peaks at 1/4, and Huber's is 0 or 1.
_CURVATURE_MAX = {"logistic": 0.25, "huber_svm": 1.0}


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

    :meth:`at` gathers a batch and builds the operator; lissa builds each
    sample's analytic one over its row from :func:`gathered_batches`, which
    takes vector products only, with weights of the full pass's margins.
    ``rows`` are signed rows (:class:`Dataset`), so no product reads a label.
    ``H @ v`` takes a (d,) vector or a (d, k) block.  A quadratic's
    ``weights`` are its diagonal ``spectrum + a`` (the config's own spectrum
    array when ``a`` is zero), its product ``weights * v`` in both modes: the central difference
    of its linear gradient, exactly.  A sampled kind's ``margins`` are its
    base margins ``m0 = rows @ x``, in both modes, and every product
    takes one path, ``t = rows @ v``, then a per-sample term ``y``, then
    ``rows.T @ y / b + a v``; the modes differ only in ``y``.  Analytic
    ``weights`` are the curvature weights at ``m0``, and ``y = weights * t``.
    With ``fd_step`` ``h`` set there are no ``weights``, and ``y`` is a
    central difference of the margin derivative ``phi'``:
    ``(phi'(m0 + delta) - phi'(m0 - delta)) * ||v|| / (2h)`` with
    ``delta = t * h / ||v||`` per column.  So the perturbation along
    each column has size ``h = sqrt(eps) * (1 + ||x||)`` whatever ``||v||``
    is (it grows geometrically during power iteration), a zero column
    gives an exact zero, and a column of infinite or NaN norm raises
    :class:`NonFiniteResult`.  :meth:`dense` forms the analytic matrix in either
    mode.  A product writes only into arrays it allocates: ``t`` becomes
    ``y`` (analytic) or ``delta`` in place, and ``m0 - delta`` then reuses
    ``delta``'s buffer.  It never writes ``v``, the stored ``margins`` or
    ``weights``, or the rows.
    """

    cfg: ObjectiveConfig
    x: np.ndarray
    rows: Any  # the batch's signed rows, dense or CSR; None for quadratics
    weights: Optional[np.ndarray]  # a quadratic's diagonal, or analytic curvature weights
    margins: Optional[np.ndarray] = None  # base margins of sampled kinds
    fd_step: Optional[float] = None

    @classmethod
    def at(cls, cfg, data, batch, x, mode: HvpMode) -> "BatchHessian":
        """Gather the batch at ``x`` for products in ``mode``: central differences or analytic."""
        x = _check_x(cfg, data, x)
        rows = _batch_rows(cfg, data, batch)
        if rows is None:
            spectrum = cfg.quadratic_spectrum
            return cls(cfg, x, None, spectrum + cfg.reg_a if cfg.reg_a else spectrum)
        margins = rows @ x
        if mode.kind == "finite_difference":
            return cls(cfg, x, rows, None, margins, _SQRT_EPS * (1.0 + float(np.linalg.norm(x))))
        return cls(cfg, x, rows, _curvature_weights(cfg, margins), margins)

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
            m0 = self.margins[per_sample]
            t *= self.fd_step / np.where(norms > 0.0, norms, 1.0)  # t is delta now
            y = _margin_derivative(self.cfg, m0 + t)
            y -= _margin_derivative(self.cfg, np.subtract(m0, t, out=t))
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

    Supports the vector products the objectives take, ``rows @ x`` and
    ``rows.T @ y``, as numpy bincounts that add each row's terms in stored
    order.  A batch of a few rows then costs a few microseconds where scipy
    spends tens on each call.  ``y @ rows`` is ``rows.T @ y`` without the
    transposed object that ``.T`` makes: svrg's step takes it, once per step.
    """

    __array_ufunc__ = None  # so ``y @ rows`` with an array ``y`` comes to __rmatmul__

    def __init__(self, rows: np.ndarray, cols: np.ndarray, values: np.ndarray, shape: tuple[int, int]):
        self.rows, self.cols, self.values, self.shape = rows, cols, values, shape

    @property
    def T(self) -> "_Coordinates":
        return _Coordinates(self.cols, self.rows, self.values, self.shape[::-1])

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        if not self.values.size:  # bincount of no entries is int64, whatever its weights
            return np.zeros(self.shape[0])
        return np.bincount(self.rows, weights=self.values * x[self.cols], minlength=self.shape[0])

    def __rmatmul__(self, y: np.ndarray) -> np.ndarray:
        if not self.values.size:
            return np.zeros(self.shape[1])
        return np.bincount(self.cols, weights=self.values * y[self.rows], minlength=self.shape[1])


_GATHER_ENTRIES = 1 << 14  # stored feature entries (128 KiB of values) per gather of a run of batches


def gathered_batches(cfg: ObjectiveConfig, data: Dataset, indices: np.ndarray, *per_sample) -> Iterator[tuple]:
    """``(rows, *entries)`` of each batch, a row of the ``(count, size)`` ``indices``: svrg's and lissa's walk.

    :func:`_batch_rows` gathers a run of batches' signed rows at once, up
    to about ``_GATHER_ENTRIES`` stored entries by the average row.  Dense
    rows are views into the run's block, CSR rows :class:`_Coordinates` cut
    from it, so a batch costs no gather of its own; the rows take vector
    products only.  ``entries`` are the batch's entries of each n-vector in
    ``per_sample``.  Sampled kinds only.
    """
    count, size = indices.shape
    per_row = max(1, -(-data.stored // data.n_samples))
    per_run = max(1, _GATHER_ENTRIES // (size * per_row))
    for first in range(0, count, per_run):
        run = indices[first : first + per_run]
        rows = _batch_rows(cfg, data, run.ravel())
        if isinstance(rows, np.ndarray):
            batches = rows.reshape(*run.shape, -1)
        else:
            # Each stored value's row, counted from the first row of its own batch.
            local = np.repeat(np.arange(run.size) % size, np.diff(rows.indptr))
            cuts = rows.indptr[::size].tolist()
            shape = (size, rows.shape[1])
            batches = [_Coordinates(local[a:b], rows.indices[a:b], rows.data[a:b], shape) for a, b in pairwise(cuts)]
        yield from zip(batches, *(values[run] for values in per_sample))


def batch_gradient_difference(
    cfg: ObjectiveConfig, rows, r: np.ndarray, margins: np.ndarray, derivatives: np.ndarray
) -> np.ndarray:
    """``grad f_B(snapshot + r) - grad f_B(snapshot)`` over signed rows from :func:`gathered_batches`.

    svrg's inner step.  ``margins`` and ``derivatives`` are the batch's
    entries of the snapshot's full-pass margins and of ``phi'`` of them.  The
    margins at ``snapshot + r`` are ``rows @ r + margins``: one product of
    the batch rows with ``r``, then ``phi'`` of them less ``derivatives``,
    and one transposed product ``change @ rows``, which makes no transposed
    object in either storage format.  At ``r == 0`` the margins equal the
    snapshot's to the bit, so the derivatives cancel and the difference is
    exactly zero, on dense and CSR rows alike.  Multiplying the rows by ``snapshot + r`` itself would not
    keep that: a dense BLAS row dot depends on the block's shape, so a
    batch's own product and the full pass's differ in the last bit.  The
    steps are plain expressions, as on the few entries of a small batch an
    in-place ufunc costs more than a new array.
    """
    change = _margin_derivative(cfg, rows @ r + margins) - derivatives
    difference = (change @ rows) / rows.shape[0]
    return difference + cfg.reg_a * r if cfg.reg_a else difference


def draw_batch(data: Optional[Dataset], b: int, rng: Optional[np.random.Generator]) -> Optional[np.ndarray]:
    """One step's batch: ``min(b, n)`` distinct rows drawn from ``rng``, its run's batch generator.

    ``span`` and ``newsamp`` each seed one generator per run and draw every
    batch of the run from it.  Without data (a quadratic) it returns
    ``None`` and draws nothing; such a run creates no generator and passes
    ``rng=None``.
    """
    if data is None:
        return None
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
