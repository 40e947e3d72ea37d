"""Batch Hessian products: central differences of batch gradients (the default) or analytic.

:func:`batch_hessian` builds the operator ``H_B(x)`` once per sampled batch,
a :class:`~spanopt.objectives.BatchHessian`; every product against it reuses
the gathered batch rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .objectives import BatchHessian, Dataset, ObjectiveConfig

HVP_KINDS = ("finite_difference", "analytic")


@dataclass(frozen=True)
class HvpMode:
    """How to realize H_B(x) v: central finite differences or analytic."""

    kind: str = "finite_difference"
    fd_scale: float = 1.0

    def __post_init__(self):
        if self.kind not in HVP_KINDS:
            raise ValueError(f"unknown hvp kind {self.kind!r}")
        if self.fd_scale <= 0:
            raise ValueError("fd_scale must be positive")


ANALYTIC = HvpMode(kind="analytic")
CENTRAL_FD = HvpMode(kind="finite_difference")


def batch_hessian(
    cfg: ObjectiveConfig,
    data: Dataset | None,
    batch: np.ndarray | None,
    x: np.ndarray,
    mode: HvpMode = CENTRAL_FD,
) -> BatchHessian:
    """The batch Hessian ``H_B(x)`` as an operator in the requested mode, built once per batch."""
    return BatchHessian.at(cfg, data, batch, x, None if mode.kind == "analytic" else mode.fd_scale)


def hvp(
    cfg: ObjectiveConfig,
    data: Dataset | None,
    batch: np.ndarray | None,
    x: np.ndarray,
    v: np.ndarray,
    mode: HvpMode = CENTRAL_FD,
) -> np.ndarray:
    """Batch Hessian-vector product ``H_B(x) v`` in the requested mode."""
    if np.shape(v) != np.shape(x):
        raise DimensionMismatch(f"v has shape {np.shape(v)}, x has {np.shape(x)}")
    return batch_hessian(cfg, data, batch, x, mode) @ v


def extended_hvp(
    cfg: ObjectiveConfig,
    data: Dataset | None,
    batch: np.ndarray | None,
    x: np.ndarray,
    v: np.ndarray,
    mode: HvpMode = CENTRAL_FD,
) -> np.ndarray:
    """Column-wise Hessian product ``H_B(x) V`` for a (d, l) block ``V`` on one batch."""
    if np.ndim(v) != 2:
        raise DimensionMismatch("V must be a 2-D block of columns")
    return batch_hessian(cfg, data, batch, x, mode) @ v
