"""Randomized range finding for the batch Hessian via powered Gaussian sketches.

A Gaussian test block is pushed through ``2q + 1`` Hessian applications so
its columns align with the top eigendirections, then orthonormalized.  For
``q >= 3`` the power loop re-orthonormalizes between applications: that is
span-preserving in exact arithmetic and numerically essential once the
columns start collapsing toward the dominant eigenvector.

:func:`spanopt.span.span_step` sketches fresh only at a run's first step,
or when the carried block loses rank; every other step carries the last
basis forward through one more Hessian application.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidRankParams
from .linalg import gaussian_matrix, qr_orthonormal
from .objectives import BatchHessian


@dataclass(frozen=True)
class RangeConfig:
    """Sketch width ``l``, power exponent ``q``, and the target rank ``m``.

    ``m`` is the rank the error analysis targets, not an input of the step:
    the safeguard is half the captured block's smallest eigenvalue, which
    by Cauchy interlacing is at most half of sigma_{m+1}(H_B) for any
    ``m < l``.  The analysis wants ``m + 4 <= l``; that is enforced whenever
    a rank target is set.  ``m = 0`` sets none, which is the only way to run
    problems with ``d < 5``.  All three must be integers: they size arrays
    and loops.
    """

    l: int
    q: int
    m: int

    def __post_init__(self):
        integral = all(isinstance(v, numbers.Integral) for v in (self.l, self.q, self.m))
        if not integral or self.l < 1 or self.q < 0 or self.m < 0:
            raise InvalidRankParams(f"bad sketch parameters l={self.l!r}, q={self.q!r}, m={self.m!r}")
        if self.m >= 1 and self.m + 4 > self.l:
            raise InvalidRankParams(f"need m + 4 <= l, got m={self.m}, l={self.l}")

    def validate_for_dim(self, d: int) -> None:
        if self.l > d:
            raise InvalidRankParams(f"sketch width l={self.l} exceeds dimension d={d}")

    @property
    def reorth(self) -> bool:
        """Whether the power loop re-orthonormalizes between applications."""
        return self.q >= 3


def power_range(hessian: BatchHessian, rc: RangeConfig, seed: int) -> np.ndarray:
    """Orthonormal (d, l) basis spanning ``H_B(x)^{2q+1} Omega`` for Gaussian Omega.

    ``hessian`` is the batch operator from
    :meth:`spanopt.objectives.BatchHessian.at`.
    A Gaussian block is dependent only with probability zero, so a
    rank-deficient sketch means the operator itself is degenerate: the
    :class:`RankDeficient` propagates rather than being redrawn.
    """
    rc.validate_for_dim(hessian.x.size)
    y = gaussian_matrix(hessian.x.size, rc.l, seed)
    for j in range(1, 2 * rc.q + 2):
        y = hessian @ y
        if rc.reorth and j < 2 * rc.q + 1:
            y = qr_orthonormal(y)
    return qr_orthonormal(y)


def min_power_iterations(d: int, l: int, m: int) -> int:
    """Smallest power exponent q for which the 3-sigma approximation bound is guaranteed.

    Evaluates ceil( 0.5 * log_{3/2}( 34 sqrt(l/(l-m)) + 16 sqrt(l)/(l-m+1) * sqrt(d-m) ) ).
    """
    if m < 1 or m + 4 > l or l > d:
        raise InvalidRankParams(f"need 1 <= m <= l - 4 and l <= d, got d={d}, l={l}, m={m}")
    gap = l - m
    arg = 34.0 * math.sqrt(l / gap) + 16.0 * math.sqrt(l) / (gap + 1) * math.sqrt(d - m)
    return math.ceil(0.5 * math.log(arg, 1.5))
