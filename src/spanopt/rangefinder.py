"""Randomized range finding for the batch Hessian via powered Gaussian sketches.

A Gaussian test block is pushed through ``2q + 1`` Hessian applications so
its columns align with the top eigendirections, then orthonormalized.  For
``q >= 3`` the power loop re-orthonormalizes between applications: that is
span-preserving in exact arithmetic and numerically essential once the
columns start collapsing toward the dominant eigenvector.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidRankParams
from .linalg import gaussian_matrix, qr_orthonormal
from .objectives import BatchHessian


def power_range(hessian: BatchHessian, l: int, q: int, seed: int) -> np.ndarray:
    """Orthonormal (d, l) basis spanning ``H_B(x)^{2q+1} Omega`` for Gaussian Omega.

    ``hessian`` is the batch operator from
    :meth:`spanopt.objectives.BatchHessian.at`, and ``l`` may not exceed ``d``.
    A Gaussian block is dependent only with probability zero, so a
    rank-deficient sketch means the operator itself is degenerate: the
    :class:`RankDeficient` propagates rather than being redrawn.
    """
    d = hessian.x.size
    if l > d:
        raise InvalidRankParams(f"sketch width l={l} exceeds dimension d={d}")
    y = gaussian_matrix(d, l, seed)
    for j in range(1, 2 * q + 2):
        y = hessian @ y
        if q >= 3 and j < 2 * q + 1:
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
