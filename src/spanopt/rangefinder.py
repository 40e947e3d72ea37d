"""Randomized range finding for the batch Hessian via powered Gaussian sketches.

A Gaussian test block is pushed through ``2q + 1`` Hessian applications so
its columns align with the top eigendirections, then orthonormalized.  For
``q >= 3`` the power loop re-orthonormalizes between applications: that is
span-preserving in exact arithmetic and numerically essential once the
columns start collapsing toward the dominant eigenvector.

The driver sketches fresh only at its first step.  Every later step carries
the last basis forward through one more Hessian application (subspace
iteration across steps), falling back to a fresh sketch when that block is
rank-deficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidRankParams, RankDeficient
from .linalg import derive_seed, gaussian_matrix, qr_orthonormal
from .objectives import BatchHessian

_RESAMPLE_ATTEMPTS = 4  # the first draw plus three fresh seeds


@dataclass(frozen=True)
class RangeConfig:
    """Sketch width ``l``, power exponent ``q``, and the target rank ``m``.

    The error analysis wants ``m + 4 <= l``; that is enforced whenever a rank
    target is set.  ``m = 0`` disables the rank-target bookkeeping (the
    sigma proxy then falls back to the top eigenvalue), which is the only
    way to run problems with ``d < 5``.
    """

    l: int
    q: int
    m: int

    def __post_init__(self):
        if self.l < 1 or self.q < 0 or self.m < 0:
            raise InvalidRankParams(f"bad sketch parameters l={self.l}, q={self.q}, m={self.m}")
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

    ``hessian`` is the batch operator from :func:`spanopt.hvp.batch_hessian`.
    A rank-deficient sketch is retried with up to three fresh derived seeds;
    a Gaussian block is dependent only with probability zero, so repeated
    failure means the operator itself is degenerate and the final
    :class:`RankDeficient` propagates.
    """
    rc.validate_for_dim(hessian.x.size)
    last_error: RankDeficient | None = None
    for attempt in range(_RESAMPLE_ATTEMPTS):
        omega_seed = seed if attempt == 0 else derive_seed(seed, 0xF5, attempt)
        y = gaussian_matrix(hessian.x.size, rc.l, omega_seed)
        try:
            for j in range(1, 2 * rc.q + 2):
                y = hessian @ y
                if rc.reorth and j < 2 * rc.q + 1:
                    y = qr_orthonormal(y)
            return qr_orthonormal(y)
        except RankDeficient as exc:
            last_error = exc
    raise RankDeficient(f"sketch stayed rank-deficient after {_RESAMPLE_ATTEMPTS} resamples") from last_error


def _warm_range(
    hessian: BatchHessian, rc: RangeConfig, seed: int, previous: Optional[np.ndarray]
) -> np.ndarray:
    """Basis for a driver step: ``qr(H_B previous)``, or a fresh sketch.

    One Hessian application to the last step's basis replaces the ``2q + 1``
    products and the Gaussian draw of a fresh sketch.  Without a previous
    basis, or when its image is rank-deficient, the step sketches fresh from
    ``seed``.
    """
    if previous is not None:
        try:
            return qr_orthonormal(hessian @ previous)
        except RankDeficient:
            pass
    return power_range(hessian, rc, seed)


def min_power_iterations(d: int, l: int, m: int) -> int:
    """Smallest power exponent q for which the 3-sigma approximation bound is guaranteed.

    Evaluates ceil( 0.5 * log_{3/2}( 34 sqrt(l/(l-m)) + 16 sqrt(l)/(l-m+1) * sqrt(d-m) ) ).
    """
    if m < 1 or m + 4 > l or l > d:
        raise InvalidRankParams(f"need 1 <= m <= l - 4 and l <= d, got d={d}, l={l}, m={m}")
    gap = l - m
    arg = 34.0 * math.sqrt(l / gap) + 16.0 * math.sqrt(l) / (gap + 1) * math.sqrt(d - m)
    return math.ceil(0.5 * math.log(arg, 1.5))
