"""Dense linear-algebra kernels shared by every other module.

The factorizations are numpy's LAPACK wrappers behind the library's
contracts: Householder QR with non-negative R diagonal and a rank tripwire
(stable orthonormality is load-bearing for the subspace error bounds), and a
symmetric eigensolver with values in descending order.  Two kernels stay
local: Box-Muller Gaussian sampling over a PCG64 stream (reproducible from
the 64-bit seed alone, independent of numpy's own normal sampler and so of
its version), and a matrix-free power-iteration probe for symmetric operator
norms.  The kernels map their failure modes onto the library's exception
types.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NoConvergence, NonFiniteResult, RankDeficient

_SEED_MASK = 0xFFFFFFFFFFFFFFFF
_RANK_TOL = 1e-12
_POWER_MAX_ITERS = 20_000


def derive_seed(seed: int, *path: int) -> int:
    """Deterministically derive a 64-bit child seed from ``seed`` and an integer path.

    Used to give every stochastic sub-step of a driver (batch draw, sketch,
    probe, iteration index) its own stream while keeping the whole run a pure
    function of one user-facing seed.
    """
    entropy = (int(seed) & _SEED_MASK,) + tuple(int(p) & _SEED_MASK for p in path)
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def gaussian_matrix(rows: int, cols: int, seed: int) -> np.ndarray:
    """Standard Gaussian ``rows x cols`` matrix from a stream keyed solely by ``seed``.

    Box-Muller over PCG64 uniforms: identical (seed, rows, cols) gives a
    byte-identical matrix, and distinct seeds give independent streams.
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"matrix shape must be positive, got {rows}x{cols}")
    n = rows * cols
    half = (n + 1) // 2
    rng = np.random.Generator(np.random.PCG64(int(seed) & _SEED_MASK))
    u1 = 1.0 - rng.random(half)  # shift to (0, 1] so the log is finite
    u2 = rng.random(half)
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:n]
    return z.reshape(rows, cols)


def qr_orthonormal(y: np.ndarray) -> np.ndarray:
    """Orthonormal basis for the column span of ``y`` via LAPACK's Householder QR.

    Returns the thin Q factor (same shape as ``y``) with column signs chosen
    so R has a non-negative diagonal.  Raises :class:`RankDeficient` when the
    smallest R pivot falls below 1e-12 of the largest, which is the cheap
    tripwire for numerically dependent columns.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 2:
        raise ValueError("expected a 2-D array")
    d, l = y.shape
    if d < l:
        raise ValueError(f"need at least as many rows as columns, got {d}x{l}")
    if not np.isfinite(y).all():
        raise NonFiniteResult("input contains NaN/Inf")

    q, r = np.linalg.qr(y)
    diag = np.abs(np.diagonal(r))
    if diag.min() <= _RANK_TOL * diag.max():
        raise RankDeficient(
            f"columns numerically dependent (pivot ratio {diag.min():.3e}/{diag.max():.3e})"
        )
    signs = np.sign(np.diagonal(r))
    signs[signs == 0] = 1.0
    return q * signs


@dataclass(frozen=True)
class EigenPairs:
    """Eigenvalues sorted descending with matching orthonormal eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray


def sym_eig_small(a: np.ndarray) -> EigenPairs:
    """Full eigendecomposition of a small symmetric matrix via LAPACK's ``eigh``.

    The input is symmetrized internally ((A + A^T)/2); callers are expected
    to pass matrices that are symmetric up to roundoff.  Values come back in
    descending order.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.isfinite(a).all():
        raise NonFiniteResult("input contains NaN/Inf")
    values, vectors = np.linalg.eigh(0.5 * (a + a.T))
    return EigenPairs(values=values[::-1], vectors=vectors[:, ::-1])


def spectral_norm_sym(
    apply: Callable[[np.ndarray], np.ndarray],
    d: int,
    tol: float = 1e-6,
    seed: int = 0,
    max_iters: int = _POWER_MAX_ITERS,
    abs_tol: float = 0.0,
) -> float:
    """Largest absolute eigenvalue of a symmetric operator, by power iteration.

    ``apply`` must realize a symmetric linear map on vectors of size ``d``.
    The estimate is ``||A v_k||`` for the normalized iterate, which converges
    to max|lambda| even when the extreme eigenvalues come in +/- pairs.
    Convergence is declared when successive estimates move by less than
    ``tol`` relatively (plus ``abs_tol``, for probing operators that may be
    roundoff-level zero); exceeding the iteration cap raises
    :class:`NoConvergence`.  An estimate that is not finite (``||A v||``
    overflowed, or ``A`` returned NaN/Inf) raises :class:`NonFiniteResult`
    at once, since normalizing by it would turn the iterate to zero or NaN.
    """
    v = gaussian_matrix(d, 1, seed)[:, 0]
    norm_v = float(np.linalg.norm(v))
    v /= norm_v
    prev = math.inf
    for it in range(max_iters):
        w = apply(v)
        est = float(np.linalg.norm(w))
        if not math.isfinite(est):
            raise NonFiniteResult(f"operator norm estimate is {est} at power iteration {it}")
        if est == 0.0 or est < 1e-300:
            # Random start annihilated: for a symmetric operator this happens
            # with probability one only for the zero operator.
            return 0.0
        if it >= 2 and abs(est - prev) <= tol * est + abs_tol:
            return est
        prev = est
        v = w / est
    raise NoConvergence(f"power iteration did not settle in {max_iters} steps")
