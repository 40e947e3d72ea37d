"""Dense linear-algebra kernels shared by every other module.

The factorizations sit behind the library's contracts.  Thin QR of a
tall-skinny ``d x l`` block of more than 4096 entries takes CholeskyQR when
its first Cholesky factor bounds its condition number within the limit that
CholeskyQR2 is proven stable for, about ``0.18 (eps (dl + l(l+1)))^(-1/2)``:
one pass when that pass's ``Q^T Q`` shows it orthonormal to 1e-14, else
the second pass of CholeskyQR2.  Its ``Q`` is column-major.  Any other
block, a small one included, takes LAPACK's Householder QR.  R's diagonal
is made positive, with a rank tripwire on it (stable orthonormality is
load-bearing for the subspace error bounds).  The
symmetric eigensolver is LAPACK's ``eigh`` with values in descending order.
Two kernels stay local: Box-Muller Gaussian sampling over a PCG64 stream
(reproducible from the 64-bit seed alone, independent of numpy's own normal
sampler and so of its version), and a matrix-free power-iteration probe for
symmetric operator norms.  The kernels map their failure modes onto the
library's exception types.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NoConvergence, NonFiniteResult, RankDeficient

_SEED_MASK = 0xFFFFFFFFFFFFFFFF
_RANK_TOL = 1e-12
_EPS = float(np.finfo(float).eps)
# Gram traces for which qr_orthonormal tries CholeskyQR2 on the unscaled block.
_GRAM_TRACE_MIN = 2.0**-600
_GRAM_TRACE_MAX = 2.0**600
# Blocks of at most this many entries (32 KiB) go straight to Householder QR:
# there its one LAPACK factorization costs less than CholeskyQR2's Gram
# products, factorizations and inverses, each a numpy call with a fixed cost.
# Measured crossovers: d ~ 400-500 at l = 8, ~300 at l = 16, ~200 at l = 32.
_HOUSEHOLDER_MAX_ENTRIES = 4096
# A first CholeskyQR pass whose own Q^T Q is this close to I, entrywise, is
# kept as the factor: the orthonormality every basis is tested for.
_ONE_PASS_TOL = 1e-14
_POWER_MAX_ITERS = 20_000
# Largest norm estimate spectral_norm_sym reports, the mirror of its 1e-300
# zero floor.  Its one caller, the Hessian-error probe, applies a difference
# operator that subtracts terms of about the estimate's size (the projected
# product, lambda times the complement, H_B v); a larger estimate leaves them
# little room below the float maximum, so it counts as overflow.
_NORM_LIMIT = 1e300


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
    u1 = 1.0 - rng.random(half)  # in (0, 1], so the log is finite
    u2 = rng.random(half)
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])[:n]
    return z.reshape(rows, cols)


def qr_orthonormal(y: np.ndarray) -> np.ndarray:
    """Orthonormal basis for the column span of a tall ``y``, by CholeskyQR2 or Householder QR.

    Returns the thin Q factor (same shape as ``y``) of ``y = QR`` with R's
    diagonal positive.

    A block of at most 4096 entries (32 KiB, ``100 x 16`` say) goes
    straight to Householder QR, which costs less there than CholeskyQR2's
    numpy calls.  On a larger block the first try is plain CholeskyQR2 on
    ``y`` as given: two Gram products and two GEMMs, each pass applying the
    inverse of an ``l x l`` Cholesky factor (numpy has no triangular solve).
    It is stable, with orthonormality and residual at roundoff, while
    ``cond(y) <= sqrt(2)/8 * (eps (dl + l(l+1)))^(-1/2)`` (Yamamoto,
    Nakatsukasa, Yanagisawa & Fukaya, ETNA 2015: ``8 cond(y) sqrt(u (dl +
    l(l+1))) <= 1`` with unit roundoff ``u = eps/2``), about 4e4 at
    ``5000 x 16``.  Its result is kept only when
    the first Cholesky factorization succeeds and ``||R1||_F ||R1^-1||_F``,
    an upper bound on ``cond(y)`` read off the first factor, is within that
    limit, and only for a Gram trace in [2^-600, 2^600]: the trace bounds
    every Gram entry, so nothing overflows, and any product that underflows
    is far below the Gram's own rounding error for a block that passes the
    limit.  Images carried from the previous step pass; in them ``cond(y)``
    is that of the previous step's batch Hessian on its basis.

    The second pass starts from the Gram ``Q1^T Q1`` of the first pass's
    factor.  When every entry of that Gram is within 1e-14 of the identity,
    the orthonormality this function's tests ask of any basis, measured by
    the same product, ``Q1`` is returned and the second Cholesky, inverse
    and GEMM are skipped; R's diagonal is then ``R1``'s.  Carried images
    usually pass this check.  The a-priori one-pass bound ``5 cond(y)^2
    (dl + l(l+1)) u`` is not used for the decision: at the condition bound
    carried images reach, ~2e3, it is ~2e-4 and certifies nothing.  A
    factor that misses 1e-14 takes the second pass on that Gram as
    computed, with the bits of plain CholeskyQR2.  The ``Q`` of either
    CholeskyQR path is column-major (``(R^-T y^T)^T``, no copy): in that
    layout a diagonal operator's product ``w[:, None] * Q``, and the Gram
    and captured block that follow, run as ``l`` contiguous loops of ``d``.

    Any other block, a small one or a fresh sketch of a decaying spectrum,
    goes through LAPACK's Householder QR, which is backward stable at any
    scale and conditioning, and the columns whose R pivot is negative
    change sign.

    Raises :class:`NonFiniteResult` for NaN or Inf input, and
    :class:`RankDeficient` when, on either path, the smallest pivot of R
    falls below 1e-12 of the largest: the cheap tripwire for numerically
    dependent columns.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 2:
        raise ValueError("expected a 2-D array")
    d, l = y.shape
    if d < l:
        raise ValueError(f"need at least as many rows as columns, got {d}x{l}")

    if d * l > _HOUSEHOLDER_MAX_ENTRIES:
        q = _cholesky_qr2(y)
        if q is not None:
            return q

    if not np.isfinite(y).all():
        raise NonFiniteResult("input contains NaN/Inf")
    q, r = np.linalg.qr(y)
    signs = np.where(np.diagonal(r) < 0.0, -1.0, 1.0)  # R's diagonal positive, Q's columns to match
    return _checked_pivots(q * signs, np.abs(np.diagonal(r)))


def _cholesky_qr2(y: np.ndarray) -> np.ndarray | None:
    """Column-major ``Q`` of ``y`` by CholeskyQR when CholeskyQR2 is provably stable, else ``None``.

    The conditions are :func:`qr_orthonormal`'s: a Gram trace inside
    [2^-600, 2^600], and ``||R1||_F ||R1^-1||_F`` at most
    ``sqrt(2)/8 (eps (dl + l(l+1)))^(-1/2)``.  The first pass is the
    result when its own ``Q^T Q`` is within 1e-14 of ``I``; otherwise the
    second pass runs.
    """
    d, l = y.shape
    with np.errstate(all="ignore"):  # NaN, Inf or an overflowing Gram only fail the checks
        gram = y.T @ y
        trace = float(gram.trace())
        if not _GRAM_TRACE_MIN <= trace <= _GRAM_TRACE_MAX:
            return None
        try:
            r1 = np.linalg.cholesky(gram).T
        except np.linalg.LinAlgError:
            return None
        r1_inv = np.linalg.inv(r1)
        # ||R1||_F^2 = trace(R1^T R1) = trace(G) up to roundoff.
        cond_bound = math.sqrt(trace) * float(np.linalg.norm(r1_inv))
    if not cond_bound <= math.sqrt(2.0) / 8.0 / math.sqrt(_EPS * (d * l + l * (l + 1))):
        return None
    q = (r1_inv.T @ y.T).T  # y R1^-1, column-major at no copy cost
    gram = q.T @ q
    if np.abs(gram - np.eye(l)).max() <= _ONE_PASS_TOL:
        return _checked_pivots(q, np.diagonal(r1))
    # Within the limit Q1 is orthonormal to well under one (Yamamoto et al.), so
    # Q1^T Q1 is positive definite and this Cholesky cannot fail.
    r2 = np.linalg.cholesky(gram).T
    return _checked_pivots((np.linalg.inv(r2).T @ q.T).T, np.diagonal(r1) * np.diagonal(r2))


def _checked_pivots(q: np.ndarray, pivots: np.ndarray) -> np.ndarray:
    """``q``, unless R's diagonal ``pivots`` trip the rank tripwire."""
    if pivots.min() <= _RANK_TOL * pivots.max():
        raise RankDeficient(
            f"columns numerically dependent (pivot ratio {pivots.min():.3e}/{pivots.max():.3e})"
        )
    return q


@dataclass(frozen=True)
class EigenPairs:
    """Eigenvalues sorted descending with matching orthonormal eigenvector columns."""

    values: np.ndarray
    vectors: np.ndarray


def sym_eig_small(a: np.ndarray) -> EigenPairs:
    """Full eigendecomposition of a small symmetric matrix via LAPACK's ``eigh``.

    The input is symmetrized internally ((A + A^T)/2); callers are expected
    to pass matrices that are symmetric up to roundoff.  Values come back in
    descending order.  NaN or Inf in the symmetrized matrix raises :class:`NonFiniteResult`.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    with np.errstate(over="ignore", invalid="ignore"):  # Inf and NaN fail the check below
        a = 0.5 * (a + a.T)
    if not np.isfinite(a).all():
        raise NonFiniteResult("input contains NaN/Inf, or its symmetrization overflows")
    values, vectors = np.linalg.eigh(a)
    return EigenPairs(values=values[::-1], vectors=vectors[:, ::-1])


def _unoverflowed_norm(w: np.ndarray, norm: float) -> float:
    """``norm``, ``||w||`` from the sum of squares, unless that overflowed for a finite ``w``.

    Then ``w`` is scaled by its largest entry before its norm is taken.
    """
    if math.isinf(norm) and np.isfinite(w).all():
        peak = float(np.abs(w).max())
        return peak * float(np.linalg.norm(w / peak))
    return norm


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
    :class:`NoConvergence`.  When only the sum of squares in ``||A v||``
    overflows, the norm is taken of ``A v`` scaled by its largest entry.  An
    estimate that is NaN, infinite (``A`` returned NaN/Inf) or above 1e300
    raises :class:`NonFiniteResult` at once, since normalizing by it would
    turn the iterate to zero or NaN, or leave the probe's difference terms no
    room below overflow.
    """
    v = gaussian_matrix(d, 1, seed)[:, 0]
    norm_v = float(np.linalg.norm(v))
    v /= norm_v
    prev = math.inf
    for it in range(max_iters):
        w = apply(v)
        with np.errstate(over="ignore"):  # an overflowed sum of squares is handled next
            est = _unoverflowed_norm(w, float(np.linalg.norm(w)))
        if not est <= _NORM_LIMIT:
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
