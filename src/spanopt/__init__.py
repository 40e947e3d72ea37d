"""spanopt: matrix-free stochastic approximate-Newton optimization.

The optimizer sketches the batch Hessian through powered Gaussian test
matrices and Hessian-vector products only, applies a perturbed projected
inverse to the full gradient, and never forms a d x d matrix.  Reference
baselines (gradient descent, variance-reduced SGD, truncated-eigenvalue
subsampled Newton, Neumann-series inverse estimation) share its trace format
for head-to-head benchmarking via the `bench` CLI.

Setting BENCH_THREADS=n caps the numeric kernels' thread pools.  The cap is
applied here, before the first import that loads numpy, because BLAS sizes its
pool once when numpy loads; thread variables already set take precedence, and
the cap has no effect if numpy was imported earlier in the same process.
"""

import os


def _apply_thread_cap() -> None:
    cap = os.environ.get("BENCH_THREADS")
    if not cap:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, cap)


_apply_thread_cap()

from .baselines import BaselineConfig, run_gd, run_lissa, run_newsamp, run_svrg
from .errors import SpanOptError
from .hvp import ANALYTIC, CENTRAL_FD, HvpMode
from .linalg import (
    EigenPairs,
    gaussian_matrix,
    qr_orthonormal,
    spectral_norm_sym,
    sym_eig_small,
)
from .objectives import (
    BatchHessian,
    Dataset,
    ObjectiveConfig,
    loss_and_gradient,
    sample_batch,
)
from .rangefinder import min_power_iterations, power_range
from .span import (
    SpanConfig,
    SpanState,
    Subspace,
    TraceRecord,
    apply_inverse,
    assemble_subspace,
    build_subspace,
    hessian_error_probe,
    run_span,
    span_step,
)

__version__ = "0.1.0"

__all__ = [
    "ANALYTIC",
    "BaselineConfig",
    "BatchHessian",
    "CENTRAL_FD",
    "Dataset",
    "EigenPairs",
    "HvpMode",
    "ObjectiveConfig",
    "SpanConfig",
    "SpanOptError",
    "SpanState",
    "Subspace",
    "TraceRecord",
    "apply_inverse",
    "assemble_subspace",
    "build_subspace",
    "gaussian_matrix",
    "hessian_error_probe",
    "loss_and_gradient",
    "min_power_iterations",
    "power_range",
    "qr_orthonormal",
    "run_gd",
    "run_lissa",
    "run_newsamp",
    "run_span",
    "run_svrg",
    "sample_batch",
    "span_step",
    "spectral_norm_sym",
    "sym_eig_small",
]
