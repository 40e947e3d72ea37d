"""How batch Hessian products are realized: central differences of batch gradients, or analytic.

An :class:`HvpMode` is the required ``mode`` of
:meth:`spanopt.objectives.BatchHessian.at`, the builder of the batch Hessian
operator.  Both modes take one product path there and
differ only in its per-sample curvature term: analytic curvature weights, or
a central difference of the loss's margin derivative along each column.
Quadratics get exact products in both modes.
"""

from __future__ import annotations

from dataclasses import dataclass

HVP_KINDS = ("finite_difference", "analytic")


@dataclass(frozen=True)
class HvpMode:
    """How to realize H_B(x) v: central finite differences or analytic."""

    kind: str = "finite_difference"

    def __post_init__(self):
        if self.kind not in HVP_KINDS:
            raise ValueError(f"unknown hvp kind {self.kind!r}")


ANALYTIC = HvpMode(kind="analytic")
CENTRAL_FD = HvpMode(kind="finite_difference")
