"""Swapping the two classes mirrors every method, bit for bit.

A margin loss reads each sample through its signed row ``y_i a_i`` alone, so
negating every label negates every signed row, and a run from zeros then
takes the iterate ``-x`` wherever the original takes ``x``: the same margins,
losses and curvature, exactly, as a negation commutes with every rounding.
"""

import io

import numpy as np
import pytest

from spanopt import (
    ANALYTIC,
    CENTRAL_FD,
    BaselineConfig,
    Dataset,
    ObjectiveConfig,
    SpanConfig,
    run_gd,
    run_lissa,
    run_newsamp,
    run_span,
    run_svrg,
)
from spanopt.datasets import load_libsvm, normalize_rows, to_binary_dataset

N, D = 120, 10

RUNS = {
    "svrg": lambda cfg, data, x0: run_svrg(BaselineConfig(method="svrg", eta=0.5, t_max=3, b=10, seed=4), cfg, data, x0),
    "gd": lambda cfg, data, x0: run_gd(BaselineConfig(method="gd", eta=1.0, t_max=4), cfg, data, x0),
    "lissa": lambda cfg, data, x0: run_lissa(
        BaselineConfig(method="lissa", eta=1.0, t_max=3, inner_steps=20, s1=2, seed=6), cfg, data, x0
    ),
    "newsamp": lambda cfg, data, x0: run_newsamp(
        BaselineConfig(method="newsamp", eta=1.0, t_max=4, b=40, m=3, seed=5), cfg, data, x0
    ),
    "span-fd-probed": lambda cfg, data, x0: run_span(
        SpanConfig(t_max=4, l=6, q=1, b=40, seed=3, hvp_mode=CENTRAL_FD, probe_hessian_error=True), cfg, data, x0
    ),
    "span-analytic": lambda cfg, data, x0: run_span(
        SpanConfig(t_max=4, l=6, q=1, b=40, seed=3, hvp_mode=ANALYTIC), cfg, data, x0
    ),
}


def libsvm_text(seed):
    """N examples of D features, each labeled 1 or 2, about a third of the entries stored."""
    rng = np.random.default_rng(seed)
    lines = []
    for label in rng.integers(1, 3, N):
        columns = np.flatnonzero(rng.random(D) < 0.35)
        lines.append(" ".join([str(label), *(f"{j + 1}:{rng.standard_normal()!r}" for j in columns)]))
    return "\n".join(lines) + "\n"


def mirrored_pair(storage):
    """The same unit rows with each sample's class swapped: CSR through the libsvm path, dense directly."""
    if storage == "csr":
        examples, dim = load_libsvm(io.StringIO(libsvm_text(1)))
        return [normalize_rows(to_binary_dataset(examples, *classes, dim=dim))[0] for classes in ((1, 2), (2, 1))]
    rng = np.random.default_rng(2)
    features = rng.standard_normal((N, D))
    labels = np.where(features @ rng.standard_normal(D) + rng.standard_normal(N) >= 0.0, 1.0, -1.0)
    return [normalize_rows(Dataset(features, signs * labels))[0] for signs in (1.0, -1.0)]


def columns(trace):
    """Every trace column but the wall clock."""
    return [(r.iteration, r.loss, r.grad_norm, r.hessian_err, r.lambda_used) for r in trace]


@pytest.mark.parametrize("method", sorted(RUNS))
@pytest.mark.parametrize("loss", ["logistic", "huber_svm"])
@pytest.mark.parametrize("storage", ["dense", "csr"])
def test_swapped_classes_mirror_the_run(storage, loss, method):
    data, swapped = mirrored_pair(storage)
    np.testing.assert_array_equal(swapped.labels, -data.labels)
    cfg = ObjectiveConfig(loss, reg_a=1e-2)
    x, trace = RUNS[method](cfg, data, np.zeros(D))
    x_swapped, trace_swapped = RUNS[method](cfg, swapped, np.zeros(D))
    assert columns(trace_swapped) == columns(trace)
    assert len(trace) > 1
    # An exact zero may carry either sign: + 0.0 makes both +0.
    assert (x_swapped + 0.0).tobytes() == (-x + 0.0).tobytes()
    assert np.any(x != 0.0)
