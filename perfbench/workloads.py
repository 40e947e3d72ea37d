"""The benchmark's three workloads, their seeded inputs and the checks on every solve.

Each workload builds its problem through spanopt's public entry points (the
timed set-up), then hands out seeded `span` and comparator solves.  The
reference optimum, the gradient norm and the suboptimality used to judge a
solve are computed here with plain numpy, apart from the library, so a fault
in the library's loss or gradient cannot vouch for itself.

Import spanopt before numpy: spanopt applies BENCH_THREADS before numpy loads.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import spanopt  # noqa: F401  (first, so BENCH_THREADS takes effect)
from spanopt import baselines, datasets, span
from spanopt.hvp import HvpMode
from spanopt.objectives import Dataset, ObjectiveConfig

import numpy as np

# Every check of a solve uses these; a solve is judged by the gradient target
# it was asked to meet and by a suboptimality bound.  For a mu-strongly convex
# objective ||grad|| <= target implies f - f* <= target^2 / (2 mu), which is
# below SUBOPT_BOUND for every workload here, so the two checks agree on a
# correct solve and a failure of either means a wrong x or a wrong gradient.
SUBOPT_BOUND = 1e-8
# The program stops on its own gradient norm; this one is recomputed here in
# another summation order, so it may differ in the last bits.
GRAD_ROUNDOFF = 1e-9
REFERENCE_GRAD_TOL = 1e-12


def child_seed(seed: int, *path: int) -> int:
    """A 32-bit seed derived from the run seed and a path of integer tags."""
    return int(np.random.SeedSequence((int(seed),) + tuple(path)).generate_state(1)[0])


# --- reference computations, apart from the library -------------------------


def logistic_value_grad(features: np.ndarray, labels: np.ndarray, reg_a: float, x: np.ndarray):
    """Mean logistic loss plus (a/2)||x||^2, and its gradient."""
    margins = labels * (features @ x)
    value = float(np.mean(np.logaddexp(0.0, -margins))) + 0.5 * reg_a * float(x @ x)
    # sigmoid(-margin) without overflow: exp(-logaddexp(0, margin)).
    weights = -labels * np.exp(-np.logaddexp(0.0, margins))
    grad = features.T @ weights / features.shape[0] + reg_a * x
    return value, grad


def logistic_newton(features: np.ndarray, labels: np.ndarray, reg_a: float) -> np.ndarray:
    """x* by damped Newton with np.linalg.solve, down to ||grad|| <= 1e-12."""
    n, d = features.shape
    x = np.zeros(d)
    value, grad = logistic_value_grad(features, labels, reg_a, x)
    for _ in range(100):
        if np.linalg.norm(grad) <= REFERENCE_GRAD_TOL:
            return x
        p = np.exp(-np.logaddexp(0.0, -(features @ x)))
        hessian = features.T @ ((p * (1.0 - p))[:, None] * features) / n + reg_a * np.eye(d)
        step = np.linalg.solve(hessian, grad)
        t = 1.0
        while True:
            trial = x - t * step
            trial_value, trial_grad = logistic_value_grad(features, labels, reg_a, trial)
            if trial_value <= value or t < 1e-6:
                break
            t *= 0.5
        x, value, grad = trial, trial_value, trial_grad
    raise RuntimeError(f"reference Newton stalled at ||grad|| = {np.linalg.norm(grad):.3e}")


@dataclass(frozen=True)
class Reference:
    """What a solve is judged against: the optimum value, the target and the bound."""

    f_star: float
    grad_tol: float
    value_grad: Callable[[np.ndarray], tuple]


def check_solve(ref: Reference, x: np.ndarray, trace: list) -> Optional[str]:
    """None if the solve met its target; otherwise why it did not."""
    if not trace or not trace[-1].grad_norm <= ref.grad_tol:
        return f"stopped at t_max ({len(trace)} iterations) above the gradient target"
    value, grad = ref.value_grad(np.asarray(x, dtype=float))
    grad_norm = float(np.linalg.norm(grad))
    if not grad_norm <= ref.grad_tol * (1.0 + GRAD_ROUNDOFF):
        return f"gradient norm {grad_norm:.3e} above target {ref.grad_tol:.1e}"
    if not value - ref.f_star <= SUBOPT_BOUND:
        return f"f - f* = {value - ref.f_star:.3e} above {SUBOPT_BOUND:.0e}"
    return None


def logistic_reference(data: Dataset, reg_a: float, grad_tol: float) -> Reference:
    features, labels = np.asarray(data.features, dtype=float), np.asarray(data.labels, dtype=float)
    x_star = logistic_newton(features, labels, reg_a)
    f_star, _ = logistic_value_grad(features, labels, reg_a, x_star)

    def value_grad(x):
        return logistic_value_grad(features, labels, reg_a, x)

    return Reference(f_star=f_star, grad_tol=grad_tol, value_grad=value_grad)


# --- the generated sparse-text file for libsvm-fd ---------------------------


def libsvm_matrix(seed: int, rows: int, dim: int, mean_nnz: int):
    """A w8a-like sparse problem as a dense matrix and labels in {1, 2, 3}.

    Row supports follow a skewed feature popularity, values are multiples of
    1/8 (exact in binary and in decimal text), and labels come from a planted
    direction with 5% flips; about 15% of rows get the class 3 that the
    workload drops.
    """
    rng = np.random.default_rng(child_seed(seed, 10))
    popularity = 1.0 / (np.arange(dim) + 10.0) ** 0.8
    popularity /= popularity.sum()
    planted = rng.standard_normal(dim)
    nnz = np.clip(rng.poisson(mean_nnz - 1, rows) + 1, 1, dim)
    # Weighted sampling without replacement, all rows at once: the nnz largest
    # Gumbel-perturbed log-popularities of each row form its support.
    keys = np.log(popularity) + rng.gumbel(size=(rows, dim))
    rank = np.argsort(np.argsort(-keys, axis=1), axis=1)
    support = rank < nnz[:, None]
    matrix = np.where(support, rng.integers(1, 17, size=(rows, dim)) / 8.0, 0.0)
    score = (matrix @ planted) / np.maximum(np.linalg.norm(matrix, axis=1), 1e-300)
    labels = np.where(score >= np.median(score), 1.0, 2.0)
    flips = rng.random(rows) < 0.05
    labels[flips] = 3.0 - labels[flips]
    labels[rng.random(rows) < 0.15] = 3.0
    return matrix, labels


def write_libsvm(path: Path, matrix: np.ndarray, labels: np.ndarray) -> None:
    """One ``<label> <idx>:<val> ...`` line per row, 1-based indices, values by repr."""
    lines = []
    for label, row in zip(labels, matrix):
        support = np.flatnonzero(row)
        pairs = " ".join(f"{j + 1}:{float(row[j])!r}" for j in support)
        lines.append(f"{int(label)} {pairs}\n")
    path.write_text("".join(lines))


def expected_dataset(matrix: np.ndarray, labels: np.ndarray, positive: float, negative: float):
    """The written matrix with the other class dropped, +1/-1 labels and unit rows."""
    keep = (labels == positive) | (labels == negative)
    rows = matrix[keep]
    norms = np.linalg.norm(rows, axis=1)
    rows = rows / np.where(norms == 0.0, 1.0, norms)[:, None]
    return rows, np.where(labels[keep] == positive, 1.0, -1.0)


def check_dataset(data: Dataset, rows: np.ndarray, labels: np.ndarray) -> Optional[str]:
    """None if the loaded dataset is the written matrix, preprocessed by numpy."""
    features = np.asarray(data.features, dtype=float)
    if features.shape != rows.shape:
        return f"loaded shape {features.shape}, written {rows.shape}"
    if not np.array_equal(np.asarray(data.labels, dtype=float), labels):
        return "labels differ from the written file"
    error = float(np.max(np.abs(features - rows)))
    if not error <= 1e-12:
        return f"features differ from the written file by {error:.3e}"
    return None


# --- workloads ---------------------------------------------------------------


@dataclass
class Problem:
    """A built workload: the objective, its data, the start point and the reference."""

    objective: ObjectiveConfig
    data: Optional[Dataset]
    x0: np.ndarray
    reference: Optional[Reference] = None


@dataclass(frozen=True)
class Solver:
    """One method of a workload: its public entry point and its config for a seed.

    The entry point is looked up on its module at each call, so a traced run
    times it through the same binding as every other caller.
    """

    name: str
    module: object
    function: str
    config: Callable[[int], object]

    def run(self, cfg, problem: "Problem"):
        return getattr(self.module, self.function)(cfg, problem.objective, problem.data, problem.x0)


class Workload:
    """Base: a named problem with `span`, one comparator and the round make-up.

    A round is ``span_per_round`` span solves then ``baseline_per_round``
    comparator solves; a run repeats whole rounds, so every run attempts the
    same mix of operations.  At least ``setup_repeats`` set-ups are timed per
    run and their median reported.
    """

    name = ""
    grad_tol = 0.0
    span_per_round = 1
    baseline_per_round = 1
    setup_repeats = 3
    # The calibration kernel parts whose time sets the host-speed scale (see
    # calibration.py).  ``gather`` is left out where the data fits in a core's
    # L2: shared-cache contention then barely slows the workload, and scaling
    # by it over-corrected (IQR/median of span time 10% with it, 4% without,
    # over ten desk-logistic runs).
    calibration_parts = ("loop", "blas", "text")

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def prepare(self) -> None:
        """Untimed work that set-up reads, such as writing a generated file."""

    def setup(self) -> Problem:
        raise NotImplementedError

    def add_reference(self, problem: Problem) -> None:
        raise NotImplementedError

    def check_setup(self, problem: Problem) -> Optional[str]:
        """None if the set-up output is what the benchmark generated."""
        return None

    def span_solver(self) -> Solver:
        raise NotImplementedError

    def baseline_solver(self) -> Solver:
        raise NotImplementedError


def _span_solver(grad_tol: float, seed: int, **settings) -> Solver:
    def config(k: int) -> span.SpanConfig:
        return span.SpanConfig(seed=child_seed(seed, 2, k), grad_tol=grad_tol, **settings)

    return Solver("span", span, "run_span", config)


def _baseline_solver(method: str, grad_tol: float, seed: int, **settings) -> Solver:
    def config(k: int) -> baselines.BaselineConfig:
        return baselines.BaselineConfig(
            method=method, seed=child_seed(seed, 3, k), grad_tol=grad_tol, **settings
        )

    return Solver(method, baselines, f"run_{method}", config)


class DeskLogistic(Workload):
    """configs/desk-logistic.cfg: n=2000, d=100 dense logistic, warmed up by SVRG; vs newsamp.

    The problem is the config's own (dataset seed 3, warm-up seed 7); the run
    seed drives the solves' batch and sketch streams.  Seeding the data too
    was tried: the interpreted Jacobi eigensolves then took from 13 to 25 ms
    per step and 7 to 10 iterations on different datasets, a spread between
    runs that hides any change to the program.
    """

    name = "desk-logistic"
    grad_tol = 4e-6
    reg_a = 1e-3
    span_per_round = 12
    baseline_per_round = 1
    setup_repeats = 5

    def setup(self) -> Problem:
        data = datasets.synth_classification(n=2000, d=100, seed=3, decay=1.0, normalize=True)
        objective = ObjectiveConfig("logistic", reg_a=self.reg_a)
        warm = baselines.BaselineConfig(method="svrg", eta=0.5, t_max=2, b=1, seed=7)
        x0, _ = baselines.run_svrg(warm, objective, data, np.zeros(data.dim))
        return Problem(objective, data, x0)

    def add_reference(self, problem: Problem) -> None:
        problem.reference = logistic_reference(problem.data, self.reg_a, self.grad_tol)

    def span_solver(self) -> Solver:
        return _span_solver(
            self.grad_tol, self.seed, t_max=100, m=10, l=16, q=2, b=600, eta=0.55,
            hvp_mode=HvpMode(kind="analytic"),
        )

    def baseline_solver(self) -> Solver:
        return _baseline_solver("newsamp", self.grad_tol, self.seed, eta=1.2, t_max=100, b=600, m=10)


class LibsvmFd(Workload):
    """A generated w8a-like text file parsed by the library; finite-difference span vs svrg."""

    name = "libsvm-fd"
    grad_tol = 4e-6
    reg_a = 1e-3
    rows, dim, mean_nnz = 16000, 300, 15
    positive, negative = 1.0, 2.0
    span_per_round = 1
    baseline_per_round = 1
    # 13.6k x 300 doubles (33 MB) do not fit in L2: batch gradients feel the
    # shared L3 and memory bandwidth.
    calibration_parts = ("loop", "blas", "gather", "text")

    @property
    def path(self) -> Path:
        return self.workdir / f"libsvm-fd-seed{self.seed}.txt"

    def prepare(self) -> None:
        self.matrix, self.labels = libsvm_matrix(self.seed, self.rows, self.dim, self.mean_nnz)
        write_libsvm(self.path, self.matrix, self.labels)

    def setup(self) -> Problem:
        examples, dim = datasets.load_libsvm(self.path)
        data = datasets.to_binary_dataset(examples, self.positive, self.negative, dim=dim)
        data, _ = datasets.normalize_rows(data)
        return Problem(ObjectiveConfig("logistic", reg_a=self.reg_a), data, np.zeros(dim))

    def check_setup(self, problem: Problem) -> Optional[str]:
        rows, labels = expected_dataset(self.matrix, self.labels, self.positive, self.negative)
        return check_dataset(problem.data, rows, labels)

    def add_reference(self, problem: Problem) -> None:
        problem.reference = logistic_reference(problem.data, self.reg_a, self.grad_tol)

    def span_solver(self) -> Solver:
        return _span_solver(
            self.grad_tol, self.seed, t_max=100, m=10, l=16, q=2, b=1000, eta=0.55,
            hvp_mode=HvpMode(kind="finite_difference"),
        )

    def baseline_solver(self) -> Solver:
        return _baseline_solver("svrg", self.grad_tol, self.seed, eta=0.5, t_max=500, b=10)


def wide_spectrum(seed: int, dim: int) -> np.ndarray:
    """Ten outliers from 1000 down to 50 over a seeded flat tail in [1, 2], descending."""
    rng = np.random.default_rng(child_seed(seed, 20))
    tail = np.sort(1.0 + rng.random(dim - 10))[::-1]
    return np.concatenate([np.geomspace(1000.0, 50.0, 10), tail])


class WideQuadratic(Workload):
    """Diagonal quadratic, d=5000: the sketch kernels with trivial HVPs; vs gd."""

    name = "wide-quadratic"
    grad_tol = 1e-5
    dim = 5000
    span_per_round = 1
    baseline_per_round = 2

    def setup(self) -> Problem:
        objective, _ = datasets.synth_quadratic(wide_spectrum(self.seed, self.dim))
        return Problem(objective, None, np.ones(self.dim))

    def add_reference(self, problem: Problem) -> None:
        spectrum = np.asarray(problem.objective.quadratic_spectrum, dtype=float)

        def value_grad(x):
            return 0.5 * float(x @ (spectrum * x)), spectrum * x

        problem.reference = Reference(f_star=0.0, grad_tol=self.grad_tol, value_grad=value_grad)

    def span_solver(self) -> Solver:
        return _span_solver(
            self.grad_tol, self.seed, t_max=200, m=10, l=16, q=1, b=1, eta=0.6,
            hvp_mode=HvpMode(kind="analytic"),
        )

    def baseline_solver(self) -> Solver:
        return _baseline_solver("gd", self.grad_tol, self.seed, eta=1.9e-3, t_max=50000)


WORKLOADS = {w.name: w for w in (DeskLogistic, LibsvmFd, WideQuadratic)}
