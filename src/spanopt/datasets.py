"""Data ingestion and the benchmark preprocessing protocol.

Covers the sparse text wire format (one ``<label> <idx>:<val> ...`` example
per line, 1-based indices, gzip accepted by extension), binary label
filtering/mapping into a dense feature matrix, unit-norm row normalization,
and synthetic problem generators for the controlled-spectrum test suites.
"""

from __future__ import annotations

import gzip
import io
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Union

import numpy as np

from .errors import DimensionTooLarge, NoMatchingExamples, ParseError
from .linalg import derive_seed, gaussian_matrix
from .objectives import Dataset, ObjectiveConfig

_LABEL_NOISE = 0.05  # flip probability of synthetic classification labels


@dataclass(frozen=True)
class RawExample:
    """One parsed line: a label and its sparse (1-based index, value) features."""

    label: float
    features: tuple[tuple[int, float], ...]


def _open_text(source: Union[str, Path, IO]) -> IO:
    if isinstance(source, (str, Path)):
        path = Path(source)
        if path.suffix == ".gz":
            return io.TextIOWrapper(gzip.open(path, "rb"), encoding="utf-8")
        return open(path, "r", encoding="utf-8")
    return source


def load_libsvm(source: Union[str, Path, IO]) -> tuple[list[RawExample], int]:
    """Parse sparse-text examples; returns (examples, inferred dimension).

    Blank lines and lines starting with '#' are skipped.  Feature indices
    must be strictly increasing within a line; the inferred dimension is the
    largest index seen anywhere.  Malformed lines and non-finite labels or
    values raise :class:`ParseError` carrying the 1-based line number.
    """
    examples: list[RawExample] = []
    dim = 0
    stream = _open_text(source)
    close = isinstance(source, (str, Path))
    try:
        for line_no, line in enumerate(stream, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            tokens = stripped.split()
            try:
                label = float(tokens[0])
            except ValueError:
                raise ParseError(f"non-numeric label {tokens[0]!r}", line_no) from None
            if not math.isfinite(label):
                raise ParseError(f"non-finite label {tokens[0]!r}", line_no)
            feats: list[tuple[int, float]] = []
            prev_index = 0
            for token in tokens[1:]:
                index_str, sep, value_str = token.partition(":")
                if not sep:
                    raise ParseError(f"malformed pair {token!r}", line_no)
                try:
                    index = int(index_str)
                    value = float(value_str)
                except ValueError:
                    raise ParseError(f"non-numeric token {token!r}", line_no) from None
                if not math.isfinite(value):
                    raise ParseError(f"non-finite value {token!r}", line_no)
                if index < 1:
                    raise ParseError(f"index {index} must be >= 1", line_no)
                if index <= prev_index:
                    raise ParseError(
                        f"index {index} not strictly increasing after {prev_index}", line_no
                    )
                prev_index = index
                feats.append((index, value))
            dim = max(dim, prev_index)
            examples.append(RawExample(label=label, features=tuple(feats)))
    finally:
        if close:
            stream.close()
    return examples, dim


def to_binary_dataset(
    examples: list[RawExample],
    positive_label: float,
    negative_label: float,
    dim: int,
) -> Dataset:
    """Keep the two requested label classes, map them to +1 / -1, and densify.

    Examples with other labels are dropped.  ``dim`` is the feature
    dimension, normally the one :func:`load_libsvm` inferred from the whole
    file.  A dense ``rows x dim`` matrix larger than the host's physical
    memory raises :class:`DimensionTooLarge` before anything is allocated.
    """
    kept = [ex for ex in examples if ex.label in (positive_label, negative_label)]
    if not kept:
        raise NoMatchingExamples(
            f"no examples labeled {positive_label} or {negative_label}"
        )
    needed = len(kept) * dim * 8
    available = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if needed > available:
        raise DimensionTooLarge(
            f"dense {len(kept)} x {dim} feature matrix needs {needed} bytes, "
            f"more than the {available} bytes of physical memory"
        )
    features = np.zeros((len(kept), dim))
    labels = np.array([1.0 if ex.label == positive_label else -1.0 for ex in kept])
    for i, ex in enumerate(kept):
        for index, value in ex.features:
            features[i, index - 1] = value  # wire format is 1-based
    return Dataset(features=features, labels=labels)


def normalize_rows(ds: Dataset) -> tuple[Dataset, int]:
    """Scale each nonzero row to unit Euclidean norm; zero rows pass through.

    Returns the normalized dataset and the count of zero rows left untouched.
    Idempotent: normalizing twice changes nothing beyond roundoff.
    """
    norms = np.linalg.norm(ds.features, axis=1)
    zero_rows = int(np.sum(norms == 0.0))
    safe = np.where(norms == 0.0, 1.0, norms)
    features = ds.features / safe[:, None]
    return Dataset(features=features, labels=ds.labels.copy(), normalized=True), zero_rows


def synth_quadratic(spectrum) -> tuple[ObjectiveConfig, np.ndarray]:
    """Quadratic objective with exactly this diagonal Hessian spectrum.

    Returns the config and the known optimum (the origin).
    """
    spectrum = np.asarray(spectrum, dtype=float)
    cfg = ObjectiveConfig(loss_kind="quadratic", reg_a=0.0, quadratic_spectrum=spectrum)
    return cfg, np.zeros(spectrum.size)


def synth_classification(
    n: int,
    d: int,
    seed: int = 0,
    decay: float = 1.5,
    normalize: bool = True,
) -> Dataset:
    """Synthetic binary classification with a decaying feature spectrum.

    Gaussian features get column scales j^(-decay), so the induced Hessian
    spectrum of a linear model decays polynomially; labels come from a
    planted unit-norm direction, and each flips with probability 0.05.
    Rows are unit-normalized by default, matching the benchmark preprocessing.
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    features = gaussian_matrix(n, d, derive_seed(seed, 50))
    scales = np.arange(1, d + 1, dtype=float) ** (-decay)
    features *= scales
    planted = gaussian_matrix(d, 1, derive_seed(seed, 51))[:, 0]
    planted /= np.linalg.norm(planted)
    labels = np.where(features @ planted >= 0.0, 1.0, -1.0)
    flips = np.random.default_rng(derive_seed(seed, 52)).random(n) < _LABEL_NOISE
    labels[flips] *= -1.0
    ds = Dataset(features=features, labels=labels)
    if normalize:
        ds, _ = normalize_rows(ds)
    return ds
