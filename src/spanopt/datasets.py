"""Data ingestion and the benchmark preprocessing protocol.

Covers the sparse text wire format (one ``<label> <idx>:<val> ...`` example
per line, 1-based indices, gzip accepted by extension) parsed into CSR
arrays, binary label filtering/mapping into a dataset whose features stay
CSR (``scipy.sparse``, imported only here and only then), unit-norm row
normalization in either storage format, and dense synthetic problem
generators for the controlled-spectrum test suites.
"""

from __future__ import annotations

import contextlib
import gzip
import io
import math
import re
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import IO, ContextManager, NoReturn, Union

import numpy as np

from .errors import DimensionMismatch, NoMatchingExamples, ParseError
from .linalg import derive_seed, gaussian_matrix
from .objectives import Dataset, ObjectiveConfig, _check_fits

_LABEL_NOISE = 0.05  # flip probability of synthetic classification labels
_SCALE_MAX = math.sqrt(np.finfo(float).max)  # largest synthetic column scale: times |g| < 9, far from overflow


# Examples converted to arrays at a time; it bounds the token strings alive at once.
_BLOCK_LINES = 1024
_NOT_SEPARATOR = bytes(b for b in range(256) if b not in b" :")
_ASCII_WHITESPACE = " \t\n\r\v\f"  # what ``bytes.split()`` splits on
# Whitespace that ``str.split()`` splits on beyond ASCII's, and control characters.
_NOT_TEXT = re.compile(r"[^\S \t\n\r\v\f]|[\x00-\x08\x0e-\x1f\x7f-\x9f]")
_INDEX_MAX = np.iinfo(np.int64).max  # largest index the int64 index arrays hold
_NORM_FLOOR = math.sqrt(np.finfo(float).tiny)  # below it a row's squared norm is not a normal number


@dataclass(frozen=True)
class RawExample:
    """One example as the file writes it: a label and its (1-based index, value) pairs."""

    label: float
    features: tuple[tuple[int, float], ...]


@dataclass(frozen=True, eq=False)
class SparseExamples:
    """Parsed examples as compressed sparse rows (CSR).

    Example ``i`` has label ``labels[i]`` and stores ``values[indptr[i]:indptr[i + 1]]``
    at the 0-based columns ``indices[indptr[i]:indptr[i + 1]]`` (the file's
    index minus one), strictly increasing within the example.  ``len`` counts
    the examples and iterating yields each one as a :class:`RawExample`.
    """

    labels: np.ndarray  # (n,) float64
    indptr: np.ndarray  # (n + 1,) int64
    indices: np.ndarray  # (nnz,) int64
    values: np.ndarray  # (nnz,) float64

    def __len__(self) -> int:
        return self.labels.size

    def __iter__(self):
        bounds = self.indptr.tolist()
        for i, label in enumerate(self.labels.tolist()):
            lo, hi = bounds[i], bounds[i + 1]
            columns = (self.indices[lo:hi] + 1).tolist()
            yield RawExample(label, tuple(zip(columns, self.values[lo:hi].tolist())))


def _open_text(source: Union[str, Path, IO], errors: str = "strict") -> ContextManager[IO]:
    """``source`` as UTF-8 text, closed on exit only if opened here: a path (gzip by extension), or a stream as is."""
    if not isinstance(source, (str, Path)):
        return contextlib.nullcontext(source)
    path = Path(source)
    if path.suffix == ".gz":
        return io.TextIOWrapper(gzip.open(path, "rb"), encoding="utf-8", errors=errors)
    return open(path, "r", encoding="utf-8", errors=errors)


def _raise_undecodable_line(source: Union[str, Path, IO], exc: UnicodeDecodeError) -> NoReturn:
    """Raise the :class:`ParseError` of the first line of ``source`` that is not UTF-8.

    A path is read again with each undecodable byte kept as a lone surrogate,
    so its lines break exactly where the parsing pass broke them; a stream
    cannot be read again, and its error names no line.
    """
    if isinstance(source, (str, Path)):
        with _open_text(source, errors="surrogateescape") as stream:
            for line_no, line in enumerate(stream, start=1):
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise ParseError("not UTF-8 text", line_no) from None
    raise ParseError(f"not UTF-8 text: {exc}") from None


def load_libsvm(source: Union[str, Path, IO]) -> tuple[SparseExamples, int]:
    """Parse sparse-text examples into CSR arrays; returns (examples, inferred dimension).

    Tokens are separated by ASCII whitespace, as ``bytes.split()`` reads
    it: space, ``\t``, ``\r``, ``\v`` and ``\f``.  Blank lines and lines
    whose first token starts with '#' are skipped, whatever else they hold.
    Any other whitespace or control character in an example line is a fault,
    such as a no-break space that ``str.split()`` would take for a separator.
    Feature indices must be strictly increasing within a line; the inferred
    dimension is the largest index seen anywhere.  Numbers are read as C's
    ``strtod`` reads them, so a token with a character outside ASCII or a
    ``_`` is not one.  Malformed lines, non-finite labels or values, indices
    beyond the int64 range and bytes that are not UTF-8 raise
    :class:`ParseError` carrying the 1-based line number; a corrupt or
    truncated gzip stream raises one naming the file.

    Lines are only split in Python; every :data:`_BLOCK_LINES` examples the
    collected lines and tokens are checked and converted to arrays at once, so
    no Python object is made per feature and only one block's strings are alive.
    """
    blocks = []
    block = _TokenBlock()
    try:
        with _open_text(source) as stream:
            try:
                for line_no, line in enumerate(stream, start=1):
                    tokens = line.split()
                    if not tokens or tokens[0].startswith("#"):
                        if _blank_or_comment(line):
                            continue
                        # A separator only str.split() reads comes first: an
                        # example line, which its block's check refuses.
                        tokens = [line]
                    block.add(line_no, line, tokens)
                    if len(block.line_nos) == _BLOCK_LINES:
                        blocks.append(block.arrays())
                        block = _TokenBlock()
            except UnicodeDecodeError as exc:
                _raise_undecodable_line(source, exc)  # reads on, so a gzip fault may still follow
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise ParseError(f"{source}: corrupt or truncated gzip stream: {exc}") from exc
    blocks.append(block.arrays())
    labels, counts, indices, values = (np.concatenate(parts) for parts in zip(*blocks))
    indptr = np.zeros(labels.size + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    dim = int(indices.max()) + 1 if indices.size else 0
    return SparseExamples(labels, indptr, indices, values), dim


def _blank_or_comment(line: str) -> bool:
    """Whether ``line``, split on ASCII whitespace, has no token or a first one that starts with '#'."""
    stripped = line.lstrip(_ASCII_WHITESPACE)
    return not stripped or stripped.startswith("#")


class _TokenBlock:
    """The lines of up to :data:`_BLOCK_LINES` examples and their split tokens, before conversion.

    Faults are detected, then located: :meth:`arrays` checks the whole block
    at once and only tells whether it holds a fault; on one,
    :meth:`raise_first_error` checks its examples in order and raises the first.
    """

    def __init__(self):
        self.line_nos: list[int] = []
        self.lines: list[str] = []
        self.labels: list[str] = []
        self.pairs: list[str] = []
        self.counts: list[int] = []

    def add(self, line_no: int, line: str, tokens: list[str]) -> None:
        self.line_nos.append(line_no)
        self.lines.append(line)
        self.labels.append(tokens[0])
        self.counts.append(len(tokens) - 1)
        self.pairs += tokens[1:]

    def arrays(self):
        """(labels, pair counts, 0-based indices, values) of the block; a fault raises the first bad line's error."""
        k = len(self.pairs)
        ptr = np.zeros(len(self.counts) + 1, dtype=np.int64)
        np.cumsum(self.counts, out=ptr[1:])
        # Pair tokens hold no whitespace, so joined with spaces each has exactly
        # one ':' iff the separators alone read ": : ... :".
        joined = " ".join(self.pairs)
        separators = joined.encode("utf-8", "surrogatepass").translate(None, _NOT_SEPARATOR)
        numbers = joined.replace(":", " ").split()
        # An example line outside ASCII holds a token strtod does not read, or
        # whitespace that is not ASCII's.  Of ASCII's control characters, the
        # separators str.split() alone reads are looked for here; any other
        # stays in a token, whose conversion then fails.
        text = "".join(self.lines)
        plain = text.isascii() and not any(c in text for c in "_\x1c\x1d\x1e\x1f")
        if separators != (b": " * k)[:-1] or len(numbers) != 2 * k or not plain:
            self.raise_first_error()
        try:
            labels = np.array(self.labels, dtype=float)
            indices = np.array(numbers[0::2], dtype=np.int64)
            values = np.array(numbers[1::2], dtype=float)
        except (ValueError, OverflowError):
            self.raise_first_error()
        rising = np.ones(k, dtype=bool)
        rising[1:] = np.diff(indices) > 0
        starts = ptr[:-1]
        rising[starts[starts < k]] = True  # an example's first index follows nothing
        if not ((rising & (indices >= 1) & np.isfinite(values)).all() and np.isfinite(labels).all()):
            self.raise_first_error()
        return labels, np.diff(ptr), indices - 1, values

    def raise_first_error(self) -> NoReturn:
        """Check the block's examples in order, one token at a time; raise the first fault."""
        for line_no, line in zip(self.line_nos, self.lines):
            _check_example(line_no, line)
        raise AssertionError("a block failed an array check that none of its lines fails")


def _c_number(token: str) -> bool:
    """Whether ``token`` may hold numbers as C reads them: ASCII and no ``_``.

    Python's ``int`` and ``float``, and numpy's conversion through them, also
    read ``1_000`` and digits of other scripts, which ``strtod`` refuses.
    """
    return token.isascii() and "_" not in token


def _check_example(line_no: int, line: str) -> None:
    """Raise the :class:`ParseError` of the first fault in one example line, if any.

    This is the one place that words parse errors: the array checks of
    :meth:`_TokenBlock.arrays` only detect that a block holds a fault.  A
    whitespace or control character other than ASCII whitespace comes first,
    then the tokens in order.
    """
    stray = _NOT_TEXT.search(line)
    if stray:
        code = ord(stray.group())
        raise ParseError(f"character U+{code:04X} is whitespace or control but not ASCII whitespace", line_no)
    label_token, *pair_tokens = line.split()
    try:
        if not _c_number(label_token):
            raise ValueError
        label = float(label_token)
    except ValueError:
        raise ParseError(f"non-numeric label {label_token!r}", line_no) from None
    if not math.isfinite(label):
        raise ParseError(f"non-finite label {label_token!r}", line_no)
    prev_index = 0
    for token in pair_tokens:
        index_str, sep, value_str = token.partition(":")
        if not sep:
            raise ParseError(f"malformed pair {token!r}", line_no)
        try:
            if not _c_number(token):
                raise ValueError
            index = int(index_str)
            value = float(value_str)
        except ValueError:
            raise ParseError(f"non-numeric token {token!r}", line_no) from None
        if not math.isfinite(value):
            raise ParseError(f"non-finite value {token!r}", line_no)
        if index < 1:
            raise ParseError(f"index {index} must be >= 1", line_no)
        if index > _INDEX_MAX:
            raise ParseError(f"index {index} exceeds the largest supported index {_INDEX_MAX}", line_no)
        if index <= prev_index:
            raise ParseError(f"index {index} not strictly increasing after {prev_index}", line_no)
        prev_index = index


def to_binary_dataset(
    examples: SparseExamples,
    positive_label: float,
    negative_label: float,
    dim: int,
) -> Dataset:
    """Keep the two requested label classes and map them to +1 / -1; the features stay CSR.

    Examples with other labels are dropped.  Equal labels raise
    ``ValueError``: they would map every kept example to +1.  ``dim`` is the
    feature dimension, normally the one :func:`load_libsvm` inferred from the
    whole file.  A feature index above ``dim`` raises :class:`DimensionMismatch`.
    The kept examples' CSR arrays become the dataset's ``scipy.sparse`` CSR
    features, the first use of scipy in a process.
    """
    if positive_label == negative_label:
        raise ValueError(f"positive and negative labels are both {positive_label}")
    from scipy import sparse

    keep = (examples.labels == positive_label) | (examples.labels == negative_label)
    kept = int(np.count_nonzero(keep))
    if not kept:
        raise NoMatchingExamples(
            f"no examples labeled {positive_label} or {negative_label}"
        )
    counts = np.diff(examples.indptr)
    stored = np.repeat(keep, counts)  # which stored values belong to kept examples
    columns = examples.indices[stored]
    largest = int(columns.max()) + 1 if columns.size else 0  # back to the file's 1-based index
    if largest > dim:
        raise DimensionMismatch(f"feature index {largest} exceeds the dimension {dim}")
    indptr = np.zeros(kept + 1, dtype=np.int64)
    np.cumsum(counts[keep], out=indptr[1:])
    features = sparse.csr_array((examples.values[stored], columns, indptr), shape=(kept, dim))
    labels = np.where(examples.labels[keep] == positive_label, 1.0, -1.0)
    return Dataset(features=features, labels=labels)


def normalize_rows(ds: Dataset) -> tuple[Dataset, int]:
    """Scale each nonzero row to unit Euclidean norm; zero rows pass through.

    Returns the normalized dataset, in the input's storage format, and the
    count of zero rows left untouched.  Idempotent: normalizing twice
    changes nothing beyond roundoff.  A row whose squared norm overflows, or
    underflows below the smallest normal number, is first divided by its
    largest magnitude, so rows of any finite scale come out unit-norm; every
    other row takes one division by its norm.  CSR data has only its stored
    values scaled.  A dense row of ordinary norm takes ``np.linalg.norm``'s
    pairwise sum and a CSR row a sequential one, so the same data stored both
    ways can differ in the last bit.  The signed rows are scaled as stored,
    with no second sign pass: a row's scale does not depend on its sign.
    """
    if isinstance(ds.signed_rows, np.ndarray):
        rows, zero_rows = _normalize_dense(ds.signed_rows)
    else:
        rows = ds.signed_rows.copy()
        rows.data, zero_rows = _normalize_csr(rows.data, rows.indptr)
    return Dataset._of_signed_rows(rows, ds.labels.copy()), zero_rows


def _normalize_dense(matrix: np.ndarray) -> tuple[np.ndarray, int]:
    """Rows of ordinary norm take one division; extreme and zero rows go through :func:`_normalize_csr`."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(matrix, axis=1)
    features = matrix / np.where(norms == 0.0, 1.0, norms)[:, None]
    extreme = np.flatnonzero((norms < _NORM_FLOOR) | np.isinf(norms))
    d = matrix.shape[1]
    scaled, zero_rows = _normalize_csr(matrix[extreme].ravel(), np.arange(0, extreme.size * d + 1, d))
    features[extreme] = scaled.reshape(-1, d)
    return features, zero_rows


def _normalize_csr(values: np.ndarray, indptr: np.ndarray) -> tuple[np.ndarray, int]:
    """The stored values of CSR rows scaled as :func:`normalize_rows` says, and the zero-row count."""
    n = indptr.size - 1
    row_of = np.repeat(np.arange(n), np.diff(indptr))
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.bincount(row_of, weights=values * values, minlength=n))
    # np.maximum.reduceat gives an empty segment the next row's first value
    # (or fails past the end), so only rows that store something take part.
    peaks = np.zeros(n)
    stores = indptr[1:] > indptr[:-1]
    peaks[stores] = np.maximum.reduceat(np.abs(values), indptr[:-1][stores])
    zero = peaks == 0.0
    extreme = (norms < _NORM_FLOOR) | np.isinf(norms)  # zero rows among them
    divisor = np.where(extreme, peaks, norms)
    divisor[zero] = 1.0
    scaled = values / divisor[row_of]
    again = (extreme & ~zero)[row_of]  # the stored values of extreme nonzero rows
    if again.any():
        part = scaled[again]
        part_norms = np.sqrt(np.bincount(row_of[again], weights=part * part, minlength=n))
        scaled[again] = part / part_norms[row_of[again]]
    return scaled, int(np.count_nonzero(zero))


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
    A feature matrix beyond physical memory raises :class:`DimensionTooLarge`,
    and a non-finite ``decay`` or one whose scales pass ``_SCALE_MAX``
    raises ``ValueError``, before anything is drawn.
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    _check_fits(n * d, f"dense {n} x {d} feature matrix")
    with np.errstate(over="ignore"):
        scales = np.arange(1, d + 1, dtype=float) ** (-decay)
    if not (math.isfinite(decay) and scales.max() <= _SCALE_MAX):
        raise ValueError(f"decay must be finite with scales j^(-decay) <= {_SCALE_MAX:.1e} up to j = {d}, got {decay}")
    features = gaussian_matrix(n, d, derive_seed(seed, 50))
    features *= scales
    planted = gaussian_matrix(d, 1, derive_seed(seed, 51))[:, 0]
    planted /= np.linalg.norm(planted)
    flips = np.random.default_rng(derive_seed(seed, 52)).random(n) < _LABEL_NOISE
    labels = np.where((features @ planted >= 0.0) != flips, 1.0, -1.0)
    ds = Dataset(features=features, labels=labels)
    if normalize:
        ds, _ = normalize_rows(ds)
    return ds
