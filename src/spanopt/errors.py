"""Exception hierarchy for the spanopt library.

Every failure the numerical kernels and drivers can signal is a subclass of
:class:`SpanOptError`, so callers can catch one base class at the benchmark
boundary while tests assert on the specific condition.
"""


class SpanOptError(Exception):
    """Base class for all spanopt errors."""


class RankDeficient(SpanOptError):
    """QR input columns are numerically dependent; resample the sketch or shrink it."""


class NoConvergence(SpanOptError):
    """The power-iteration norm probe exceeded its iteration cap."""


class SingularSystem(SpanOptError):
    """A matrix to invert is singular: the captured block Z^T U has condition >= 1e12,
    or lissa's start point has zero curvature to scale by."""


class DimensionMismatch(SpanOptError):
    """Vector or matrix shapes are inconsistent with the problem dimension."""


class DimensionTooLarge(SpanOptError):
    """A dense-only operation was requested above its dimension cap, or a dense
    feature matrix would not fit in physical memory."""


class BatchTooLarge(SpanOptError):
    """Requested batch size exceeds the number of samples (or is not positive)."""


class NonFiniteResult(SpanOptError):
    """NaN/Inf where a finite value is needed: objective overflow at a finite-difference
    point, a diverged iterate reaching a factorization, or a power-iteration norm
    estimate that overflowed."""


class InvalidRankParams(SpanOptError):
    """Rank parameters do not fit the problem: sketch needs m + 4 <= l <= d, newsamp 1 <= m < d."""


class IndefiniteBlock(SpanOptError):
    """The captured block Z^T U is not positive definite on the sampled batch."""


class DivergingSeries(SpanOptError):
    """The truncated Neumann recursion grew beyond bounds; the operator was not contractive."""


class ParseError(SpanOptError):
    """Malformed input file; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NoMatchingExamples(SpanOptError):
    """Label filtering dropped every example."""


class ConfigError(SpanOptError):
    """Experiment configuration is missing keys or has unusable values."""


class IncompatibleTraces(SpanOptError):
    """Trace files cannot be aligned into one table."""
