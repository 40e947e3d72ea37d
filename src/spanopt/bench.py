"""Experiment runner: configs in, trace CSVs and plot tables out.

Configs are flat ``key = value`` text with dotted section names
(``span.l = 16``), '#' comments, and a comma-separated ``methods`` list; a
key outside :data:`CONFIG_KEYS` is a configuration error.  One key table,
:data:`CONFIG_SECTIONS`, gives every section's keys with their converters
and the defaults only bench decides (any other absent key takes its
reader's default), and one decoder reads every section through it.  Loading
builds every object a run needs: the dataset, the objective, the shared
warm-up's config (its keys are checked like every method's) and the config
of every listed method.  So every configuration error surfaces before any
method runs or any file is written.  Every method in one experiment consumes
the same normalized dataset (:func:`datasets.normalize_rows` rescales rows
whose squared norm would overflow or underflow) and the same start point
(zeros, then the shared variance-reduced warm-up), so the emitted traces are
directly comparable.  Method failures are recorded per-method without
aborting the rest of the experiment.
"""

from __future__ import annotations

import logging
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union, get_type_hints

import numpy as np

from . import baselines, datasets, objectives, span
from .errors import (
    ConfigError, DimensionTooLarge, IncompatibleTraces, NoMatchingExamples, ParseError, SpanOptError,
)
from .hvp import ANALYTIC, HvpMode
from .objectives import Dataset, ObjectiveConfig
from .span import TraceRecord

log = logging.getLogger("spanopt.bench")

# The trace columns are TraceRecord's fields, in order.  A cell is read as
# its field's type, int or float; an empty cell is None where the field has
# a default (always None).
CSV_HEADER = ",".join(TraceRecord._fields)
_TRACE_CELLS = [
    (int if get_type_hints(TraceRecord)[name] is int else float, name in TraceRecord._field_defaults)
    for name in TraceRecord._fields
]

PLOT_MODES = ("loss_vs_time", "loss_vs_iter", "hessian_err")

_RUNNERS = {"span": span.run_span, **baselines.RUNNERS}

KNOWN_METHODS = tuple(_RUNNERS)


def parse_config_text(text: str) -> dict[str, str]:
    """Flat key = value lines into a dict; later keys override earlier ones."""
    values: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw.strip()!r}")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"line {line_no}: empty key or value")
        values[key] = value
    return values


def _get(values: dict[str, str], key: str, default=None, required: bool = False) -> Optional[str]:
    if key in values:
        return values[key]
    if required:
        raise ConfigError(f"missing required config key {key!r}")
    return default


def _as_bool(text: str, key: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {text!r}")


def _as_float(text: str, key: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {text!r}") from None
    if not np.isfinite(value):
        raise ConfigError(f"{key}: expected a finite number, got {text!r}")
    return value


def _as_int(text: str, key: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {text!r}") from None


def _as_hvp_mode(text: str, key: str) -> HvpMode:
    try:
        return HvpMode(kind=text)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def _as_text(text: str, key: str) -> str:
    return text


def _as_path(text: str, key: str) -> Path:
    return Path(text)


def _as_file(text: str, key: str) -> Path:
    path = Path(text)
    if not path.exists():
        raise ConfigError(f"{key} does not exist: {path}")
    return path


def _as_methods(text: str, key: str) -> list[str]:
    methods = [m.strip() for m in text.split(",") if m.strip()]
    if not methods:
        raise ConfigError("methods list is empty")
    for i, method in enumerate(methods):
        if method not in KNOWN_METHODS:
            raise ConfigError(f"unknown method {method!r} (known: {', '.join(KNOWN_METHODS)})")
        if method in methods[:i]:
            raise ConfigError(f"method {method!r} is listed twice")
    return methods


def _as_x0(text: str, key: str) -> str:
    if text not in ("zeros", "ones", "gaussian"):
        raise ConfigError(f"{key}: expected zeros/ones/gaussian, got {text!r}")
    return text


def _as_spectrum(text: str, key: str) -> np.ndarray:
    # Only parsed here: ObjectiveConfig says what a valid spectrum is.
    try:
        return np.array([float(v) for v in text.split(",")])
    except ValueError:
        raise ConfigError(f"{key}: bad number in {text!r}") from None


_REQUIRED = object()  # the section must set the key
_RUN_SEED = object()  # the key defaults to the top-level seed
_INT, _FLOAT = (_as_int, _REQUIRED), (_as_float, _REQUIRED)
_SEED = (_as_int, _RUN_SEED)
# Absent: left out, so the class or generator that reads the key applies its own default.
_OWN_INT, _OWN_FLOAT = (_as_int, None), (_as_float, None)

# Per section, every key the loader reads: key -> (converter, default text),
# a default only where bench alone decides it.  The config writes a key as
# ``<section>.<key>``, except that the top-level section "" writes it bare
# and a dataset kind's section ``dataset.<kind>`` writes it as ``dataset.<key>``.
CONFIG_SECTIONS = {
    "": {"seed": (_as_int, "0"), "methods": (_as_methods, _REQUIRED), "output_dir": (_as_path, "bench_out"),
         "x0": (_as_x0, "zeros")},
    "objective": {"loss": (_as_text, _REQUIRED), "reg_a": _OWN_FLOAT},
    "dataset": {"kind": (_as_text, None)},  # absent: inferred from dataset.spectrum or dataset.path
    "dataset.quadratic": {"spectrum": (_as_spectrum, _REQUIRED)},
    "dataset.libsvm": {"path": (_as_file, _REQUIRED), "positive_label": _FLOAT, "negative_label": _FLOAT,
                       "normalize": (_as_bool, "true")},
    "dataset.synth_classification": {"n": _INT, "d": _INT, "seed": _SEED, "decay": _OWN_FLOAT,
                                     "normalize": (_as_bool, None)},
    "preiterate": {"epochs": (_as_int, "2"), "eta": (_as_float, "0.1")},
    "probe": {"hessian_error": (_as_bool, "false")},
    # One section per method: every key its runner reads.
    "span": {"T": _INT, "m": _INT, "l": _INT, "q": (_as_int, "1"), "b": (_as_int, "1"), "eta": _OWN_FLOAT,
             "seed": _SEED, "grad_tol": _OWN_FLOAT, "hvp": (_as_hvp_mode, None)},
    "gd": {"T": _INT, "eta": _FLOAT, "grad_tol": _OWN_FLOAT},
    "svrg": {"T": _INT, "eta": _FLOAT, "seed": _SEED, "grad_tol": _OWN_FLOAT, "b": _OWN_INT, "inner_steps": _OWN_INT},
    "newsamp": {"T": _INT, "eta": _FLOAT, "seed": _SEED, "grad_tol": _OWN_FLOAT, "b": _OWN_INT, "m": _INT},
    "lissa": {"T": _INT, "eta": _FLOAT, "seed": _SEED, "grad_tol": _OWN_FLOAT, "inner_steps": _OWN_INT, "s1": _OWN_INT},
}

# Field names of the keys whose config class or builder names them otherwise.
_FIELDS = {"T": "t_max", "epochs": "t_max", "hvp": "hvp_mode", "loss": "loss_kind", "x0": "x0_kind"}


def _config_key(section: str, key: str) -> str:
    prefix = section.split(".")[0]
    return f"{prefix}.{key}" if prefix else key


# Every key the loader reads.  Any other key is rejected, so a misspelled one
# cannot silently leave its setting at the default.
CONFIG_KEYS = frozenset(_config_key(section, key) for section, keys in CONFIG_SECTIONS.items() for key in keys)


def _decode_section(values: dict[str, str], section: str, seed: Optional[int] = None) -> dict:
    """Field values of one section through :data:`CONFIG_SECTIONS`; a key absent with no default is left out."""
    kwargs = {}
    for key, (convert, default) in CONFIG_SECTIONS[section].items():
        name = _config_key(section, key)
        if default is _RUN_SEED:
            default = str(seed)
        text = _get(values, name, default, required=default is _REQUIRED)
        if text is not None:
            kwargs[_FIELDS.get(key, key)] = convert(text, name)
    return kwargs


def _build(context: str, factory, **kwargs):
    """``factory(**kwargs)``; a value it rejects raises :class:`ConfigError` naming ``context``."""
    try:
        return factory(**kwargs)
    except (ValueError, SpanOptError) as exc:
        raise ConfigError(f"{context}: {exc}") from None


@dataclass
class ExperimentConfig:
    """Everything one `bench run` needs, built from flat key-value text.

    ``warmup`` is the shared variance-reduced warm-up, ``None`` when
    ``preiterate.epochs = 0`` or the problem is a quadratic;
    ``method_configs`` holds the config of every method the file lists.
    """

    seed: int
    output_dir: Path
    methods: list[str]
    objective: ObjectiveConfig
    data: Optional[Dataset]
    warmup: Optional[baselines.BaselineConfig]
    x0_kind: str
    method_configs: dict[str, Union[span.SpanConfig, baselines.BaselineConfig]]


def _build_dataset(values: dict[str, str], seed: int) -> tuple[Optional[Dataset], Optional[np.ndarray]]:
    """The sampled dataset, or a quadratic's spectrum, from the ``dataset`` sections."""
    kind = _decode_section(values, "dataset").get("kind")
    if kind is None:
        if "dataset.spectrum" in values:
            kind = "quadratic"
        elif "dataset.path" in values:
            kind = "libsvm"
        else:
            raise ConfigError("no dataset: set dataset.kind, dataset.spectrum, or dataset.path")
    if f"dataset.{kind}" not in CONFIG_SECTIONS:
        raise ConfigError(f"unknown dataset.kind {kind!r}")
    own = {_config_key(section, key) for section in ("dataset", f"dataset.{kind}") for key in CONFIG_SECTIONS[section]}
    foreign = sorted(key for key in values if key.startswith("dataset.") and key not in own)
    if foreign:
        raise ConfigError(f"{', '.join(map(repr, foreign))} not read by dataset.kind {kind!r}")
    kwargs = _decode_section(values, f"dataset.{kind}", seed)
    if kind == "quadratic":
        return None, kwargs["spectrum"]
    if kind == "synth_classification":
        return _build("dataset", datasets.synth_classification, **kwargs), None
    path = kwargs["path"]
    try:
        examples, dim = datasets.load_libsvm(path)
        ds = datasets.to_binary_dataset(examples, kwargs["positive_label"], kwargs["negative_label"], dim=dim)
    except (ParseError, NoMatchingExamples, DimensionTooLarge, ValueError) as exc:
        raise ConfigError(f"dataset.path {path}: {exc}") from None
    return (datasets.normalize_rows(ds)[0] if kwargs["normalize"] else ds), None


def _read_text(path: Path, error: type[SpanOptError]) -> str:
    """The text of ``path``; bytes that are not UTF-8 raise ``error`` naming the file."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text (byte {exc.start})") from None


def read_config_values(path: Union[str, Path]) -> dict[str, str]:
    """The key/value pairs of a config file, every key checked against :data:`CONFIG_KEYS`."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    values = parse_config_text(_read_text(path, ConfigError))
    unknown = sorted(set(values) - CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key {', '.join(map(repr, unknown))}")
    return values


def load_experiment_config(path: Union[str, Path]) -> ExperimentConfig:
    """Decode a config file and build every object its run needs; a bad value raises :class:`ConfigError`."""
    values = read_config_values(path)
    run = _decode_section(values, "")
    seed = run["seed"]
    data, spectrum = _build_dataset(values, seed)
    fields = _decode_section(values, "objective")
    loss_kind = fields["loss_kind"]
    objective = _build(
        "objective", ObjectiveConfig, quadratic_spectrum=spectrum if loss_kind == "quadratic" else None, **fields
    )
    if loss_kind != "quadratic" and data is None:
        raise ConfigError(f"{loss_kind} objective needs a sampled dataset")
    if "svrg" in run["methods"] and data is None:
        raise ConfigError("svrg needs a sampled dataset, and quadratics carry no samples")

    preiterate = _decode_section(values, "preiterate")  # decoded even where no warm-up runs
    warmup = None
    if data is not None and preiterate["t_max"] != 0:
        warmup = _build("preiterate", baselines.BaselineConfig, method="svrg", b=1, seed=seed, **preiterate)
    probe = _decode_section(values, "probe")["hessian_error"]
    method_configs = {m: build_method_config(values, m, seed, probe) for m in run["methods"]}
    return ExperimentConfig(**run, objective=objective, data=data, warmup=warmup, method_configs=method_configs)


def build_method_config(
    values: dict[str, str], method: str, seed: int, probe: bool = False
) -> Union[span.SpanConfig, baselines.BaselineConfig]:
    """One method's config from its section; ``probe`` turns on span's Hessian-error probe."""
    kwargs = _decode_section(values, method, seed)
    if method == "span":
        return _build("span config", span.SpanConfig, probe_hessian_error=probe, **kwargs)
    return _build(f"{method} config", baselines.BaselineConfig, method=method, **kwargs)


def _cell(value) -> str:
    """One CSV cell: empty for a missing value, ``repr`` for a float, else the value as text."""
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def check_output_dir(path: Union[str, Path]) -> None:
    """Raise :class:`ConfigError` unless the directory ``path`` would be written in exists.

    Table writers call it before the work that fills the table, so a
    mistyped ``-o`` is refused before any timing or trace reading.
    """
    folder = Path(path).parent
    if not folder.is_dir():
        raise ConfigError(f"{path}: output directory {folder} does not exist")


def _write_csv(path: Union[str, Path], header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    path = Path(path)
    lines = [",".join(header)] + [",".join(map(_cell, row)) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    return path


def write_trace_csv(path: Union[str, Path], trace: Sequence[TraceRecord]) -> None:
    _write_csv(path, TraceRecord._fields, trace)


def read_trace_csv(path: Union[str, Path]) -> list[TraceRecord]:
    lines = _read_text(Path(path), IncompatibleTraces).splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise IncompatibleTraces(f"{path}: unexpected or missing header")
    records = []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            records.append(TraceRecord(*(
                None if optional and not cell else convert(cell)
                for (convert, optional), cell in zip(_TRACE_CELLS, line.split(","), strict=True)
            )))
        except ValueError:
            raise IncompatibleTraces(f"{path}: line {line_no}: malformed row {line!r}") from None
    return records


@dataclass
class MethodResult:
    method: str
    status: str  # "ok" or "error: <message>"
    final_loss: Optional[float]
    final_grad_norm: Optional[float]
    total_seconds: Optional[float]


@dataclass
class ExperimentResult:
    output_dir: Path
    x0: np.ndarray
    methods: list[MethodResult]

    @property
    def all_ok(self) -> bool:
        return all(m.status == "ok" for m in self.methods)


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run every configured method from one shared start point; write one CSV each.

    A failing method is recorded as ``error: ...`` in its result row and in
    the summary, and any trace it left in ``output_dir`` from an earlier run
    is removed; the other methods still run.
    """
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    dim = cfg.objective.dim if cfg.objective.dim is not None else cfg.data.dim
    if cfg.x0_kind == "ones":
        start = np.ones(dim)
    elif cfg.x0_kind == "gaussian":
        from .linalg import derive_seed, gaussian_matrix

        start = gaussian_matrix(dim, 1, derive_seed(cfg.seed, 60))[:, 0]
    else:
        start = np.zeros(dim)
    # The shared warm-up: a fixed number of variance-reduced epochs from the start point.
    x0 = start if cfg.warmup is None else baselines.run_svrg(cfg.warmup, cfg.objective, cfg.data, start)[0]
    x0_bytes = x0.tobytes()

    results: list[MethodResult] = []
    for method in cfg.methods:
        assert x0.tobytes() == x0_bytes, "start point drifted between method launches"
        try:
            _, trace = _RUNNERS[method](cfg.method_configs[method], cfg.objective, cfg.data, x0.copy())
        except SpanOptError as exc:
            log.warning("method %s failed: %s", method, exc)
            (cfg.output_dir / f"{method}.csv").unlink(missing_ok=True)
            results.append(MethodResult(method, f"error: {exc}", None, None, None))
            continue
        write_trace_csv(cfg.output_dir / f"{method}.csv", trace)
        last = trace[-1] if trace else None
        results.append(
            MethodResult(
                method=method,
                status="ok",
                final_loss=last.loss if last else None,
                final_grad_norm=last.grad_norm if last else None,
                total_seconds=last.wall_clock_s if last else 0.0,
            )
        )

    _write_csv(
        cfg.output_dir / "summary.csv",
        ("method", "status", "final_loss", "final_grad_norm", "total_seconds"),
        ((r.method, r.status.split(":")[0], r.final_loss, r.final_grad_norm, r.total_seconds) for r in results),
    )
    return ExperimentResult(output_dir=cfg.output_dir, x0=x0, methods=results)


def _carry_forward(abscissa: list[float], points: list[tuple[float, float]]) -> list[Optional[float]]:
    out: list[Optional[float]] = []
    i = 0
    current: Optional[float] = None
    for a in abscissa:
        while i < len(points) and points[i][0] <= a:
            current = points[i][1]
            i += 1
        out.append(current)
    return out


def emit_plot_data(
    paths: Sequence[Union[str, Path]],
    mode: str,
    out_path: Union[str, Path],
    suboptimality: bool = False,
) -> Path:
    """Align traces on a shared abscissa into one plot-ready table.

    ``loss_vs_iter`` uses iteration numbers, taking each trace's first row at
    an iteration; ``loss_vs_time`` uses the union of wall-clock stamps with
    last-value carry-forward; ``hessian_err`` is keyed like ``loss_vs_iter``.
    Each trace keeps the rows that carry the table's field, ``hessian_err``
    in that mode and ``loss`` otherwise; a trace left with none, one that
    never probed, is omitted with a warning.  The suboptimality option
    subtracts the best finite loss seen across all traces, and refuses traces
    that hold none; it leaves Hessian errors as they are.
    """
    if mode not in PLOT_MODES:
        raise IncompatibleTraces(f"unknown plot mode {mode!r}")
    if not paths:
        raise IncompatibleTraces("no trace files given")
    check_output_dir(out_path)

    field = "hessian_err" if mode == "hessian_err" else "loss"
    columns: dict[str, list[TraceRecord]] = {}
    for path in paths:
        name = Path(path).stem
        if name in columns:
            raise IncompatibleTraces(f"two traces are named {name!r}; columns are keyed by file stem")
        records = read_trace_csv(path)
        if not records:
            raise IncompatibleTraces(f"{path}: empty trace")
        columns[name] = [r for r in records if getattr(r, field) is not None]
        if not columns[name]:  # only a trace that never probed: every row has a loss
            log.warning("trace %s has no probe column; omitted from %s table", name, mode)
    columns = {name: records for name, records in columns.items() if records}
    if not columns:
        raise IncompatibleTraces("no trace has Hessian-error probes")

    offset = 0.0
    if suboptimality and field == "loss":
        finite = [r.loss for rs in columns.values() for r in rs if np.isfinite(r.loss)]
        if not finite:
            raise IncompatibleTraces("no trace has a finite loss to measure suboptimality from")
        offset = min(finite)

    key = "wall_clock_s" if mode == "loss_vs_time" else "iteration"
    keys = sorted({getattr(r, key) for rs in columns.values() for r in rs})
    series = []
    for records in columns.values():
        points = [(getattr(r, key), getattr(r, field) - offset) for r in records]
        if key == "wall_clock_s":
            series.append(_carry_forward(keys, points))
        else:
            first = dict(reversed(points))  # the first row at each iteration wins
            series.append([first.get(k) for k in keys])
    return _write_csv(out_path, [key, *columns], zip(keys, *series))


def _scaling_spectrum(d: int) -> np.ndarray:
    return 1.0 + 9.0 * (d - np.arange(1, d + 1)) / d  # 10 down to ~1, any d


@dataclass(frozen=True)
class ScalingRow:
    d: int
    span_step_s: float
    newsamp_step_s: Optional[float]


def per_iteration_scaling(
    dims: Sequence[int],
    l: int,
    m: int,
    q: int,
    steps: int = 20,
    warmup: int = 3,
    seed: int = 0,
    rounds: int = 2,
) -> list[ScalingRow]:
    """Representative per-step seconds on synthetic quadratics, per dimension.

    Each dimension is timed in ``rounds`` interleaved runs of ``steps`` steps
    (after ``warmup`` excluded steps); the reported figure is the minimum of
    the per-run medians.  Medians reject stray slow steps and the min across
    interleaved rounds rejects whole contention windows, neither of which
    says anything about the algorithms.  The dense baseline is skipped above
    its dimension cap, ``objectives.DENSE_HESSIAN_MAX_DIM``.  ``m`` is its rank
    (``span`` ignores it); one below 1 raises :class:`ConfigError` before any timing.
    """
    span_samples: dict[int, list[float]] = {d: [] for d in dims}
    newsamp_samples: dict[int, list[float]] = {d: [] for d in dims}
    for round_idx in range(rounds):
        span_cfg = span.SpanConfig(
            t_max=steps + warmup, m=m, l=l, q=q, b=1,
            eta=0.5, seed=seed + round_idx, hvp_mode=ANALYTIC,
        )
        ns_cfg = _build("span.m", baselines.BaselineConfig, method="newsamp", eta=0.5, t_max=steps + warmup,
                        m=m, seed=seed + round_idx)
        for d in dims:
            objective, _ = datasets.synth_quadratic(_scaling_spectrum(d))
            x0 = np.full(d, 1.0)
            _, trace = span.run_span(span_cfg, objective, None, x0)
            span_samples[d].append(_median_step_seconds(trace, warmup))

            if d <= objectives.DENSE_HESSIAN_MAX_DIM:
                _, ns_trace = baselines.run_newsamp(ns_cfg, objective, None, x0)
                newsamp_samples[d].append(_median_step_seconds(ns_trace, warmup))
    return [
        ScalingRow(
            d=d,
            span_step_s=min(span_samples[d]),
            newsamp_step_s=min(newsamp_samples[d]) if newsamp_samples[d] else None,
        )
        for d in dims
    ]


def _median_step_seconds(trace: Sequence[TraceRecord], warmup: int) -> float:
    stamps = [0.0] + [r.wall_clock_s for r in trace]
    deltas = np.diff(stamps)[warmup:]
    return float(np.median(deltas))


def write_scaling_csv(rows: Sequence[ScalingRow], out_path: Union[str, Path]) -> Path:
    return _write_csv(out_path, ("d", "span_step_s", "newsamp_step_s"), map(astuple, rows))
