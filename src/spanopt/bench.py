"""Experiment runner: configs in, trace CSVs and plot tables out.

Configs are flat ``key = value`` text with dotted section names
(``span.l = 16``), '#' comments, and a comma-separated ``methods`` list; a
key outside :data:`CONFIG_KEYS` is a configuration error.
Every method in one experiment consumes the same normalized dataset and the
same start point (zeros, then the shared variance-reduced warm-up), so the
emitted traces are directly comparable.  Method failures are recorded
per-method without aborting the rest of the experiment.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from . import baselines, datasets, objectives, span
from .errors import (
    ConfigError, DimensionTooLarge, IncompatibleTraces, NoMatchingExamples, ParseError, SpanOptError,
)
from .hvp import HvpMode
from .objectives import Dataset, ObjectiveConfig
from .span import TraceRecord

log = logging.getLogger("spanopt.bench")

CSV_HEADER = "iteration,wall_clock_s,loss,grad_norm,hessian_err,lambda_used"

PLOT_MODES = ("loss_vs_time", "loss_vs_iter", "hessian_err")

KNOWN_METHODS = ("span",) + baselines.METHODS

_SPAN_KEYS = ("T", "m", "l", "q", "b", "eta", "seed", "grad_tol", "hvp")
_BASELINE_KEYS = ("T", "eta", "b", "seed", "grad_tol", "m", "inner_steps", "s1")

# Every key the loader reads.  Any other key is rejected, so a misspelled one
# cannot silently leave its setting at the default.
CONFIG_KEYS = frozenset(
    (
        "seed", "methods", "output_dir", "x0",
        "objective.loss", "objective.reg_a",
        "dataset.kind", "dataset.spectrum", "dataset.path", "dataset.positive_label",
        "dataset.negative_label", "dataset.normalize", "dataset.n", "dataset.d",
        "dataset.seed", "dataset.decay",
        "preiterate.epochs", "preiterate.eta", "probe.hessian_error",
    )
    + tuple(f"span.{key}" for key in _SPAN_KEYS)
    + tuple(f"{method}.{key}" for method in baselines.METHODS for key in _BASELINE_KEYS)
)


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


def check_config_keys(values: dict[str, str]) -> None:
    """Raise :class:`ConfigError` naming every key outside :data:`CONFIG_KEYS`."""
    unknown = sorted(set(values) - CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key {', '.join(map(repr, unknown))}")


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


@dataclass
class ExperimentConfig:
    """Everything one `bench run` needs, decoded from flat key-value text."""

    seed: int
    output_dir: Path
    methods: list[str]
    objective: ObjectiveConfig
    data: Optional[Dataset]
    preiterate_epochs: int
    preiterate_eta: float
    probe_hessian_error: bool
    x0_kind: str = "zeros"
    raw: dict[str, str] = field(default_factory=dict)


def _build_dataset(values: dict[str, str], seed: int) -> tuple[Optional[Dataset], Optional[np.ndarray]]:
    kind = _get(values, "dataset.kind", default=None)
    if kind is None:
        if "dataset.spectrum" in values:
            kind = "quadratic"
        elif "dataset.path" in values:
            kind = "libsvm"
        else:
            raise ConfigError("no dataset: set dataset.kind, dataset.spectrum, or dataset.path")

    if kind == "quadratic":
        spectrum_text = _get(values, "dataset.spectrum", required=True)
        try:
            spectrum = np.array([float(v) for v in spectrum_text.split(",")])
        except ValueError:
            raise ConfigError(f"dataset.spectrum: bad number in {spectrum_text!r}") from None
        if spectrum.size == 0 or not np.all((spectrum > 0) & np.isfinite(spectrum)):
            raise ConfigError("dataset.spectrum must be positive finite reals")
        return None, spectrum

    if kind == "libsvm":
        path = Path(_get(values, "dataset.path", required=True))
        if not path.exists():
            raise ConfigError(f"dataset.path does not exist: {path}")
        pos = _as_float(_get(values, "dataset.positive_label", required=True), "dataset.positive_label")
        neg = _as_float(_get(values, "dataset.negative_label", required=True), "dataset.negative_label")
        try:
            examples, dim = datasets.load_libsvm(path)
            ds = datasets.to_binary_dataset(examples, pos, neg, dim=dim)
        except (ParseError, NoMatchingExamples, DimensionTooLarge, ValueError) as exc:
            raise ConfigError(f"dataset.path {path}: {exc}") from None
        if _as_bool(_get(values, "dataset.normalize", "true"), "dataset.normalize"):
            ds, _ = datasets.normalize_rows(ds)
        return ds, None

    if kind == "synth_classification":
        n = _as_int(_get(values, "dataset.n", required=True), "dataset.n")
        d = _as_int(_get(values, "dataset.d", required=True), "dataset.d")
        dataset_seed = _as_int(_get(values, "dataset.seed", str(seed)), "dataset.seed")
        decay = _as_float(_get(values, "dataset.decay", "1.5"), "dataset.decay")
        normalize = _as_bool(_get(values, "dataset.normalize", "true"), "dataset.normalize")
        try:
            ds = datasets.synth_classification(n=n, d=d, seed=dataset_seed, decay=decay, normalize=normalize)
        except ValueError as exc:
            raise ConfigError(f"dataset: {exc}") from None
        return ds, None

    raise ConfigError(f"unknown dataset.kind {kind!r}")


def load_experiment_config(path: Union[str, Path]) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    values = parse_config_text(path.read_text())
    check_config_keys(values)

    seed = _as_int(_get(values, "seed", "0"), "seed")
    methods_text = _get(values, "methods", required=True)
    methods = [m.strip() for m in methods_text.split(",") if m.strip()]
    if not methods:
        raise ConfigError("methods list is empty")
    for method in methods:
        if method not in KNOWN_METHODS:
            raise ConfigError(f"unknown method {method!r} (known: {', '.join(KNOWN_METHODS)})")

    data, spectrum = _build_dataset(values, seed)
    loss_kind = _get(values, "objective.loss", required=True)
    reg_a = _as_float(_get(values, "objective.reg_a", "0.0"), "objective.reg_a")
    try:
        objective = ObjectiveConfig(
            loss_kind=loss_kind,
            reg_a=reg_a,
            quadratic_spectrum=spectrum if loss_kind == "quadratic" else None,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if loss_kind == "quadratic" and spectrum is None:
        raise ConfigError("quadratic objective needs dataset.spectrum")
    if loss_kind != "quadratic" and data is None:
        raise ConfigError(f"{loss_kind} objective needs a sampled dataset")
    if "svrg" in methods and data is None:
        raise ConfigError("svrg needs a sampled dataset, and quadratics carry no samples")

    x0_kind = _get(values, "x0", "zeros")
    if x0_kind not in ("zeros", "ones", "gaussian"):
        raise ConfigError(f"x0: expected zeros/ones/gaussian, got {x0_kind!r}")

    return ExperimentConfig(
        seed=seed,
        output_dir=Path(_get(values, "output_dir", "bench_out")),
        methods=methods,
        objective=objective,
        data=data,
        preiterate_epochs=_as_int(_get(values, "preiterate.epochs", "2"), "preiterate.epochs"),
        preiterate_eta=_as_float(_get(values, "preiterate.eta", "0.1"), "preiterate.eta"),
        probe_hessian_error=_as_bool(_get(values, "probe.hessian_error", "false"), "probe.hessian_error"),
        x0_kind=x0_kind,
        raw=values,
    )


def build_span_config(values: dict[str, str], seed: int, probe: bool) -> span.SpanConfig:
    def get(key: str, default=None, required=False):
        return _get(values, f"span.{key}", default=default, required=required)

    hvp_kind = get("hvp", "finite_difference")
    try:
        mode = HvpMode(kind=hvp_kind)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    try:
        return span.SpanConfig(
            t_max=_as_int(get("T", required=True), "span.T"),
            m=_as_int(get("m", required=True), "span.m"),
            l=_as_int(get("l", required=True), "span.l"),
            q=_as_int(get("q", "1"), "span.q"),
            b=_as_int(get("b", "1"), "span.b"),
            eta=_as_float(get("eta", "1.0"), "span.eta"),
            seed=_as_int(get("seed", str(seed)), "span.seed"),
            grad_tol=_as_float(get("grad_tol", "0.0"), "span.grad_tol"),
            hvp_mode=mode,
            probe_hessian_error=probe,
        )
    except (ValueError, SpanOptError) as exc:
        raise ConfigError(f"span config: {exc}") from None


def build_baseline_config(values: dict[str, str], method: str, seed: int) -> baselines.BaselineConfig:
    def get(key: str, default=None, required=False):
        return _get(values, f"{method}.{key}", default=default, required=required)

    kwargs = dict(
        method=method,
        eta=_as_float(get("eta", required=True), f"{method}.eta"),
        t_max=_as_int(get("T", required=True), f"{method}.T"),
        b=_as_int(get("b", "1"), f"{method}.b"),
        seed=_as_int(get("seed", str(seed)), f"{method}.seed"),
        grad_tol=_as_float(get("grad_tol", "0.0"), f"{method}.grad_tol"),
    )
    for key in ("m", "inner_steps", "s1"):
        if get(key) is not None:
            kwargs[key] = _as_int(get(key), f"{method}.{key}")
    try:
        return baselines.BaselineConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{method} config: {exc}") from None


def write_trace_csv(path: Union[str, Path], trace: Sequence[TraceRecord]) -> None:
    lines = [CSV_HEADER]
    for record in trace:
        hessian = "" if record.hessian_err is None else repr(record.hessian_err)
        lam = "" if record.lambda_used is None else repr(record.lambda_used)
        lines.append(
            f"{record.iteration},{record.wall_clock_s!r},{record.loss!r},"
            f"{record.grad_norm!r},{hessian},{lam}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def read_trace_csv(path: Union[str, Path]) -> list[TraceRecord]:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise IncompatibleTraces(f"{path}: unexpected or missing header")
    records = []
    for line in lines[1:]:
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 6:
            raise IncompatibleTraces(f"{path}: malformed row {line!r}")
        records.append(
            TraceRecord(
                iteration=int(parts[0]),
                wall_clock_s=float(parts[1]),
                loss=float(parts[2]),
                grad_norm=float(parts[3]),
                hessian_err=float(parts[4]) if parts[4] else None,
                lambda_used=float(parts[5]) if parts[5] else None,
            )
        )
    return records


@dataclass
class MethodResult:
    method: str
    status: str  # "ok" or "error: <message>"
    trace_path: Optional[Path]
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


def _preiterate(cfg: ExperimentConfig, x0: np.ndarray) -> np.ndarray:
    """Shared warm-up: a fixed number of variance-reduced epochs from x0."""
    if cfg.preiterate_epochs <= 0 or cfg.data is None:
        return x0
    warm = baselines.BaselineConfig(
        method="svrg",
        eta=cfg.preiterate_eta,
        t_max=cfg.preiterate_epochs,
        b=1,
        seed=cfg.seed,
    )
    x, _ = baselines.run_svrg(warm, cfg.objective, cfg.data, x0)
    return x


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run every configured method from one shared start point; write one CSV each.

    A failing method is recorded as ``error: ...`` in its result row and in
    the summary; the other methods still run.
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
    x0 = _preiterate(cfg, start)
    x0_bytes = x0.tobytes()

    results: list[MethodResult] = []
    for method in cfg.methods:
        assert x0.tobytes() == x0_bytes, "start point drifted between method launches"
        trace_path = cfg.output_dir / f"{method}.csv"
        try:
            if method == "span":
                method_cfg = build_span_config(cfg.raw, cfg.seed, cfg.probe_hessian_error)
                _, trace = span.run_span(method_cfg, cfg.objective, cfg.data, x0.copy())
            else:
                method_cfg = build_baseline_config(cfg.raw, method, cfg.seed)
                runner = baselines.RUNNERS[method]
                _, trace = runner(method_cfg, cfg.objective, cfg.data, x0.copy())
        except ConfigError:
            raise
        except SpanOptError as exc:
            log.warning("method %s failed: %s", method, exc)
            results.append(MethodResult(method, f"error: {exc}", None, None, None, None))
            continue
        write_trace_csv(trace_path, trace)
        last = trace[-1] if trace else None
        results.append(
            MethodResult(
                method=method,
                status="ok",
                trace_path=trace_path,
                final_loss=last.loss if last else None,
                final_grad_norm=last.grad_norm if last else None,
                total_seconds=last.wall_clock_s if last else 0.0,
            )
        )

    summary_lines = ["method,status,final_loss,final_grad_norm,total_seconds"]
    for r in results:
        summary_lines.append(
            f"{r.method},{r.status.split(':')[0]},"
            f"{'' if r.final_loss is None else repr(r.final_loss)},"
            f"{'' if r.final_grad_norm is None else repr(r.final_grad_norm)},"
            f"{'' if r.total_seconds is None else repr(r.total_seconds)}"
        )
    (cfg.output_dir / "summary.csv").write_text("\n".join(summary_lines) + "\n")
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
    trace_paths: Sequence[Union[str, Path]],
    mode: str,
    out_path: Union[str, Path],
    suboptimality: bool = False,
) -> Path:
    """Align traces on a shared abscissa into one plot-ready table.

    ``loss_vs_iter`` uses iteration numbers; ``loss_vs_time`` uses the union
    of wall-clock stamps with last-value carry-forward; ``hessian_err`` keeps
    only methods that actually probed, warning about the rest.  The
    suboptimality option subtracts the best loss seen across all traces.
    """
    if mode not in PLOT_MODES:
        raise IncompatibleTraces(f"unknown plot mode {mode!r}")
    if not trace_paths:
        raise IncompatibleTraces("no trace files given")

    columns: dict[str, list[TraceRecord]] = {}
    for path in trace_paths:
        name = Path(path).stem
        records = read_trace_csv(path)
        if not records:
            raise IncompatibleTraces(f"{path}: empty trace")
        columns[name] = records

    if mode == "hessian_err":
        kept = {}
        for name, records in columns.items():
            probed = [r for r in records if r.hessian_err is not None]
            if probed:
                kept[name] = probed
            else:
                log.warning("trace %s has no probe column; omitted from hessian_err table", name)
        if not kept:
            raise IncompatibleTraces("no trace has Hessian-error probes")
        abscissa = sorted({r.iteration for rs in kept.values() for r in rs})
        header = ["iteration"] + list(kept)
        rows = []
        for it in abscissa:
            row = [str(it)]
            for name in kept:
                match = [r.hessian_err for r in kept[name] if r.iteration == it]
                row.append(repr(match[0]) if match else "")
            rows.append(row)
    else:
        offset = 0.0
        if suboptimality:
            offset = min(r.loss for rs in columns.values() for r in rs)
        if mode == "loss_vs_iter":
            abscissa = sorted({r.iteration for rs in columns.values() for r in rs})
            header = ["iteration"] + list(columns)
            rows = []
            for it in abscissa:
                row = [str(it)]
                for name in columns:
                    match = [r.loss for r in columns[name] if r.iteration == it]
                    row.append(repr(match[0] - offset) if match else "")
                rows.append(row)
        else:
            stamps = sorted({r.wall_clock_s for rs in columns.values() for r in rs})
            header = ["wall_clock_s"] + list(columns)
            series = {
                name: _carry_forward(stamps, [(r.wall_clock_s, r.loss) for r in rs])
                for name, rs in columns.items()
            }
            rows = []
            for i, stamp in enumerate(stamps):
                row = [repr(stamp)]
                for name in columns:
                    value = series[name][i]
                    row.append("" if value is None else repr(value - offset))
                rows.append(row)

    out_path = Path(out_path)
    out_path.write_text(",".join(header) + "\n" + "\n".join(",".join(r) for r in rows) + "\n")
    return out_path


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
    its dimension cap, ``objectives.DENSE_HESSIAN_MAX_DIM``.
    """
    span_samples: dict[int, list[float]] = {d: [] for d in dims}
    newsamp_samples: dict[int, list[float]] = {d: [] for d in dims}
    for round_idx in range(rounds):
        for d in dims:
            objective, _ = datasets.synth_quadratic(_scaling_spectrum(d))
            x0 = np.full(d, 1.0)
            span_cfg = span.SpanConfig(
                t_max=steps + warmup, m=m, l=l, q=q, b=1,
                eta=0.5, seed=seed + round_idx, hvp_mode=HvpMode(kind="analytic"),
            )
            _, trace = span.run_span(span_cfg, objective, None, x0)
            span_samples[d].append(_median_step_seconds(trace, warmup))

            if d <= objectives.DENSE_HESSIAN_MAX_DIM:
                ns_cfg = baselines.BaselineConfig(
                    method="newsamp", eta=0.5, t_max=steps + warmup, b=1, m=m,
                    seed=seed + round_idx,
                )
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
    lines = ["d,span_step_s,newsamp_step_s"]
    for row in rows:
        ns = "" if row.newsamp_step_s is None else repr(row.newsamp_step_s)
        lines.append(f"{row.d},{row.span_step_s!r},{ns}")
    out_path = Path(out_path)
    out_path.write_text("\n".join(lines) + "\n")
    return out_path
