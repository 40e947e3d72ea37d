"""Command-line benchmark runner.

Exit codes: 0 on success, 1 for configuration problems and command-line
usage errors, 2 when at least one requested method failed.  Set
BENCH_THREADS to cap the numeric kernels' thread pools; the cap is applied in
the package's `__init__`, before numpy is imported, so it must be decided at
process start.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from . import bench, objectives
from .errors import ConfigError, DimensionTooLarge, IncompatibleTraces, SpanOptError


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, not argparse's 2, which here means a method failed."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bench",
        description="Run approximate-Newton benchmark experiments and emit plot-ready tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run every method in a config, one trace CSV each")
    run.add_argument("config", help="flat key=value experiment config")
    run.add_argument("--output-dir", help="override the config's output_dir")

    plot = sub.add_parser("plot", help="align trace CSVs into one plot-ready table")
    plot.add_argument("mode", choices=bench.PLOT_MODES)
    plot.add_argument("csv", nargs="+", help="trace CSVs produced by `bench run`")
    plot.add_argument("-o", "--output", required=True, help="output table path")
    plot.add_argument(
        "--suboptimality",
        action="store_true",
        help="subtract the best loss seen across all traces",
    )

    scale = sub.add_parser("scale", help="per-iteration timing over a list of dimensions")
    scale.add_argument("config", help="config whose span section supplies l and q, and newsamp's rank m")
    scale.add_argument("--dims", required=True, help="comma-separated dimensions, e.g. 100,400,1600")
    scale.add_argument("-o", "--output", default="scaling.csv", help="output table path")
    scale.add_argument("--steps", type=int, default=20, help="timed steps per dimension")
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = _build_parser().parse_args(argv)

    try:
        if args.command == "run":
            cfg = bench.load_experiment_config(args.config)
            if args.output_dir:
                cfg.output_dir = Path(args.output_dir)
            result = bench.run_experiment(cfg)
            for method in result.methods:
                print(f"{method.method}: {method.status}")
            print(f"traces written to {result.output_dir}")
            return 0 if result.all_ok else 2

        if args.command == "plot":
            out = bench.emit_plot_data(args.csv, args.mode, args.output, args.suboptimality)
            print(f"wrote {out}")
            return 0

        if args.command == "scale":
            values = bench.read_config_values(args.config)
            sketch = bench.build_method_config(values, "span", seed=0)
            try:
                dims = [int(d) for d in args.dims.split(",") if d.strip()]
            except ValueError:
                raise ConfigError(f"--dims: expected integers, got {args.dims!r}") from None
            if not dims or min(dims) < 1:
                raise ConfigError(f"--dims: expected positive integers, got {args.dims!r}")
            try:  # every solve needs d-vectors
                objectives._check_fits(max(dims), f"a vector of dimension {max(dims)}")
            except DimensionTooLarge as exc:
                raise ConfigError(f"--dims: {exc}") from None
            if args.steps < 1:
                raise ConfigError(f"--steps: expected a positive integer, got {args.steps}")
            bench.check_output_dir(args.output)
            rows = bench.per_iteration_scaling(dims, l=sketch.l, m=sketch.m, q=sketch.q, steps=args.steps)
            bench.write_scaling_csv(rows, args.output)
            for row in rows:
                ns = "n/a" if row.newsamp_step_s is None else f"{row.newsamp_step_s:.6f}s"
                print(f"d={row.d}: span {row.span_step_s:.6f}s/step, dense baseline {ns}")
            print(f"wrote {args.output}")
            return 0
    except (ConfigError, IncompatibleTraces, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except SpanOptError as exc:
        print(f"method failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
