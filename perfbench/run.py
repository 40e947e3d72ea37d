"""spanopt benchmark: time to a gradient target for `span` and one comparator.

    python3 perfbench/run.py --workload <desk-logistic|libsvm-fd|wide-quadratic>
                             --seed <n> --seconds <s> --trace <0|1>

Run from a checkout: the library is imported from ``src/`` next to this
directory, with BENCH_THREADS=1 so BLAS runs one thread.  A run builds the
workload (timed set-up, repeated), computes its own reference optimum, runs
one untimed solve per method, then repeats whole rounds of seeded solves
until ``--seconds`` have passed.  Every solve is checked against the
reference; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  Details go to ``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
# Set-up repeats for at least this long, so that a set-up shorter than timer
# noise is the median of many spread over several calibration samples.
SETUP_MIN_S = 1.0

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "span.time_to_target_s": "s",
    "span.step_ms": "ms",
    "baseline.time_to_target_s": "s",
}

# Per-layer metrics, per solve of the method named: (unit, method, how).
# Times are scaled like the end-to-end ones; see calibration.py.
PER_LAYER = {
    "datasets.load_libsvm_s": ("s", "setup", ("inclusive_s", "datasets.load_libsvm")),
    "datasets.to_binary_dataset_s": ("s", "setup", ("inclusive_s", "datasets.to_binary_dataset")),
    "datasets.normalize_rows_s": ("s", "setup", ("inclusive_s", "datasets.normalize_rows")),
    "objectives.batch_gradient_calls": ("count", "span", ("calls", "objectives.batch_gradient")),
    "objectives.batch_gradient_s": ("s", "span", ("inclusive_s", "objectives.batch_gradient")),
    "objectives.full_gradient_calls": ("count", "span", ("full_calls", "objectives.batch_gradient")),
    "objectives.exact_hvp_calls": ("count", "span", ("calls", "objectives.exact_hvp")),
    "objectives.exact_hvp_s": ("s", "span", ("inclusive_s", "objectives.exact_hvp")),
    "objectives.dense_hessian_s": ("s", "baseline", ("inclusive_s", "objectives.dense_hessian")),
    "objectives.rows_gathered": ("count", "span", ("layer_count", "objectives")),
    "hvp.products": ("count", "span", ("outer_count", "hvp")),
    "hvp.self_s": ("s", "span", ("self_s", "hvp")),
    "rangefinder.self_s": ("s", "span", ("self_s", "rangefinder")),
    "rangefinder.sketch_draws": ("count", "span", ("binding_calls", ("linalg.gaussian_matrix", "rangefinder"))),
    "rangefinder.resamples": ("count", "span", ("resamples", None)),
    "linalg.eig_s.span": ("s", "span", ("binding_s", ("linalg.sym_eig_small", "span"))),
    "linalg.eig_s.newsamp": ("s", "baseline", ("binding_s", ("linalg.sym_eig_small", "baselines"))),
    "linalg.qr_s": ("s", "span", ("inclusive_s", "linalg.qr_orthonormal")),
    "linalg.gaussian_s": ("s", "span", ("inclusive_s", "linalg.gaussian_matrix")),
    "linalg.solve_s": ("s", "span", ("inclusive_s", "linalg.solve_small")),
    "span.iterations": ("count", "span", ("calls", "span.span_step")),
    "span.apply_inverse_s": ("s", "span", ("inclusive_s", "span.apply_inverse")),
    "span.self_s": ("s", "span", ("self_s", "span")),
    "baseline.iterations": ("count", "baseline", ("iterations", None)),
    "baseline.self_s": ("s", "baseline", ("self_s", "baselines")),
    "baseline.batch_gradient_calls": ("count", "baseline", ("calls", "objectives.batch_gradient")),
    "baseline.full_gradient_calls": ("count", "baseline", ("full_calls", "objectives.batch_gradient")),
    "baseline.batch_gradient_s": ("s", "baseline", ("inclusive_s", "objectives.batch_gradient")),
    "trace.overhead_span_pct": ("%", "span", ("overhead", None)),
    "trace.overhead_baseline_pct": ("%", "baseline", ("overhead", None)),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def layer_value(agg: dict, how: tuple, iterations: int) -> float:
    kind, key = how
    if kind == "iterations":
        return iterations
    if kind == "resamples":
        draws = agg["binding_calls"].get(("linalg.gaussian_matrix", "rangefinder"), 0)
        return draws - agg["calls"].get("rangefinder.power_range", 0)
    if kind == "layer_count":
        return sum(n for name, n in agg["count"].items() if name.startswith(key + "."))
    return agg[kind].get(key, 0)


class Run:
    """One benchmark run of one workload: set-up, reference, rounds of solves."""

    def __init__(self, workload, seconds: float, trace: bool):
        import calibration  # loads numpy: only after main() has set BENCH_THREADS
        import tracing

        self.workload = workload
        self.run_seconds = seconds
        self.trace = trace
        self.calibration = calibration.Calibration(workload.calibration_parts)
        self.tracer = tracing.Tracer()
        self.aggregate = tracing.aggregate
        self.errors: list[str] = []  # run-level check failures
        self.solves: list[dict] = []
        self.kept_spans: dict = {}

    def traced_call(self, root: str, fn):
        """Call ``fn`` with the layer wrappers installed; return (result, aggregate)."""
        self.tracer.clear()
        with self.tracer.installed(), self.tracer.root(root):
            result = fn()
        spans = self.tracer.spans
        self.kept_spans.setdefault(root, spans)
        return result, self.aggregate(spans, self.calibration.busy)

    def seconds(self, record: dict) -> float:
        """A timed interval's length, less the calibration samples inside it."""
        return record["end"] - record["start"] - self.calibration.busy(record["start"], record["end"])

    def scale(self, record: dict) -> float:
        return self.calibration.scale_at(record["start"], record["end"])

    def scaled(self, record: dict) -> float:
        """A timed interval's seconds, scaled by the host speed around it."""
        return self.seconds(record) * self.scale(record)

    def run_setup(self):
        w = self.workload
        w.prepare()
        self.setups = []
        first = time.perf_counter()
        while len(self.setups) < w.setup_repeats or time.perf_counter() - first < SETUP_MIN_S:
            start = time.perf_counter()
            problem = w.setup()
            self.setups.append({"start": start, "end": time.perf_counter()})
        if self.trace:
            start = time.perf_counter()
            _, agg = self.traced_call("setup", w.setup)
            self.traced_setup = {"start": start, "end": time.perf_counter(), "agg": agg}
        error = w.check_setup(problem)
        if error:
            self.errors.append(f"set-up: {error}")
        w.add_reference(problem)
        return problem

    def solve(self, solver, role: str, k: int, problem, traced: bool) -> dict:
        import spanopt
        import workloads

        cfg = solver.config(k)
        record = {"method": solver.name, "role": role, "k": k, "traced": traced}
        try:
            record["start"] = time.perf_counter()
            if traced:
                (x, trace), record["agg"] = self.traced_call(
                    f"solve.{solver.name}", lambda: solver.run(cfg, problem)
                )
            else:
                x, trace = solver.run(cfg, problem)
            record["end"] = time.perf_counter()
        except spanopt.SpanOptError as exc:
            record["failure"] = f"{type(exc).__name__}: {exc}"
            return record
        record["x"] = x
        record["iterations"] = len(trace)
        record["failure"] = workloads.check_solve(problem.reference, x, trace)
        return record

    def execute(self) -> None:
        with self.calibration.sampling():
            self.rounds_of_solves()

    def rounds_of_solves(self) -> None:
        problem = self.run_setup()
        w = self.workload
        span_solver, base_solver = w.span_solver(), w.baseline_solver()
        plan = [("span", span_solver)] * w.span_per_round + [("baseline", base_solver)] * w.baseline_per_round
        # First solve of each method, untimed; its x is the same-seed reference.
        first = {s.name: s.run(s.config(0), problem)[0].tobytes() for s in (span_solver, base_solver)}
        next_k = {span_solver.name: 0, base_solver.name: 0}
        # A traced run alternates plain and traced solves of each method, and
        # needs two rounds to have both.
        min_rounds = 2 if self.trace else 1
        self.rounds = 0
        start = time.perf_counter()
        while self.rounds < min_rounds or time.perf_counter() - start < self.run_seconds:
            for role, solver in plan:
                k = next_k[solver.name]
                next_k[solver.name] += 1
                record = self.solve(solver, role, k, problem, traced=self.trace and k % 2 == 1)
                if k == 0 and "x" in record and record.pop("x").tobytes() != first[solver.name]:
                    self.errors.append(f"{solver.name}: two solves with one seed gave different x")
                record.pop("x", None)
                self.solves.append(record)
            self.rounds += 1
        self.measure_seconds = time.perf_counter() - start

    def ok(self, role: str, traced: bool = False) -> list:
        return [s for s in self.solves if s["role"] == role and not s["failure"] and s["traced"] == traced]

    def end_to_end(self) -> dict:
        span_ok, base_ok = self.ok("span"), self.ok("baseline")
        values = {
            "setup_s": statistics.median(self.scaled(s) for s in self.setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "span.time_to_target_s": statistics.median(self.scaled(s) for s in span_ok),
            "span.step_ms": statistics.median(1e3 * self.scaled(s) / s["iterations"] for s in span_ok),
            "baseline.time_to_target_s": statistics.median(self.scaled(s) for s in base_ok),
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    def per_layer(self) -> dict:
        values = {}
        for name, (unit, role, how) in PER_LAYER.items():
            if how[0] == "overhead":
                plain, traced = self.ok(role), self.ok(role, traced=True)
                ratio = statistics.median(map(self.scaled, traced)) / statistics.median(map(self.scaled, plain))
                value = 100.0 * (ratio - 1.0)
            else:
                records = [self.traced_setup] if role == "setup" else self.ok(role, traced=True)
                value = statistics.median(
                    layer_value(s["agg"], how, s.get("iterations", 0)) * (self.scale(s) if unit == "s" else 1)
                    for s in records
                )
            values[name] = {"value": value, "unit": unit}
        return values

    def write_details(self, path: Path, metrics: dict) -> None:
        solves = [{k: v for k, v in s.items() if k != "agg"} for s in self.solves]
        details = {
            "workload": self.workload.name,
            "seed": self.workload.seed,
            "rounds": self.rounds,
            "measure_seconds": self.measure_seconds,
            "time_scale": self.calibration.scale,
            "calibration_s": self.calibration.samples,
            "calibration_start": self.calibration.stamps,
            "calibration_used": list(self.workload.calibration_parts),
            "calibration_parts_s": self.calibration.parts,
            "setups": self.setups,
            "errors": self.errors,
            "solves": solves,
            "metrics": metrics,
        }
        if self.trace:
            details["spans"] = {
                root: [[s.name, s.binding, s.parent, s.count, s.start, s.end] for s in spans]
                for root, spans in self.kept_spans.items()
            }
        path.write_text(json.dumps(details, default=str) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spanopt" / "__init__.py").is_file():
        print(f"perfbench: no spanopt sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    os.environ["BENCH_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import workloads  # imports spanopt, then numpy

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT)
    run = Run(workload, args.seconds, bool(args.trace))
    run.execute()
    metrics = run.per_layer() if args.trace else run.end_to_end()
    run.write_details(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", metrics)

    attempted = len(run.solves)
    failed = sum(1 for s in run.solves if s["failure"])
    for s in run.solves:
        if s["failure"]:
            print(f"failed: {s['method']} k={s['k']}: {s['failure']}")
    for error in run.errors:
        print(f"check failed: {error}")
    print(f"{args.workload} seed={args.seed}: {run.rounds} rounds in {run.measure_seconds:.1f} s, "
          f"time scale {run.calibration.scale:.4f}")
    for method in ("span", "baseline"):
        done = [s for s in run.solves if s["role"] == method]
        print(f"  {method}: {len(done)} solves attempted, {sum(1 for s in done if s['failure'])} failed")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    if args.trace:
        span_times = {
            name: metrics[name]["value"]
            for name, (unit, role, how) in PER_LAYER.items()
            if unit == "s" and role == "span" and how[0] != "self_s"
        }
        largest = max(span_times, key=span_times.get)
        solve_s = statistics.median(map(run.scaled, run.ok("span", traced=True)))
        print(f"  largest function time in a span solve: {largest} "
              f"({100 * span_times[largest] / solve_s:.0f}% of {solve_s:.4g} s); "
              f"objectives.exact_hvp_s is {100 * span_times['objectives.exact_hvp_s'] / solve_s:.0f}%")
    result = {"correct": not run.errors, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
