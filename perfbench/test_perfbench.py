"""Tests of the benchmark's own code: the checks, the generated file, the output.

    python -m pytest perfbench -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402
import workloads  # noqa: E402
from spanopt import datasets  # noqa: E402
from spanopt.objectives import Dataset  # noqa: E402


def small_libsvm(tmp_path):
    w = workloads.LibsvmFd(seed=5, workdir=tmp_path)
    w.rows = 400
    w.prepare()
    return w


@pytest.fixture(scope="module")
def desk():
    w = workloads.DeskLogistic(seed=1, workdir=None)
    problem = w.setup()
    w.add_reference(problem)
    return w, problem


def test_checker_accepts_a_full_solve(desk):
    w, problem = desk
    solver = w.span_solver()
    x, trace = solver.run(solver.config(0), problem)
    assert workloads.check_solve(problem.reference, x, trace) is None


def test_checker_rejects_a_solve_cut_short(desk):
    w, problem = desk
    solver = w.span_solver()
    x, trace = solver.run(dataclasses.replace(solver.config(0), t_max=1), problem)
    assert workloads.check_solve(problem.reference, x, trace) is not None


def test_checker_rejects_a_target_the_reference_does_not_meet(desk):
    # The program's own trace claims the target; the benchmark's gradient must agree.
    w, problem = desk
    solver = w.span_solver()
    x, trace = solver.run(solver.config(0), problem)
    assert workloads.check_solve(problem.reference, x + 1e-3, trace) is not None


def test_generated_file_reads_back_to_the_written_matrix(tmp_path):
    w = small_libsvm(tmp_path)
    examples, dim = datasets.load_libsvm(w.path)
    assert dim <= w.dim and len(examples) == w.rows
    read = np.zeros((len(examples), w.dim))
    for i, example in enumerate(examples):
        for index, value in example.features:
            read[i, index - 1] = value
    assert np.array_equal(read, w.matrix)
    assert np.array_equal([e.label for e in examples], w.labels)
    assert set(np.unique(w.labels)) == {1.0, 2.0, 3.0}


def test_dataset_check_accepts_the_load_and_rejects_one_changed_value(tmp_path):
    w = small_libsvm(tmp_path)
    problem = w.setup()
    assert w.check_setup(problem) is None
    features = problem.data.features.copy()
    row, col = np.argwhere(features != 0)[0]
    features[row, col] *= 1.0 + 1e-6
    changed = dataclasses.replace(problem, data=Dataset(features=features, labels=problem.data.labels))
    assert w.check_setup(changed) is not None


def run_benchmark(cwd, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide-quadratic", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_those_in_benchmark_json(trace, key):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = run_benchmark(ROOT, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert {m["name"]: m["unit"] for m in declared[key]} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    out = run_benchmark(tmp_path, 0)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
