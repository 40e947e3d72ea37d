"""Experiment runner, trace schema, plot emission, and the CLI surface."""

import contextlib
import gzip
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanopt import bench, cli, datasets, objectives
from spanopt.bench import (
    CONFIG_KEYS,
    CSV_HEADER,
    KNOWN_METHODS,
    ScalingRow,
    build_method_config,
    emit_plot_data,
    load_experiment_config,
    parse_config_text,
    per_iteration_scaling,
    read_trace_csv,
    run_experiment,
    write_scaling_csv,
    write_trace_csv,
)
from spanopt.baselines import BaselineConfig
from spanopt.errors import ConfigError, IncompatibleTraces
from spanopt.objectives import ObjectiveConfig
from spanopt.span import SpanConfig, TraceRecord

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

THREAD_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

QUAD_CFG = """
seed = 11
output_dir = {out}
methods = span, gd
x0 = ones

objective.loss = quadratic
dataset.spectrum = 10,8,6,5,4,3,2.5,2,1.5,1.25,1.1,1

preiterate.epochs = 0

span.T = 10
span.m = 1
span.l = 5
span.q = 1
span.b = 1
span.eta = 0.8
span.hvp = analytic

gd.T = 10
gd.eta = 0.15
"""


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def columns_except_wall_clock(path):
    rows = []
    for record in read_trace_csv(path):
        rows.append((record.iteration, record.loss, record.grad_norm, record.hessian_err, record.lambda_used))
    return rows


# A valid tiny experiment per dataset kind, which random lines then edit: later
# keys override earlier ones, and dropped lines test missing keys.
_BASES = {
    "synth": (
        "methods = span, gd, svrg, newsamp, lissa\nobjective.loss = logistic\n"
        "dataset.kind = synth_classification\ndataset.n = 12\ndataset.d = 6\npreiterate.epochs = 1\n"
    ),
    "quadratic": "methods = span, gd, newsamp, lissa\nobjective.loss = quadratic\ndataset.spectrum = 4,3,2,1.5,1,0.5\n",
    "libsvm": (
        "methods = span, svrg\nobjective.loss = huber_svm\ndataset.path = {data}\n"
        "dataset.positive_label = 1\ndataset.negative_label = 2\n"
    ),
}
_METHOD_LINES = (
    "span.T = 3\nspan.m = 1\nspan.l = 5\nspan.q = 1\nspan.b = 6\nspan.eta = 0.5\n"
    "gd.T = 3\ngd.eta = 0.5\nsvrg.T = 2\nsvrg.eta = 0.2\nsvrg.b = 3\n"
    "newsamp.T = 3\nnewsamp.m = 2\nnewsamp.eta = 1.0\nlissa.T = 2\nlissa.eta = 1.0\nlissa.inner_steps = 5\n"
)
_LIBSVM_TEXT = "1 1:1 2:0.5\n2 1:0.3 3:1\n1 2:1 3:0.25\n2 1:1\n1 1:0.5 2:0.5 3:0.5\n2 3:2\n"
_NUMBERS = ("0", "1", "2", "3", "5", "6", "-1", "0.5", "1e-3", "1e300", "1e999", "-inf", "nan", "abc")
_WORD_VALUES = {
    "methods": ("span", "gd, svrg", "newsamp, lissa", ",", "sgd"),
    "objective.loss": ("logistic", "huber_svm", "quadratic", "hinge"),
    "dataset.kind": ("quadratic", "synth_classification", "libsvm", "csv"),
    "dataset.spectrum": ("3,2,1,0.5,0.2", "2,1", "0,1", "nan,1", "1,,2", "1e999,1"),
    "dataset.path": ("{data}", "{data}.missing"),
    "dataset.normalize": ("true", "false", "maybe"),
    "probe.hessian_error": ("true", "false", "2"),
    "x0": ("zeros", "ones", "gaussian", "twos"),
    "span.hvp": ("analytic", "finite_difference", "forward_difference"),
}
# Every accepted key without a word pool of its own gets numeric values
# (`output_dir` is a path, which the CLI flag overrides), plus one key the
# loader does not accept, so that some examples take the unknown-key exit.
_NUMERIC_KEYS = tuple(sorted(CONFIG_KEYS - set(_WORD_VALUES) - {"output_dir"})) + ("span.fd_scale",)
_CONFIG_LINE = st.one_of(
    st.builds("{} = {}".format, st.sampled_from(_NUMERIC_KEYS), st.sampled_from(_NUMBERS)),
    st.sampled_from(sorted(_WORD_VALUES)).flatmap(
        lambda key: st.sampled_from(_WORD_VALUES[key]).map(lambda value: f"{key} = {value}")
    ),
)
_CONFIG_TEXT = st.builds(
    lambda base, dropped, edits, raw: "\n".join(
        [line for i, line in enumerate((_BASES[base] + _METHOD_LINES).splitlines()) if i not in dropped]
        + edits
        + ([] if raw is None else [raw])
    ),
    st.sampled_from(sorted(_BASES)),
    st.one_of(st.just(set()), st.just(set()), st.sets(st.integers(0, 30), min_size=1, max_size=1)),
    st.lists(_CONFIG_LINE, max_size=5),
    st.one_of(st.none(), st.none(), st.none(), st.text(max_size=12)),
)


class TestConfigParsing:
    def test_flat_key_values(self):
        values = parse_config_text("a = 1\nsection.key = two  # comment\n\n# full comment\n")
        assert values == {"a": "1", "section.key": "two"}

    def test_malformed_line(self):
        with pytest.raises(ConfigError):
            parse_config_text("just a line without equals\n")

    def test_missing_required_key(self, tmp_path):
        path = write_cfg(tmp_path, "seed = 1\nmethods = gd\nobjective.loss = quadratic\n")
        with pytest.raises(ConfigError):
            load_experiment_config(path)

    @pytest.mark.parametrize(
        "line",
        ["span.fd_scale = 2", "span.lr = 0.1"]
        # Keys no runner of that method reads.
        + [f"{key} = 0" for key in ("gd.b", "gd.m", "gd.inner_steps", "gd.s1", "gd.seed", "svrg.m", "svrg.s1",
                                    "newsamp.inner_steps", "newsamp.s1", "lissa.b", "lissa.m")],
    )
    def test_unknown_key_exit_one(self, tmp_path, capsys, line):
        cfg = str(write_cfg(tmp_path, QUAD_CFG.format(out=tmp_path / "out") + line + "\n"))
        key = repr(line.split(" = ")[0])
        for argv in (["run", cfg], ["scale", cfg, "--dims", "20", "-o", str(tmp_path / "s.csv")]):
            assert cli.main(argv) == 1
            err = capsys.readouterr().err
            assert "config error:" in err and key in err
        assert not (tmp_path / "out").exists() and not (tmp_path / "s.csv").exists()

    def test_accepted_keys_are_the_keys_the_loader_reads(self, tmp_path, monkeypatch):
        # Record every key the loader asks for while it loads one config of
        # each dataset kind and builds every method's config; that set is the
        # accepted one, so no read key is refused and no accepted key is ignored.
        read = set()
        real_get = bench._get

        def recording_get(values, key, *args, **kwargs):
            read.add(key)
            return real_get(values, key, *args, **kwargs)

        monkeypatch.setattr(bench, "_get", recording_get)
        data = tmp_path / "data.libsvm"
        data.write_text(_LIBSVM_TEXT)
        for base in _BASES.values():
            text = base.replace("{data}", str(data)) + _METHOD_LINES + f"output_dir = {tmp_path / 'out'}\n"
            load_experiment_config(write_cfg(tmp_path, text))
            values = parse_config_text(text)
            for method in KNOWN_METHODS:
                build_method_config(values, method, seed=0)
        assert read == CONFIG_KEYS

    def test_method_config_error_before_any_method_runs(self, tmp_path, capsys):
        # span is listed first and its section is complete; gd lacks its eta.
        text = QUAD_CFG.format(out=tmp_path / "out").replace("gd.eta = 0.15\n", "")
        assert cli.main(["run", str(write_cfg(tmp_path, text))]) == 1
        assert "config error: missing required config key 'gd.eta'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.cfg")), ids=lambda path: path.stem)
    def test_shipped_config_decodes(self, path):
        cfg = load_experiment_config(path)
        assert cfg.methods and list(cfg.method_configs) == cfg.methods
        for method, method_cfg in cfg.method_configs.items():
            if method == "span":
                assert isinstance(method_cfg, SpanConfig)
            else:
                assert isinstance(method_cfg, BaselineConfig) and method_cfg.method == method

    @pytest.mark.parametrize(
        "method, lines, expected",
        [
            ("span", "span.T = 3\nspan.m = 1\nspan.l = 5", SpanConfig(t_max=3, m=1, l=5, q=1, b=1, seed=4)),
            ("gd", "gd.T = 3\ngd.eta = 0.5", BaselineConfig("gd", eta=0.5, t_max=3)),
            ("svrg", "svrg.T = 3\nsvrg.eta = 0.5", BaselineConfig("svrg", eta=0.5, t_max=3, seed=4)),
            ("newsamp", "newsamp.T = 3\nnewsamp.eta = 0.5\nnewsamp.m = 2",
             BaselineConfig("newsamp", eta=0.5, t_max=3, m=2, seed=4)),
            ("lissa", "lissa.T = 3\nlissa.eta = 0.5", BaselineConfig("lissa", eta=0.5, t_max=3, seed=4)),
        ],
        ids=["span", "gd", "svrg", "newsamp", "lissa"],
    )
    def test_absent_keys_take_the_class_defaults(self, method, lines, expected):
        # A section that sets only its required keys decodes to the config the
        # class builds from them alone (span's q and b and every method's seed
        # are bench's own), so a default edited in a class reaches `bench run`.
        assert build_method_config(parse_config_text(lines), method, seed=4) == expected

    def test_absent_objective_and_dataset_keys_take_the_owner_defaults(self, tmp_path):
        text = _BASES["synth"] + _METHOD_LINES + "dataset.seed = 3\n"
        cfg = load_experiment_config(write_cfg(tmp_path, text))
        assert cfg.objective == ObjectiveConfig("logistic")
        np.testing.assert_array_equal(cfg.data.features, datasets.synth_classification(n=12, d=6, seed=3).features)

    def test_unknown_method(self, tmp_path):
        path = write_cfg(tmp_path, "methods = warp\ndataset.spectrum = 1,2\nobjective.loss = quadratic\n")
        with pytest.raises(ConfigError):
            load_experiment_config(path)

    def test_repeated_method(self, tmp_path):
        # `gd, gd` ran gd twice: the second trace overwrote the first and summary.csv had two gd rows.
        text = QUAD_CFG.format(out=tmp_path / "out").replace("methods = span, gd", "methods = gd, span, gd")
        path = write_cfg(tmp_path, text)
        with pytest.raises(ConfigError, match="'gd' is listed twice"):
            load_experiment_config(path)

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_experiment_config("/nonexistent/path.cfg")


class TestRunExperiment:
    def test_structural_contract(self, tmp_path):
        cfg = load_experiment_config(write_cfg(tmp_path, QUAD_CFG.format(out=tmp_path / "out")))
        result = run_experiment(cfg)
        assert result.all_ok
        for method in ("span", "gd"):
            path = tmp_path / "out" / f"{method}.csv"
            lines = path.read_text().splitlines()
            assert lines[0] == CSV_HEADER
            assert len(lines) == 11  # header + T rows
        assert (tmp_path / "out" / "summary.csv").exists()

    def test_zero_preiteration_starts_at_configured_point(self, tmp_path):
        cfg = load_experiment_config(write_cfg(tmp_path, QUAD_CFG.format(out=tmp_path / "out")))
        result = run_experiment(cfg)
        np.testing.assert_array_equal(result.x0, np.ones(12))

    def test_default_start_is_zeros(self, tmp_path):
        text = (
            f"seed = 3\noutput_dir = {tmp_path / 'out'}\nmethods = gd\n"
            "objective.loss = quadratic\ndataset.spectrum = 2,1\npreiterate.epochs = 0\n"
            "gd.T = 1\ngd.eta = 0.5\n"
        )
        result = run_experiment(load_experiment_config(write_cfg(tmp_path, text)))
        np.testing.assert_array_equal(result.x0, np.zeros(2))

    def test_determinism_modulo_wall_clock(self, tmp_path):
        cfg_a = load_experiment_config(write_cfg(tmp_path, QUAD_CFG.format(out=tmp_path / "a"), "a.cfg"))
        cfg_b = load_experiment_config(write_cfg(tmp_path, QUAD_CFG.format(out=tmp_path / "b"), "b.cfg"))
        run_experiment(cfg_a)
        run_experiment(cfg_b)
        for method in ("span", "gd"):
            assert columns_except_wall_clock(tmp_path / "a" / f"{method}.csv") == columns_except_wall_clock(
                tmp_path / "b" / f"{method}.csv"
            )

    def test_method_failure_recorded_without_aborting(self, tmp_path):
        spectrum = ",".join(["1.0"] * 600)  # beyond the dense-Hessian cap
        text = (
            f"seed = 1\noutput_dir = {tmp_path / 'out'}\nmethods = newsamp, gd\nx0 = ones\n"
            f"objective.loss = quadratic\ndataset.spectrum = {spectrum}\npreiterate.epochs = 0\n"
            "newsamp.T = 2\nnewsamp.m = 4\nnewsamp.eta = 1.0\n"
            "gd.T = 2\ngd.eta = 0.5\n"
        )
        result = run_experiment(load_experiment_config(write_cfg(tmp_path, text)))
        statuses = {m.method: m.status for m in result.methods}
        assert statuses["newsamp"].startswith("error:")
        assert statuses["gd"] == "ok"
        assert not result.all_ok
        assert (tmp_path / "out" / "gd.csv").exists()
        assert not (tmp_path / "out" / "newsamp.csv").exists()

    def test_preiteration_shared_start(self, tmp_path):
        text = (
            f"seed = 5\noutput_dir = {tmp_path / 'out'}\nmethods = gd\n"
            "objective.loss = logistic\nobjective.reg_a = 0.1\n"
            "dataset.kind = synth_classification\ndataset.n = 40\ndataset.d = 6\ndataset.seed = 2\n"
            "preiterate.epochs = 2\npreiterate.eta = 0.5\n"
            "gd.T = 3\ngd.eta = 0.5\n"
        )
        result = run_experiment(load_experiment_config(write_cfg(tmp_path, text)))
        assert np.linalg.norm(result.x0) > 0  # warm-up moved off the origin

    def test_probe_column_populated_when_enabled(self, tmp_path):
        text = (
            f"seed = 2\noutput_dir = {tmp_path / 'out'}\nmethods = span\nx0 = ones\n"
            "objective.loss = quadratic\ndataset.spectrum = 8,6,4,3,2,1.5,1.2,1\n"
            "preiterate.epochs = 0\nprobe.hessian_error = true\n"
            "span.T = 3\nspan.m = 0\nspan.l = 4\nspan.q = 1\nspan.b = 1\nspan.eta = 0.8\nspan.hvp = analytic\n"
        )
        run_experiment(load_experiment_config(write_cfg(tmp_path, text)))
        records = read_trace_csv(tmp_path / "out" / "span.csv")
        assert all(r.hessian_err is not None and r.hessian_err >= 0 for r in records)
        out = emit_plot_data([tmp_path / "out" / "span.csv"], "hessian_err", tmp_path / "h.csv")
        assert out.read_text().splitlines()[0] == "iteration,span"

    def test_libsvm_dataset_through_runner(self, tmp_path):
        data_path = tmp_path / "toy.libsvm"
        lines = []
        rng = np.random.default_rng(0)
        for i in range(12):
            label = 4 if i % 2 == 0 else 9
            v1, v2 = (float(v) for v in rng.standard_normal(2))
            lines.append(f"{label} 1:{v1!r} 3:{v2!r}")
        lines.append("7 2:1.0")  # dropped by the label filter
        data_path.write_text("\n".join(lines) + "\n")
        text = (
            f"seed = 6\noutput_dir = {tmp_path / 'out'}\nmethods = gd\n"
            "objective.loss = logistic\nobjective.reg_a = 0.05\n"
            f"dataset.kind = libsvm\ndataset.path = {data_path}\n"
            "dataset.positive_label = 4\ndataset.negative_label = 9\ndataset.normalize = true\n"
            "preiterate.epochs = 0\n"
            "gd.T = 4\ngd.eta = 0.5\n"
        )
        result = run_experiment(load_experiment_config(write_cfg(tmp_path, text)))
        assert result.all_ok
        records = read_trace_csv(tmp_path / "out" / "gd.csv")
        assert len(records) == 4 and records[-1].loss < records[0].loss

    def test_libsvm_dimension_from_whole_file(self, tmp_path):
        # The highest index (5) sits on a line the label filter drops.
        data_path = tmp_path / "dim.libsvm"
        data_path.write_text("1 1:1 2:0.5\n2 1:0.3\n3 1:1 5:2\n")
        text = (
            "methods = gd\nobjective.loss = logistic\n"
            f"dataset.kind = libsvm\ndataset.path = {data_path}\n"
            "dataset.positive_label = 1\ndataset.negative_label = 2\ngd.T = 1\ngd.eta = 0.5\n"
        )
        assert load_experiment_config(write_cfg(tmp_path, text)).data.dim == 5

    def test_huber_objective_through_runner(self, tmp_path):
        text = (
            f"seed = 4\noutput_dir = {tmp_path / 'out'}\nmethods = gd\n"
            "objective.loss = huber_svm\nobjective.reg_a = 0.1\n"
            "dataset.kind = synth_classification\ndataset.n = 30\ndataset.d = 5\ndataset.seed = 1\n"
            "preiterate.epochs = 1\npreiterate.eta = 0.3\n"
            "gd.T = 5\ngd.eta = 0.5\n"
        )
        result = run_experiment(load_experiment_config(write_cfg(tmp_path, text)))
        assert result.all_ok
        records = read_trace_csv(tmp_path / "out" / "gd.csv")
        assert records[-1].loss <= records[0].loss


class TestPlotEmission:
    def synthesize_traces(self, tmp_path):
        a = tmp_path / "alpha.csv"
        a.write_text(
            CSV_HEADER + "\n"
            "1,1.0,10.0,1.0,,\n"
            "2,2.0,5.0,0.5,,\n"
        )
        b = tmp_path / "beta.csv"
        b.write_text(
            CSV_HEADER + "\n"
            "1,1.5,8.0,0.8,0.25,\n"
        )
        return a, b

    def test_single_trace_loss_vs_iter(self, tmp_path):
        a, _ = self.synthesize_traces(tmp_path)
        out = emit_plot_data([a], "loss_vs_iter", tmp_path / "t.csv")
        lines = out.read_text().splitlines()
        assert lines[0] == "iteration,alpha"
        assert lines[1] == "1,10.0"

    def test_time_mode_carry_forward_by_hand(self, tmp_path):
        # Union of stamps {1.0, 1.5, 2.0}: alpha carries 10 across 1.5,
        # beta is blank before its first stamp and carries 8 afterwards.
        a, b = self.synthesize_traces(tmp_path)
        out = emit_plot_data([a, b], "loss_vs_time", tmp_path / "t.csv")
        lines = out.read_text().splitlines()
        assert lines[0] == "wall_clock_s,alpha,beta"
        assert lines[1] == "1.0,10.0,"
        assert lines[2] == "1.5,10.0,8.0"
        assert lines[3] == "2.0,5.0,8.0"

    def test_suboptimality_subtracts_global_best(self, tmp_path):
        a, b = self.synthesize_traces(tmp_path)
        out = emit_plot_data([a, b], "loss_vs_iter", tmp_path / "t.csv", suboptimality=True)
        lines = out.read_text().splitlines()
        assert lines[1] == "1,5.0,3.0"  # best loss seen anywhere is 5.0

    def test_suboptimality_offset_skips_non_finite_loss(self, tmp_path):
        # A leading nan loss once made the offset, and so every cell, nan.
        trace = tmp_path / "span.csv"
        trace.write_text(f"{CSV_HEADER}\n1,0.1,nan,1.0,,\n2,0.2,0.5,0.5,,\n")
        out = emit_plot_data([trace], "loss_vs_iter", tmp_path / "t.csv", suboptimality=True)
        assert out.read_text().splitlines() == ["iteration,span", "1,nan", "2,0.0"]

    def test_suboptimality_without_finite_loss_exit_one(self, tmp_path, capsys):
        trace = tmp_path / "span.csv"
        trace.write_text(f"{CSV_HEADER}\n1,0.1,nan,1.0,,\n2,0.2,inf,0.5,,\n")
        out = tmp_path / "t.csv"
        assert cli.main(["plot", "loss_vs_iter", str(trace), "-o", str(out), "--suboptimality"]) == 1
        assert "config error: no trace has a finite loss" in capsys.readouterr().err
        assert not out.exists()

    def test_hessian_err_mode_omits_unprobed(self, tmp_path, caplog):
        a, b = self.synthesize_traces(tmp_path)
        out = emit_plot_data([a, b], "hessian_err", tmp_path / "t.csv")
        lines = out.read_text().splitlines()
        assert lines[0] == "iteration,beta"  # alpha never probed
        assert any("alpha" in r.message for r in caplog.records)

    def test_all_unprobed_is_incompatible(self, tmp_path):
        a, _ = self.synthesize_traces(tmp_path)
        with pytest.raises(IncompatibleTraces):
            emit_plot_data([a], "hessian_err", tmp_path / "t.csv")

    def test_no_paths_and_empty_trace_are_incompatible(self, tmp_path):
        with pytest.raises(IncompatibleTraces, match="no trace files given"):
            emit_plot_data([], "loss_vs_iter", tmp_path / "t.csv")
        empty = tmp_path / "span.csv"
        empty.write_text(CSV_HEADER + "\n")
        with pytest.raises(IncompatibleTraces, match="span.csv: empty trace"):
            emit_plot_data([empty], "hessian_err", tmp_path / "t.csv")

    @pytest.mark.parametrize("unprobed_first", [True, False])
    def test_repeated_trace_name_refused_when_one_never_probed(self, tmp_path, unprobed_first):
        # The unprobed trace is omitted from the table, yet its name still clashes.
        a, b = self.synthesize_traces(tmp_path)
        paths = []
        for run, source in (("a", a), ("b", b)) if unprobed_first else (("b", b), ("a", a)):
            (tmp_path / run).mkdir()
            paths.append(tmp_path / run / "span.csv")
            paths[-1].write_text(source.read_text())
        with pytest.raises(IncompatibleTraces, match="two traces are named 'span'"):
            emit_plot_data(paths, "hessian_err", tmp_path / "t.csv")

    def test_bad_header_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("nope\n1,2\n")
        with pytest.raises(IncompatibleTraces):
            emit_plot_data([bad], "loss_vs_iter", tmp_path / "t.csv")

    def test_unknown_mode(self, tmp_path):
        a, _ = self.synthesize_traces(tmp_path)
        with pytest.raises(IncompatibleTraces):
            emit_plot_data([a], "spiral", tmp_path / "t.csv")

    # Unequal lengths, one stamp (1.0) in both traces, a probe column in beta
    # only, and alpha's iteration 1 twice: iteration modes take the first row.
    _PINNED_TRACES = {
        "alpha": "0,0.5,4.0,2.0,,\n1,1.0,3.3,1.5,,0.25\n1,1.25,2.5,1.2,,0.5\n2,2.0,1.75,0.5,,\n",
        "beta": "0,0.25,5.0,3.0,0.1,\n1,1.0,2.0,1.0,0.0625,1.5\n",
    }
    _PINNED_TABLES = {
        ("loss_vs_time", False): (
            "wall_clock_s,alpha,beta\n0.25,,5.0\n0.5,4.0,5.0\n1.0,3.3,2.0\n1.25,2.5,2.0\n2.0,1.75,2.0\n"
        ),
        ("loss_vs_time", True): (
            "wall_clock_s,alpha,beta\n0.25,,3.25\n0.5,2.25,3.25\n1.0,1.5499999999999998,0.25\n1.25,0.75,0.25\n"
            "2.0,0.0,0.25\n"
        ),
        ("loss_vs_iter", False): "iteration,alpha,beta\n0,4.0,5.0\n1,3.3,2.0\n2,1.75,\n",
        ("loss_vs_iter", True): "iteration,alpha,beta\n0,2.25,3.25\n1,1.5499999999999998,0.25\n2,0.0,\n",
        ("hessian_err", False): "iteration,beta\n0,0.1\n1,0.0625\n",
        ("hessian_err", True): "iteration,beta\n0,0.1\n1,0.0625\n",
    }

    @pytest.mark.parametrize("mode, suboptimality", sorted(_PINNED_TABLES))
    def test_pinned_table_text(self, tmp_path, mode, suboptimality):
        paths = [tmp_path / f"{name}.csv" for name in self._PINNED_TRACES]
        for path, rows in zip(paths, self._PINNED_TRACES.values()):
            path.write_text(CSV_HEADER + "\n" + rows)
        out = emit_plot_data(paths, mode, tmp_path / "t.csv", suboptimality=suboptimality)
        assert out.read_text() == self._PINNED_TABLES[mode, suboptimality]

    def test_repeated_trace_name_exit_one(self, tmp_path, capsys):
        # Columns are keyed by file stem, so the second span.csv would replace the first.
        a, _ = self.synthesize_traces(tmp_path)
        for run in ("a", "b"):
            (tmp_path / run).mkdir()
            (tmp_path / run / "span.csv").write_text(a.read_text())
        out = tmp_path / "t.csv"
        argv = ["plot", "loss_vs_iter", str(tmp_path / "a" / "span.csv"), str(tmp_path / "b" / "span.csv")]
        assert cli.main(argv + ["-o", str(out)]) == 1
        assert "config error: two traces are named 'span'" in capsys.readouterr().err
        assert not out.exists()


class TestWrittenBytes:
    def test_trace_csv_bytes(self, tmp_path):
        trace = [TraceRecord(0, 0.1, 2.0, 1.0), TraceRecord(1, 0.30000000000000004, 1.5, 0.5, 0.125, 2.0)]
        write_trace_csv(tmp_path / "t.csv", trace)
        assert (tmp_path / "t.csv").read_bytes() == (
            b"iteration,wall_clock_s,loss,grad_norm,hessian_err,lambda_used\n"
            b"0,0.1,2.0,1.0,,\n1,0.30000000000000004,1.5,0.5,0.125,2.0\n"
        )
        assert read_trace_csv(tmp_path / "t.csv") == trace

    def test_scaling_csv_bytes(self, tmp_path):
        rows = [ScalingRow(100, 0.001, 0.25), ScalingRow(400, 1e-05, None)]
        out = write_scaling_csv(rows, tmp_path / "s.csv")
        assert out.read_bytes() == b"d,span_step_s,newsamp_step_s\n100,0.001,0.25\n400,1e-05,\n"


class TestScalingHarness:
    def test_structure_and_cap(self, monkeypatch):
        monkeypatch.setattr(objectives, "DENSE_HESSIAN_MAX_DIM", 30)
        rows = per_iteration_scaling([20, 40], l=6, m=2, q=1, steps=3, warmup=1)
        assert [r.d for r in rows] == [20, 40]
        assert rows[0].newsamp_step_s is not None
        assert rows[1].newsamp_step_s is None  # capped
        assert all(r.span_step_s > 0 for r in rows)


class TestCli:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "spanopt.cli", *args],
            capture_output=True,
            text=True,
        )

    def test_run_roundtrip_exit_zero(self, tmp_path):
        cfg = write_cfg(tmp_path, QUAD_CFG.format(out=tmp_path / "out"))
        proc = self.run_cli("run", str(cfg))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "span.csv").exists()

    def test_config_error_exit_one(self, tmp_path):
        proc = self.run_cli("run", str(tmp_path / "missing.cfg"))
        assert proc.returncode == 1

    def test_non_integer_method_seed_exit_one(self, tmp_path, capsys):
        text = QUAD_CFG.format(out=tmp_path / "out") + "span.seed = seven\n"
        assert cli.main(["run", str(write_cfg(tmp_path, text))]) == 1
        assert "config error: span.seed" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", ["span.l = 0", "span.q = -1", "span.m = 10\nspan.l = 12"],
                             ids=["zero-width", "negative-power", "width-below-rank-plus-4"])
    def test_bad_sketch_shape_exit_one(self, tmp_path, capsys, edit):
        text = QUAD_CFG.format(out=tmp_path / "out") + edit + "\n"
        assert cli.main(["run", str(write_cfg(tmp_path, text))]) == 1
        assert "config error: span config:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["l", "m", "q"])
    def test_scale_non_integer_sketch_shape_exit_one(self, tmp_path, capsys, key):
        text = QUAD_CFG.format(out=tmp_path / "out") + f"span.{key} = three\n"
        out = tmp_path / "scaling.csv"
        assert cli.main(["scale", str(write_cfg(tmp_path, text)), "--dims", "20", "-o", str(out)]) == 1
        assert f"config error: span.{key}" in capsys.readouterr().err

    def test_scale_zero_rank_exit_one(self, tmp_path, capsys, monkeypatch):
        # span.m = 0 reached the dense baseline's BaselineConfig unchecked, after
        # the first span timing, and the command ended in a ValueError traceback.
        def refuse(*args, **kwargs):
            raise AssertionError("a solve was timed before the rank was checked")

        monkeypatch.setattr(bench.span, "run_span", refuse)
        text = QUAD_CFG.format(out=tmp_path / "out") + "span.m = 0\n"
        out = tmp_path / "scaling.csv"
        argv = ["scale", str(write_cfg(tmp_path, text)), "--dims", "8,16", "--steps", "2", "-o", str(out)]
        assert cli.main(argv) == 1
        assert "config error: span.m: m must be a positive integer, got 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [(["--dims", "0"], "--dims"), (["--dims", "20,-3"], "--dims"),
         (["--dims", "20", "--steps", "0"], "--steps"), (["--dims", "20", "--steps", "-2"], "--steps"),
         (["--dims", "100000000000", "--steps", "1"], "--dims: a vector of dimension 100000000000 needs")],
        ids=["zero-dim", "negative-dim", "zero-steps", "negative-steps", "beyond-memory-dim"],
    )
    def test_scale_impossible_size_exit_one(self, tmp_path, capsys, flags, message):
        # A zero dimension, or one whose vectors outgrow memory, ended in a
        # traceback; no steps wrote a NaN table and exited 0.
        out = tmp_path / "scaling.csv"
        cfg = str(write_cfg(tmp_path, QUAD_CFG.format(out=tmp_path / "out")))
        assert cli.main(["scale", cfg, *flags, "-o", str(out)]) == 1
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["scale", "plot"])
    def test_missing_output_directory_exit_one_before_any_work(self, tmp_path, capsys, monkeypatch, command):
        # The missing directory was found only when the table was written, after every dimension was timed.
        def refuse(*args, **kwargs):
            raise AssertionError("work began before the output directory was checked")

        monkeypatch.setattr(bench, "per_iteration_scaling", refuse)
        monkeypatch.setattr(bench, "read_trace_csv", refuse)
        trace = tmp_path / "span.csv"
        trace.write_text(f"{CSV_HEADER}\n1,0.05,3.0,2.0,,\n")
        out = tmp_path / "missing" / "t.csv"
        argv = {
            "scale": ["scale", str(write_cfg(tmp_path, QUAD_CFG.format(out=tmp_path / "out"))), "--dims", "20"],
            "plot": ["plot", "loss_vs_iter", str(trace)],
        }[command]
        assert cli.main([*argv, "-o", str(out)]) == 1
        assert f"config error: {out}: output directory {out.parent} does not exist" in capsys.readouterr().err
        assert not out.parent.exists()

    def test_scale_dimension_below_sketch_width_exit_two(self, tmp_path, capsys):
        cfg = str(write_cfg(tmp_path, QUAD_CFG.format(out=tmp_path / "out")))  # span.l = 5
        assert cli.main(["scale", cfg, "--dims", "3", "--steps", "1", "-o", str(tmp_path / "s.csv")]) == 2
        assert "method failure:" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["1,0.1,abc,1.0,,", "1.5,0.1,2.0,1.0,,"],
                             ids=["non-numeric", "fractional-iteration"])
    def test_malformed_trace_row_exit_one(self, tmp_path, capsys, row):
        trace = tmp_path / "span.csv"
        trace.write_text(f"{CSV_HEADER}\n0,0.05,3.0,2.0,,\n{row}\n")
        out = tmp_path / "t.csv"
        assert cli.main(["plot", "loss_vs_iter", str(trace), "-o", str(out)]) == 1
        assert f"config error: {trace}: line 3: malformed row {row!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "scale", "plot"])
    def test_non_utf8_file_exit_one(self, tmp_path, capsys, command):
        # A file starting with bytes ff fe 00 ended each command in a UnicodeDecodeError traceback.
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xff\xfe\x00seed = 1\n")
        out = str(tmp_path / "t.csv")
        argv = {
            "run": ["run", str(path)],
            "scale": ["scale", str(path), "--dims", "20", "-o", out],
            "plot": ["plot", "loss_vs_iter", str(path), "-o", out],
        }[command]
        assert cli.main(argv) == 1
        assert f"config error: {path}: not UTF-8 text" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["scale", str(CONFIG_DIR / "quadratic-demo.cfg"), "--dims", "20", "--steps", "abc"],
            ["plot", "spiral", "x.csv", "-o", "y.csv"],
            [],
        ],
        ids=["non-integer-steps", "unknown-plot-mode", "no-command"],
    )
    def test_usage_error_exit_one(self, capsys, argv):
        # argparse exits 2, the code documented for a method failure.
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 1
        assert "error:" in capsys.readouterr().err

    def test_help_exit_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["scale", "--help"])
        assert exc.value.code == 0
        assert "usage: bench scale" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "lines",
        [
            "1 1:1 x\n2 1:0.5\n", "1\n2\n", "1 1:1e999\n2 1:0.5\n", "1 1:nan\n2 1:0.5\n",
            "1 1000000000000:1\n2 1:0.5\n",  # one feature vector of 1e12 entries, refused before allocation
            "1 99999999999999999999:1\n2 1:0.5\n",  # an index the int64 index arrays cannot hold
        ],
        ids=["malformed", "featureless", "overflow", "nan", "beyond-memory", "index-beyond-int64"],
    )
    def test_bad_libsvm_input_exit_one(self, tmp_path, capsys, lines):
        data_path = tmp_path / "bad.libsvm"
        data_path.write_text(lines)
        text = (
            f"output_dir = {tmp_path / 'out'}\nmethods = gd\nobjective.loss = logistic\n"
            f"dataset.kind = libsvm\ndataset.path = {data_path}\n"
            "dataset.positive_label = 1\ndataset.negative_label = 2\ngd.T = 1\n"
        )
        assert cli.main(["run", str(write_cfg(tmp_path, text))]) == 1
        assert "config error: dataset.path" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "damage",
        [lambda raw: raw[:40], lambda raw: raw[:10] + bytes(b ^ 0xFF for b in raw[10:20]) + raw[20:]],
        ids=["truncated", "flipped-body"],
    )
    def test_corrupt_gzip_exit_one(self, tmp_path, capsys, damage):
        # EOFError and zlib.error escaped the parser and ended in a traceback.
        data = tmp_path / "data.libsvm.gz"
        data.write_bytes(damage(gzip.compress(_LIBSVM_TEXT.encode() * 20)))
        text = _BASES["libsvm"].replace("{data}", str(data)) + _METHOD_LINES
        assert cli.main(["run", str(write_cfg(tmp_path, text)), "--output-dir", str(tmp_path / "out")]) == 1
        assert "config error: dataset.path" in capsys.readouterr().err

    def test_non_utf8_libsvm_exit_one_naming_the_line(self, tmp_path):
        # The decoder's error carried a byte position, not the line, through bench.
        data = tmp_path / "data.libsvm"
        data.write_bytes(b"1 1:0.5 3:1\n\xff 2:0.25\n")
        text = _BASES["libsvm"].replace("{data}", str(data)) + _METHOD_LINES
        proc = self.run_cli("run", str(write_cfg(tmp_path, text)), "--output-dir", str(tmp_path / "out"))
        assert proc.returncode == 1
        assert "config error:" in proc.stderr and "line 2" in proc.stderr
        assert "Traceback" not in proc.stderr

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(_CONFIG_TEXT)
    def test_any_config_text_runs_or_is_a_config_error(self, text):
        # Exit 0 or 2 means the experiment ran (2: a method failed); anything
        # else must be exit 1 with a `config error:` line, never a traceback.
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            data = tmp / "data.libsvm"
            data.write_text(_LIBSVM_TEXT)
            config = tmp / "exp.cfg"
            config.write_text(text.replace("{data}", str(data)))
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(["run", str(config), "--output-dir", str(tmp / "out")])
        assert code in (0, 2) or (code == 1 and "config error:" in err.getvalue()), err.getvalue()

    def test_diverging_method_fails_and_overflowing_norm_stays_finite(self, tmp_path, capsys):
        # gd's iterate overflows at its first step: it wrote rows (inf, inf),
        # then (nan, nan), and reported ok.  newsamp's first iterates have
        # finite gradients whose sum of squares overflows: their grad_norm
        # read inf.  Each step's numpy overflow warnings still print.
        text = (
            "seed = 0\nmethods = gd, newsamp\nx0 = ones\nobjective.loss = logistic\nobjective.reg_a = 1e300\n"
            "dataset.kind = synth_classification\ndataset.n = 40\ndataset.d = 8\ndataset.seed = 0\n"
            "preiterate.epochs = 0\ngd.T = 3\ngd.eta = 0.5\nnewsamp.T = 3\nnewsamp.m = 2\nnewsamp.eta = 1.0\n"
        )
        out = tmp_path / "out"
        with pytest.warns(RuntimeWarning, match="overflow"):
            code = cli.main(["run", str(write_cfg(tmp_path, text)), "--output-dir", str(out)])
        assert code == 2
        printed = capsys.readouterr().out
        assert "gd: error: loss inf or gradient norm inf is not finite at step 1" in printed
        assert "newsamp: ok" in printed
        assert not (out / "gd.csv").exists()
        trace = read_trace_csv(out / "newsamp.csv")
        assert len(trace) == 3
        assert all(np.isfinite(r.grad_norm) for r in trace)
        assert trace[0].loss > 1e269

    def test_failed_method_removes_its_stale_trace(self, tmp_path, capsys):
        # A rerun into a directory holding an earlier gd.csv left it beside
        # a summary that says error, and `bench plot` read it as a result.
        text = (
            "seed = 0\nmethods = gd\nx0 = ones\nobjective.loss = logistic\nobjective.reg_a = 1e300\n"
            "dataset.kind = synth_classification\ndataset.n = 40\ndataset.d = 8\ndataset.seed = 0\n"
            "preiterate.epochs = 0\ngd.T = 3\ngd.eta = 0.5\n"
        )
        out = tmp_path / "out"
        out.mkdir()
        write_trace_csv(out / "gd.csv", [TraceRecord(1, 0.1, 1.0, 1.0)])
        with pytest.warns(RuntimeWarning, match="overflow"):
            code = cli.main(["run", str(write_cfg(tmp_path, text)), "--output-dir", str(out)])
        assert code == 2
        assert "gd: error" in capsys.readouterr().out
        assert not (out / "gd.csv").exists()
        assert (out / "summary.csv").read_text().splitlines()[1].startswith("gd,error,")

    @pytest.mark.parametrize(
        "base, edit, code",
        [
            ("quadratic", "methods = gd, svrg", 1),  # quadratics carry no samples for svrg
            ("quadratic", "objective.reg_a = nan", 1),
            ("quadratic", "dataset.spectrum = 1e999,1", 1),
            ("synth", "dataset.n = 0", 1),
            ("synth", "newsamp.m = 6", 2),  # truncation rank not below d
            ("libsvm", "methods = lissa\nobjective.reg_a = 0", 2),  # zero curvature at x0 = 0
            ("synth", "objective.reg_a = 1e300\nx0 = ones\nmethods = newsamp", 2),  # iterate overflows
            ("synth", "preiterate.eta = -1", 1),  # the warm-up's config was built after the output directory
            ("synth", "preiterate.epochs = -1", 1),  # silently meant no warm-up
            ("synth", "dataset.n = 1000000000\ndataset.d = 1000000", 1),  # refused before anything is drawn
            ("libsvm", "dataset.negative_label = 1", 1),  # every example became +1, and the run went on
            # An epoch's (an iteration's) indices are drawn at once, and numpy refused the allocation.
            ("synth", "methods = svrg\nsvrg.inner_steps = 1000000000000000", 2),
            ("synth", "methods = lissa\nlissa.inner_steps = 1000000000000000", 2),
        ],
        ids=["svrg-quadratic", "nan-number", "inf-spectrum", "empty-synth", "newsamp-rank", "lissa-flat",
             "newsamp-overflow", "negative-warmup-eta", "negative-warmup-epochs", "synth-beyond-memory",
             "equal-labels", "svrg-draw-beyond-memory", "lissa-draw-beyond-memory"],
    )
    def test_found_tracebacks_exit_cleanly(self, tmp_path, capsys, base, edit, code):
        # Each of these ended in a ValueError traceback before, or was accepted.
        data = tmp_path / "data.libsvm"
        data.write_text(_LIBSVM_TEXT)
        text = _BASES[base].replace("{data}", str(data)) + _METHOD_LINES + edit + "\n"
        assert cli.main(["run", str(write_cfg(tmp_path, text)), "--output-dir", str(tmp_path / "out")]) == code
        if code == 1:
            assert "config error:" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "base, lines, foreign",
        [
            ("synth", "dataset.spectrum = 1,2,3\ndataset.path = /nonexistent", "'dataset.path', 'dataset.spectrum'"),
            ("synth", "dataset.positive_label = 1", "'dataset.positive_label'"),
            ("quadratic", "dataset.n = 12", "'dataset.n'"),
            ("quadratic", "dataset.seed = 3", "'dataset.seed'"),
            ("libsvm", "dataset.decay = 2.0", "'dataset.decay'"),
        ],
        ids=["synth-spectrum-path", "synth-label", "quadratic-n", "quadratic-seed", "libsvm-decay"],
    )
    def test_other_dataset_kinds_keys_exit_one(self, tmp_path, capsys, base, lines, foreign):
        # Keys of another dataset kind were ignored, and the run exited 0.
        data = tmp_path / "data.libsvm"
        data.write_text(_LIBSVM_TEXT)
        text = _BASES[base].replace("{data}", str(data)) + _METHOD_LINES + lines + "\n"
        assert cli.main(["run", str(write_cfg(tmp_path, text)), "--output-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"config error: {foreign} not read by dataset.kind" in err
        assert not (tmp_path / "out").exists()

    def test_csr_traces_are_deterministic(self, tmp_path):
        # The gzipped libsvm experiment of CI, every method on CSR features, run
        # twice: the traces agree byte for byte outside the wall-clock column.
        data = tmp_path / "data.libsvm.gz"
        data.write_bytes(gzip.compress(
            b"# class 3 is dropped\n1 1:0.5 3:1 5:0.25\n2 2:1.5 4:0.5\n3 1:1 2:1\n1 2:0.25 3:0.5\n"
            b"2 1:1 5:2\n1 4:1\n2 3:0.75 4:0.25\n"
        ))
        config = write_cfg(tmp_path, (
            "methods = span, gd, svrg, newsamp, lissa\nobjective.loss = logistic\nobjective.reg_a = 0.01\n"
            f"dataset.kind = libsvm\ndataset.path = {data}\ndataset.positive_label = 1\ndataset.negative_label = 2\n"
            "span.T = 3\nspan.m = 1\nspan.l = 5\nspan.b = 4\ngd.T = 3\ngd.eta = 1.0\n"
            "svrg.T = 2\nsvrg.eta = 0.5\nsvrg.b = 2\nnewsamp.T = 3\nnewsamp.m = 2\nnewsamp.eta = 1.0\nnewsamp.b = 4\n"
            "lissa.T = 3\nlissa.eta = 1.0\nlissa.inner_steps = 5\nprobe.hessian_error = true\n"
        ))
        assert not isinstance(load_experiment_config(config).data.matrix, np.ndarray)
        for out in ("a", "b"):
            assert cli.main(["run", str(config), "--output-dir", str(tmp_path / out)]) == 0

        def without_clock(path, column):
            lines = [line.split(",") for line in path.read_text().splitlines()]
            drop = lines[0].index(column)
            return [cells[:drop] + cells[drop + 1:] for cells in lines]

        for method in KNOWN_METHODS:
            a, b = tmp_path / "a" / f"{method}.csv", tmp_path / "b" / f"{method}.csv"
            assert without_clock(a, "wall_clock_s") == without_clock(b, "wall_clock_s"), method
        summaries = [without_clock(tmp_path / out / "summary.csv", "total_seconds") for out in ("a", "b")]
        assert summaries[0] == summaries[1]

    def test_method_failure_exit_two(self, tmp_path):
        spectrum = ",".join(["1.0"] * 600)
        text = (
            f"seed = 1\noutput_dir = {tmp_path / 'out'}\nmethods = newsamp\nx0 = ones\n"
            f"objective.loss = quadratic\ndataset.spectrum = {spectrum}\npreiterate.epochs = 0\n"
            "newsamp.T = 1\nnewsamp.m = 4\nnewsamp.eta = 1.0\n"
        )
        proc = self.run_cli("run", str(write_cfg(tmp_path, text)))
        assert proc.returncode == 2

    def test_plot_subcommand(self, tmp_path):
        cfg = write_cfg(tmp_path, QUAD_CFG.format(out=tmp_path / "out"))
        assert self.run_cli("run", str(cfg)).returncode == 0
        proc = self.run_cli(
            "plot", "loss_vs_iter",
            str(tmp_path / "out" / "span.csv"), str(tmp_path / "out" / "gd.csv"),
            "-o", str(tmp_path / "table.csv"),
        )
        assert proc.returncode == 0, proc.stderr
        header = (tmp_path / "table.csv").read_text().splitlines()[0]
        assert header == "iteration,span,gd"

    def test_scale_subcommand(self, tmp_path):
        cfg = write_cfg(tmp_path, QUAD_CFG.format(out=tmp_path / "out"))
        proc = self.run_cli("scale", str(cfg), "--dims", "20,40", "--steps", "3", "-o", str(tmp_path / "s.csv"))
        assert proc.returncode == 0, proc.stderr
        lines = (tmp_path / "s.csv").read_text().splitlines()
        assert lines[0] == "d,span_step_s,newsamp_step_s"
        assert len(lines) == 3

    @staticmethod
    def capped_env():
        """The caller's environment with BENCH_THREADS=1 and no inherited thread variables."""
        env = {k: v for k, v in os.environ.items() if k not in THREAD_ENV_VARS}
        env["BENCH_THREADS"] = "1"
        return env

    def test_bench_threads_env_accepted(self, tmp_path):
        cfg = write_cfg(tmp_path, QUAD_CFG.format(out=tmp_path / "out"))
        proc = subprocess.run(
            [sys.executable, "-m", "spanopt.cli", "run", str(cfg)],
            capture_output=True, text=True, env=self.capped_env(),
        )
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.skipif(not Path("/proc/self/task").exists(), reason="needs /proc/self/task to count threads")
    def test_bench_threads_caps_blas_pool(self, tmp_path):
        """BENCH_THREADS=1 leaves the process with a single OS thread after a run.

        The BLAS pool is sized when numpy loads, so this only holds if the cap
        is applied before that.  On a single-core host the uncapped pool also
        has one thread, so there the check cannot tell capped from uncapped.
        """
        cfg = write_cfg(tmp_path, QUAD_CFG.format(out=tmp_path / "out"))
        script = (
            "import os, sys\n"
            "from spanopt.cli import main\n"
            f"code = main(['run', {str(cfg)!r}])\n"
            "print(len(os.listdir('/proc/self/task')))\n"
            "sys.exit(code)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=self.capped_env()
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "1"
