"""Parsing, preprocessing, and synthetic-problem generation."""

import gzip
import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanopt import Dataset, batch_gradient, dense_hessian
from spanopt.datasets import (
    RawExample,
    load_libsvm,
    normalize_rows,
    synth_classification,
    synth_quadratic,
    to_binary_dataset,
)
from spanopt.errors import DimensionTooLarge, NoMatchingExamples, ParseError


# Parser inputs: label / index:value lines built from well-formed,
# non-finite and malformed numbers, or arbitrary text.
_NUMBER = st.sampled_from(["0", "1", "-1", "7", "0.5", "-2.5e-3", "1e308", "1e999", "-inf", "nan", "x", ""])
_PAIR = st.builds("{}:{}".format, st.sampled_from(["1", "2", "7", "0", "-1", "x"]), _NUMBER)
_LINE = st.builds(lambda label, feats: " ".join([label, *feats]), _NUMBER, st.lists(_PAIR, max_size=3))
_LIBSVM_TEXT = st.one_of(st.lists(_LINE, min_size=1, max_size=4).map("\n".join), st.text(max_size=40))


class TestLoadLibsvm:
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(_LIBSVM_TEXT)
    def test_any_text_parses_to_finite_values_or_raises_parse_error(self, text):
        try:
            examples, dim = load_libsvm(io.StringIO(text))
        except ParseError:
            return
        for ex in examples:
            assert math.isfinite(ex.label)
            assert all(1 <= index <= dim and math.isfinite(value) for index, value in ex.features)

    def test_basic_line(self):
        examples, dim = load_libsvm(io.StringIO("1 1:0.5 3:0.25\n"))
        assert dim == 3
        assert examples == [RawExample(label=1.0, features=((1, 0.5), (3, 0.25)))]

    def test_empty_file(self):
        examples, dim = load_libsvm(io.StringIO(""))
        assert examples == [] and dim == 0

    def test_comments_blanks_and_trailing_whitespace(self):
        text = "# header comment\n\n-1 2:1.5   \n   \n1 1:2\n"
        examples, dim = load_libsvm(io.StringIO(text))
        assert len(examples) == 2 and dim == 2
        assert examples[0].label == -1.0

    def test_index_order_enforced(self):
        with pytest.raises(ParseError) as exc:
            load_libsvm(io.StringIO("1 3:1 2:1\n"))
        assert exc.value.line == 1

    def test_duplicate_index_rejected(self):
        with pytest.raises(ParseError):
            load_libsvm(io.StringIO("1 2:1 2:5\n"))

    def test_malformed_pair(self):
        with pytest.raises(ParseError) as exc:
            load_libsvm(io.StringIO("1 1:0.5\n-1 oops\n"))
        assert exc.value.line == 2

    def test_non_numeric_tokens(self):
        with pytest.raises(ParseError):
            load_libsvm(io.StringIO("abc 1:1\n"))
        with pytest.raises(ParseError):
            load_libsvm(io.StringIO("1 1:xyz\n"))

    def test_nonpositive_index_rejected(self):
        with pytest.raises(ParseError):
            load_libsvm(io.StringIO("1 0:1\n"))

    def test_gzip_path(self, tmp_path):
        path = tmp_path / "data.txt.gz"
        with gzip.open(path, "wt") as fh:
            fh.write("1 1:1\n-1 2:2\n")
        examples, dim = load_libsvm(path)
        assert len(examples) == 2 and dim == 2


class TestToBinaryDataset:
    def examples(self):
        return [
            RawExample(label=4.0, features=((1, 1.0),)),
            RawExample(label=9.0, features=((2, 2.0),)),
            RawExample(label=7.0, features=((3, 3.0),)),
            RawExample(label=4.0, features=((1, -1.0), (3, 1.0))),
        ]

    def test_mapping_and_dropping(self):
        ds = to_binary_dataset(self.examples(), positive_label=4.0, negative_label=9.0, dim=3)
        assert ds.n_samples == 3  # the 7-labeled example is dropped
        np.testing.assert_array_equal(ds.labels, [1.0, -1.0, 1.0])
        np.testing.assert_array_equal(ds.features[1], [0.0, 2.0, 0.0])

    def test_identity_mapping(self):
        examples = [
            RawExample(label=1.0, features=((1, 1.0),)),
            RawExample(label=-1.0, features=((1, 2.0),)),
        ]
        ds = to_binary_dataset(examples, positive_label=1.0, negative_label=-1.0, dim=1)
        np.testing.assert_array_equal(ds.labels, [1.0, -1.0])

    def test_no_matching_examples(self):
        examples = [RawExample(label=3.0, features=((1, 1.0),))]
        with pytest.raises(NoMatchingExamples):
            to_binary_dataset(examples, positive_label=4.0, negative_label=9.0, dim=1)

    def test_count_preserved(self):
        examples = self.examples()
        ds = to_binary_dataset(examples, 4.0, 9.0, dim=3)
        kept = sum(1 for ex in examples if ex.label in (4.0, 9.0))
        assert ds.n_samples == kept

    def test_matrix_beyond_physical_memory_refused_before_allocation(self):
        # Two rows of dimension 1e12 would need 16 TB; the check must fire
        # before numpy is asked for any of it.
        examples = [
            RawExample(label=1.0, features=((1, 1.0),)),
            RawExample(label=-1.0, features=((10**12, 1.0),)),
        ]
        tracemalloc.start()
        try:
            with pytest.raises(DimensionTooLarge):
                to_binary_dataset(examples, 1.0, -1.0, dim=10**12)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestNormalizeRows:
    def test_three_four_five(self):
        ds = Dataset(features=np.array([[3.0, 4.0]]), labels=np.array([1.0]))
        normalized, zero_rows = normalize_rows(ds)
        np.testing.assert_allclose(normalized.features, [[0.6, 0.8]])
        assert zero_rows == 0
        assert normalized.normalized

    def test_unit_row_unchanged(self):
        ds = Dataset(features=np.array([[1.0, 0.0]]), labels=np.array([1.0]))
        normalized, _ = normalize_rows(ds)
        np.testing.assert_array_equal(normalized.features, ds.features)

    def test_zero_row_flagged_and_untouched(self):
        ds = Dataset(features=np.array([[0.0, 0.0], [3.0, 4.0]]), labels=np.array([1.0, -1.0]))
        normalized, zero_rows = normalize_rows(ds)
        assert zero_rows == 1
        np.testing.assert_array_equal(normalized.features[0], [0.0, 0.0])

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        ds = Dataset(features=rng.standard_normal((10, 4)), labels=np.ones(10))
        once, _ = normalize_rows(ds)
        twice, _ = normalize_rows(once)
        assert np.abs(once.features - twice.features).max() <= 1e-12


class TestSyntheticProblems:
    def test_quadratic_spectrum_is_hessian(self):
        cfg, x_star = synth_quadratic([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(dense_hessian(cfg, None, None, np.zeros(3)), np.diag([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(x_star, np.zeros(3))

    def test_optimum_has_zero_gradient(self):
        cfg, x_star = synth_quadratic([0.5, 4.0])
        np.testing.assert_array_equal(batch_gradient(cfg, None, None, x_star), np.zeros(2))

    def test_geometric_condition_number(self):
        r = 1.5
        spectrum = r ** np.arange(5)
        cfg, _ = synth_quadratic(spectrum)
        values = np.sort(np.diag(dense_hessian(cfg, None, None, np.zeros(5))))
        assert values[-1] / values[0] == pytest.approx(r**4)

    def test_classification_shapes_and_determinism(self):
        ds1 = synth_classification(50, 8, seed=3)
        ds2 = synth_classification(50, 8, seed=3)
        np.testing.assert_array_equal(ds1.features, ds2.features)
        np.testing.assert_array_equal(ds1.labels, ds2.labels)
        assert ds1.n_samples == 50 and ds1.dim == 8
        assert set(np.unique(ds1.labels)) <= {-1.0, 1.0}
        norms = np.linalg.norm(ds1.features, axis=1)
        np.testing.assert_allclose(norms[norms > 0], 1.0, atol=1e-10)

    def test_classification_distinct_seeds_differ(self):
        ds1 = synth_classification(20, 5, seed=1)
        ds2 = synth_classification(20, 5, seed=2)
        assert not np.array_equal(ds1.features, ds2.features)
