"""Parsing, preprocessing, and synthetic-problem generation."""

import gzip
import io
import math
import tracemalloc
import unicodedata
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spanopt import ANALYTIC, BatchHessian, Dataset, loss_and_gradient
from spanopt import datasets
from spanopt.datasets import (
    RawExample,
    SparseExamples,
    load_libsvm,
    normalize_rows,
    synth_classification,
    synth_quadratic,
    to_binary_dataset,
)
from spanopt.errors import DimensionMismatch, DimensionTooLarge, NoMatchingExamples, ParseError


# Parser inputs: label / index:value lines built from well-formed,
# non-finite and malformed numbers (spellings only Python reads among them),
# or arbitrary text.
_NUMBER = st.sampled_from(
    ["0", "1", "-1", "7", "0.5", "-2.5e-3", "1e308", "1e999", "-inf", "nan", "x", "", "1_0", "\u0661"]
)
_PAIR = st.builds("{}:{}".format, st.sampled_from(["1", "2", "7", "0", "-1", "x"]), _NUMBER)
_LINE = st.builds(lambda label, feats: " ".join([label, *feats]), _NUMBER, st.lists(_PAIR, max_size=3))
_LIBSVM_TEXT = st.one_of(st.lists(_LINE, min_size=1, max_size=4).map("\n".join), st.text(max_size=40))


ASCII_WHITESPACE = " \t\n\r\v\f"


def reference_load(stream):
    """The per-line, per-token parser that the block loader replaced, kept as its oracle.

    Like C's ``strtod``, it reads no number from a token with a character
    outside ASCII or a ``_``, which Python's ``float`` and ``int`` accept.
    Like ``bytes.split()``, it separates tokens by ASCII whitespace alone, and
    refuses any other whitespace or control character in an example line.
    """
    labels, indptr, indices, values = [], [0], [], []
    dim = 0
    for line_no, line in enumerate(stream, start=1):
        stripped = line.strip(ASCII_WHITESPACE)
        if not stripped or stripped.startswith("#"):
            continue
        for char in line:
            if char not in ASCII_WHITESPACE and (char.isspace() or unicodedata.category(char) == "Cc"):
                raise ParseError(
                    f"character U+{ord(char):04X} is whitespace or control but not ASCII whitespace", line_no
                )
        tokens = stripped.split()
        try:
            if not tokens[0].isascii() or "_" in tokens[0]:
                raise ValueError(tokens[0])
            label = float(tokens[0])
        except ValueError:
            raise ParseError(f"non-numeric label {tokens[0]!r}", line_no) from None
        if not math.isfinite(label):
            raise ParseError(f"non-finite label {tokens[0]!r}", line_no)
        prev_index = 0
        for token in tokens[1:]:
            index_str, sep, value_str = token.partition(":")
            if not sep:
                raise ParseError(f"malformed pair {token!r}", line_no)
            try:
                if not token.isascii() or "_" in token:
                    raise ValueError(token)
                index = int(index_str)
                value = float(value_str)
            except ValueError:
                raise ParseError(f"non-numeric token {token!r}", line_no) from None
            if not math.isfinite(value):
                raise ParseError(f"non-finite value {token!r}", line_no)
            if index < 1:
                raise ParseError(f"index {index} must be >= 1", line_no)
            if index <= prev_index:
                raise ParseError(f"index {index} not strictly increasing after {prev_index}", line_no)
            prev_index = index
            indices.append(index - 1)
            values.append(value)
        dim = max(dim, prev_index)
        labels.append(label)
        indptr.append(len(indices))
    arrays = (
        np.array(labels, dtype=float),
        np.array(indptr, dtype=np.int64),
        np.array(indices, dtype=np.int64),
        np.array(values, dtype=float),
    )
    return SparseExamples(*arrays), dim


def parse_outcome(load, text):
    """What ``load`` makes of ``text``: the exact bytes of its arrays and dim, or its error."""
    try:
        examples, dim = load(io.StringIO(text))
    except ParseError as exc:
        return "error", exc.line, str(exc)
    arrays = (examples.labels, examples.indptr, examples.indices, examples.values)
    return "parsed", dim, [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def csr(*rows):
    """Examples from (label, ((1-based index, value), ...)) rows, unchecked, as the loader stores them."""
    indptr = np.cumsum([0] + [len(features) for _, features in rows])
    pairs = [pair for _, features in rows for pair in features]
    return SparseExamples(
        labels=np.array([label for label, _ in rows], dtype=float),
        indptr=indptr.astype(np.int64),
        indices=np.array([index - 1 for index, _ in pairs], dtype=np.int64),
        values=np.array([value for _, value in pairs], dtype=float),
    )


def block_text(lines):
    """``lines`` well-formed example lines: labels 1-3, two features each, largest index 8."""
    return [f"{1 + i % 3} {1 + i % 5}:0.5 {7 + i % 2}:{i}.25" for i in range(lines)]


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

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(_LIBSVM_TEXT)
    def test_matches_the_per_token_reference(self, text):
        assert parse_outcome(load_libsvm, text) == parse_outcome(reference_load, text)

    @pytest.mark.parametrize(
        "text",
        [
            "1 1:2:3 4\n",  # as many ':' as pairs, but not one each
            "1 :5\n", "1 5:\n", "1 3:1 :\n", "-1 1::2\n",
            "+1 +3:+.5 1_0:2_5\n", "\u0661 \u0661:\u0662\n",  # signs, underscores, Arabic-Indic digits
            "1\t1:1\r\n2 2:1\x0c3:1\n   # indented comment\n",
            "1 9223372036854775807:1\n", "1 -99999999999999999999:1\n",
            "1 1:1e-320 2:-0.0 3:1e308\n", "nan\n", "1 2:1 1:1\n\n\n2 x:1\n",
            "1\v1:1\f2:3\n# a comment holds \xa0 or \x1c\n",  # ASCII whitespace separates
            "\xa0\n", "\xa0# not a comment\n", "1 1:2\x1c\n", "1 1:\x012\n", "1 1:1\x85\n",
        ],
    )
    def test_matches_the_per_token_reference_on_edge_cases(self, text):
        assert parse_outcome(load_libsvm, text) == parse_outcome(reference_load, text)

    @pytest.mark.parametrize("offset", [0, 1, datasets._BLOCK_LINES - 1])
    @pytest.mark.parametrize(
        "bad_line,message",
        [
            ("1 2:0.5 x", "malformed pair 'x'"),
            ("2 1:0.5 4:y", "non-numeric token '4:y'"),
            ("1 5:1 3:1", "index 3 not strictly increasing after 5"),
            ("2 1:1 2:inf", "non-finite value '2:inf'"),
            ("1 1:1\xa02:1", "character U+00A0 is whitespace or control but not ASCII whitespace"),
        ],
        ids=["malformed-pair", "non-numeric", "out-of-order", "non-finite", "no-break-space"],
    )
    def test_error_line_in_a_later_block(self, offset, bad_line, message):
        # Two comment lines shift line numbers off example counts; the bad
        # example is the first, second or last one of the second block.
        lines = ["# header", "", *block_text(2 * datasets._BLOCK_LINES + 10)]
        at = 2 + datasets._BLOCK_LINES + offset
        lines[at] = bad_line
        text = "\n".join(lines)
        with pytest.raises(ParseError) as exc:
            load_libsvm(io.StringIO(text))
        assert exc.value.line == at + 1
        assert str(exc.value) == f"line {at + 1}: {message}"
        assert parse_outcome(load_libsvm, text) == parse_outcome(reference_load, text)

    def test_comments_and_blanks_at_a_block_edge(self):
        lines = block_text(2 * datasets._BLOCK_LINES + 10)
        edge = datasets._BLOCK_LINES
        lines[edge - 1 : edge - 1] = ["# before the edge", "   "]
        lines[edge + 2 : edge + 2] = ["", "#after"]
        text = "\n".join(lines) + "\n\n# trailing\n"
        outcome = parse_outcome(load_libsvm, text)
        assert outcome[0] == "parsed"
        assert outcome == parse_outcome(reference_load, text)
        examples, dim = load_libsvm(io.StringIO(text))
        assert len(examples) == 2 * datasets._BLOCK_LINES + 10 and dim == 8

    def test_index_beyond_int64_is_a_parse_error(self):
        with pytest.raises(ParseError, match="index 99999999999999999999 exceeds") as exc:
            load_libsvm(io.StringIO("1 1:1\n1 99999999999999999999:1\n"))
        assert exc.value.line == 2

    def test_basic_line(self):
        examples, dim = load_libsvm(io.StringIO("1 1:0.5 3:0.25\n"))
        assert dim == 3
        assert list(examples) == [RawExample(label=1.0, features=((1, 0.5), (3, 0.25)))]
        np.testing.assert_array_equal(examples.indptr, [0, 2])
        np.testing.assert_array_equal(examples.indices, [0, 2])
        np.testing.assert_array_equal(examples.values, [0.5, 0.25])

    def test_empty_file(self):
        examples, dim = load_libsvm(io.StringIO(""))
        assert len(examples) == 0 and dim == 0

    def test_comments_blanks_and_trailing_whitespace(self):
        text = "# header comment\n\n-1 2:1.5   \n   \n1 1:2\n"
        examples, dim = load_libsvm(io.StringIO(text))
        assert len(examples) == 2 and dim == 2
        assert examples.labels[0] == -1.0

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

    @pytest.mark.parametrize("prefix", ["", "1 1:2\n"], ids=["first-line", "after-a-valid-line"])
    @pytest.mark.parametrize(
        "bad_line, message",
        [("1 1:1_000", "non-numeric token '1:1_000'"), ("1_0 1:1", "non-numeric label '1_0'"),
         ("1 1:\u0661", "non-numeric token '1:\u0661'")],
        ids=["underscore-value", "underscore-label", "arabic-indic-digit"],
    )
    def test_numbers_only_python_reads_are_refused(self, prefix, bad_line, message):
        # Python's float and int read 1_000 as 1000, 1_0 as 10 and an
        # Arabic-Indic one as 1; C's strtod, and so LIBSVM, reads none of them.
        line = prefix.count("\n") + 1
        with pytest.raises(ParseError) as exc:
            load_libsvm(io.StringIO(f"{prefix}{bad_line}\n"))
        assert str(exc.value) == f"line {line}: {message}"

    @pytest.mark.parametrize("prefix", ["", "1 1:2\n"], ids=["first-line", "after-a-valid-line"])
    @pytest.mark.parametrize(
        "bad_line, code",
        [("1\xa01:1", "00A0"), ("1\x1c1:1", "001C"), ("1 1:1\u20032:3", "2003")],
        ids=["no-break-space", "file-separator", "em-space"],
    )
    def test_separators_only_str_split_reads_are_refused(self, prefix, bad_line, code):
        # str.split() splits on these, so each line loaded as if they were spaces.
        line = prefix.count("\n") + 1
        with pytest.raises(ParseError) as exc:
            load_libsvm(io.StringIO(f"{prefix}{bad_line}\n"))
        assert exc.value.line == line
        assert str(exc.value) == f"line {line}: character U+{code} is whitespace or control but not ASCII whitespace"

    def test_ascii_whitespace_separates_and_comments_hold_anything(self):
        examples, dim = load_libsvm(io.StringIO("1\t1:1\v2:3\f3:4\r\n# caf\xe9\xa0\x1c\x00\n \t# indented\n-1 2:1\n"))
        assert dim == 3
        assert list(examples) == [
            RawExample(label=1.0, features=((1, 1.0), (2, 3.0), (3, 4.0))),
            RawExample(label=-1.0, features=((2, 1.0),)),
        ]

    def test_c_number_spellings_still_load(self):
        examples, dim = load_libsvm(io.StringIO("+1 01:.5 2:5. 3:1e-3\n-1 1:1\n"))
        assert dim == 3
        assert list(examples) == [
            RawExample(label=1.0, features=((1, 0.5), (2, 5.0), (3, 1e-3))),
            RawExample(label=-1.0, features=((1, 1.0),)),
        ]

    def test_nonpositive_index_rejected(self):
        with pytest.raises(ParseError):
            load_libsvm(io.StringIO("1 0:1\n"))

    def test_gzip_path(self, tmp_path):
        path = tmp_path / "data.txt.gz"
        with gzip.open(path, "wt") as fh:
            fh.write("1 1:1\n-1 2:2\n")
        examples, dim = load_libsvm(path)
        assert len(examples) == 2 and dim == 2

    @pytest.mark.parametrize(
        "damage",
        [lambda raw: raw[:40], lambda raw: raw[:10] + bytes(b ^ 0xFF for b in raw[10:20]) + raw[20:]],
        ids=["truncated", "flipped-body"],
    )
    def test_corrupt_gzip_is_a_parse_error(self, tmp_path, damage):
        # EOFError and zlib.error escaped the parser, and bench ended in a traceback.
        path = tmp_path / "data.txt.gz"
        path.write_bytes(damage(gzip.compress(b"1 1:0.5 3:1\n-1 2:0.25\n" * 50)))
        with pytest.raises(ParseError, match="data.txt.gz"):
            load_libsvm(path)

    @pytest.mark.parametrize("suffix", ["", ".gz"])
    @pytest.mark.parametrize(
        "raw, line",
        [
            (b"1 1:0.5\n\xff 2:1\n", 2),
            (b"1 1:0.5\r2 2:1\r\n# caf\xe9\n1 3:1\n", 3),  # a bare '\r' ends a line, as it does for the parser
            (b"1 1:0.5 2:0.25\n" * 2000 + b"2 1:\xff\n", 2001),  # past the decoder's first read-ahead chunk
        ],
        ids=["label", "comment-after-cr", "late-value"],
    )
    def test_non_utf8_byte_is_a_parse_error_naming_its_line(self, tmp_path, suffix, raw, line):
        # The decoder's UnicodeDecodeError escaped the parser, with no line number.
        path = tmp_path / f"data.txt{suffix}"
        path.write_bytes(gzip.compress(raw) if suffix else raw)
        with pytest.raises(ParseError, match=f"^line {line}: not UTF-8 text$") as exc:
            load_libsvm(path)
        assert exc.value.line == line

    def test_non_utf8_byte_in_a_stream_is_a_parse_error(self):
        with pytest.raises(ParseError, match="not UTF-8 text") as exc:
            load_libsvm(io.TextIOWrapper(io.BytesIO(b"1 1:0.5\n\xff 2:1\n"), encoding="utf-8"))
        assert exc.value.line is None

    def test_non_utf8_line_cut_short_by_a_truncated_gzip(self, tmp_path):
        # The undecodable line runs past the end of the stream, so locating it
        # reads into the truncation, which must still end as a ParseError.
        pairs = " ".join(f"{i}:{v!r}" for i, v in enumerate(np.random.default_rng(0).random(2000), start=1))
        packed = gzip.compress(b"1 1:0.5\n\xff " + pairs.encode() + b"\n")  # about 70 KB of text
        path = tmp_path / "data.txt.gz"
        path.write_bytes(packed[: len(packed) // 2])  # the first read-ahead chunk, not the line's end
        with pytest.raises(ParseError, match="data.txt.gz: corrupt or truncated gzip stream"):
            load_libsvm(path)


class TestToBinaryDataset:
    def examples(self):
        examples, _ = load_libsvm(io.StringIO("4 1:1\n9 2:2\n7 3:3\n4 1:-1 3:1\n"))
        return examples

    def test_mapping_and_dropping(self):
        ds = to_binary_dataset(self.examples(), positive_label=4.0, negative_label=9.0, dim=3)
        assert ds.n_samples == 3  # the 7-labeled example is dropped
        np.testing.assert_array_equal(ds.labels, [1.0, -1.0, 1.0])
        np.testing.assert_array_equal(ds.features[1], [0.0, 2.0, 0.0])

    def test_identity_mapping(self):
        examples, _ = load_libsvm(io.StringIO("1 1:1\n-1 1:2\n"))
        ds = to_binary_dataset(examples, positive_label=1.0, negative_label=-1.0, dim=1)
        np.testing.assert_array_equal(ds.labels, [1.0, -1.0])

    def test_no_matching_examples(self):
        examples, _ = load_libsvm(io.StringIO("3 1:1\n"))
        with pytest.raises(NoMatchingExamples):
            to_binary_dataset(examples, positive_label=4.0, negative_label=9.0, dim=1)

    def test_equal_labels_raise(self):
        # Every kept example was mapped to +1, and a solver ran on one class.
        with pytest.raises(ValueError, match="both 4.0"):
            to_binary_dataset(self.examples(), positive_label=4.0, negative_label=4.0, dim=3)

    def test_count_preserved(self):
        examples = self.examples()
        ds = to_binary_dataset(examples, 4.0, 9.0, dim=3)
        kept = sum(1 for ex in examples if ex.label in (4.0, 9.0))
        assert ds.n_samples == kept

    def test_index_beyond_dimension_is_typed(self):
        # An index-3 feature with dim=2 used to end in numpy's bare IndexError.
        examples = csr((1.0, ((3, 1.0), (1, 2.0))), (-1.0, ((2, 1.0),)))
        with pytest.raises(DimensionMismatch, match="index 3 exceeds the dimension 2"):
            to_binary_dataset(examples, 1.0, -1.0, dim=2)

    def test_matrix_beyond_physical_memory_refused_before_allocation(self):
        # Two rows of dimension 1e12 would need 16 TB; the check must fire
        # before numpy is asked for any of it.
        examples = csr((1.0, ((1, 1.0),)), (-1.0, ((10**12, 1.0),)))
        tracemalloc.start()
        try:
            with pytest.raises(DimensionTooLarge):
                to_binary_dataset(examples, 1.0, -1.0, dim=10**12)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_dense_rows_match_the_examples(self):
        examples, dim = load_libsvm(io.StringIO("\n".join(block_text(50))))
        ds = to_binary_dataset(examples, 1.0, 2.0, dim=dim)
        expected = [ex for ex in examples if ex.label in (1.0, 2.0)]
        assert ds.n_samples == len(expected)
        for row, ex in zip(ds.features, expected):
            dense = np.zeros(dim)
            for index, value in ex.features:
                dense[index - 1] = value
            np.testing.assert_array_equal(row, dense)
        np.testing.assert_array_equal(ds.labels, [1.0 if ex.label == 1.0 else -1.0 for ex in expected])


class TestNormalizeRows:
    def test_three_four_five(self):
        ds = Dataset(features=np.array([[3.0, 4.0]]), labels=np.array([1.0]))
        normalized, zero_rows = normalize_rows(ds)
        np.testing.assert_allclose(normalized.features, [[0.6, 0.8]])
        assert zero_rows == 0

    def test_unit_row_unchanged(self):
        ds = Dataset(features=np.array([[1.0, 0.0]]), labels=np.array([1.0]))
        normalized, _ = normalize_rows(ds)
        np.testing.assert_array_equal(normalized.features, ds.features)

    def test_rows_whose_squared_norm_overflows_or_underflows(self):
        # The first row's squared norm overflowed to inf and the row came back
        # zero; the second's underflowed to 0 and it passed through unscaled.
        ds = Dataset(features=np.array([[3e200, 4e200], [1e-200, 1e-200]]), labels=np.array([1.0, -1.0]))
        normalized, zero_rows = normalize_rows(ds)
        np.testing.assert_allclose(normalized.features, [[0.6, 0.8], [math.sqrt(0.5), math.sqrt(0.5)]])
        assert zero_rows == 0

    def test_extreme_rows_take_one_rule_in_both_storage_formats(self):
        # Dense extreme rows were rescaled by their own code, whose norm summed
        # in another order than the CSR rule's: the two formats differed in the last bit.
        from scipy import sparse

        rng = np.random.default_rng(4)
        matrix = rng.standard_normal((8, 50))
        matrix[1] *= 1e-170
        matrix[2] *= 1e200
        matrix[3] = 0.0
        matrix[5] *= 1e-155
        labels = np.ones(8)
        dense, dense_zero = normalize_rows(Dataset(matrix, labels))
        csr, csr_zero = normalize_rows(Dataset(sparse.csr_array(matrix), labels))
        extreme = [1, 2, 3, 5]
        assert dense.features[extreme].tobytes() == csr.features[extreme].tobytes()
        assert dense_zero == csr_zero == 1
        np.testing.assert_allclose(np.linalg.norm(dense.features[[1, 2, 5]], axis=1), 1.0, rtol=1e-15)

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
        h = BatchHessian.at(cfg, None, None, np.zeros(3), ANALYTIC).dense()
        np.testing.assert_array_equal(h, np.diag([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(x_star, np.zeros(3))

    def test_optimum_has_zero_gradient(self):
        cfg, x_star = synth_quadratic([0.5, 4.0])
        np.testing.assert_array_equal(loss_and_gradient(cfg, None, x_star)[1], np.zeros(2))

    def test_geometric_condition_number(self):
        r = 1.5
        spectrum = r ** np.arange(5)
        cfg, _ = synth_quadratic(spectrum)
        values = np.sort(np.diag(BatchHessian.at(cfg, None, None, np.zeros(5), ANALYTIC).dense()))
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

    @pytest.mark.parametrize("decay", [-400.0, -171.0, math.nan, math.inf, -math.inf])
    def test_classification_refuses_a_decay_whose_scales_overflow(self, monkeypatch, decay):
        # decay = -400 at d = 8 warned of overflow in power and in matmul, then
        # refused the features as NaN/Inf.
        draw, drawn = datasets.gaussian_matrix, []
        monkeypatch.setattr(datasets, "gaussian_matrix", lambda *args: drawn.append(args) or draw(*args))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="decay"):
                synth_classification(60, 8, decay=decay)
        assert drawn == []

    @pytest.mark.parametrize("decay", [-170.0, 1e300])
    def test_classification_keeps_a_decay_whose_scales_stay_finite(self, decay):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds = synth_classification(60, 8, seed=1, decay=decay)
        assert np.isfinite(ds.features).all()
