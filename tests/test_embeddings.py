import numpy as np
import pytest

from embdebias import (
    EmbeddingSet,
    load_embeddings,
    normalize,
    save_embeddings,
    sniff_format,
)
from embdebias.errors import (
    DimensionMismatchError,
    EmptyFileError,
    MalformedLineError,
    WordSkippedWarning,
    ZeroVectorError,
)

from conftest import make_set


def test_load_word2vec_minimal(tmp_path):
    path = tmp_path / "e.txt"
    path.write_text("2 3\na 1 0 0\nb 0 1 0\n")
    emb = load_embeddings(path, "word2vec-text")
    assert emb.vocab == ("a", "b")
    assert emb.dim == 3
    assert emb.normalized  # derived: both rows are already unit-norm
    np.testing.assert_array_equal(emb.vector("a"), [1, 0, 0])
    path.write_text("2 3\na 2 0 0\nb 0 1 0\n")
    assert not load_embeddings(path, "word2vec-text").normalized


def test_load_glove_infers_dim(tmp_path):
    path = tmp_path / "e.txt"
    path.write_text("a 1 0\nb 0 1\n")
    emb = load_embeddings(path, "glove-text")
    assert emb.dim == 2
    assert emb.vocab == ("a", "b")


def test_load_crlf_and_blank_lines(tmp_path):
    path = tmp_path / "e.txt"
    path.write_bytes(b"2 2\r\na 1 0\r\n\r\nb 0 1\r\n")
    emb = load_embeddings(path, "word2vec-text")
    assert emb.vocab == ("a", "b")


@pytest.mark.parametrize("sep", ["\u00a0", "\u0085", "\u2028", "\u001c"])
@pytest.mark.parametrize("fmt", ["word2vec-text", "glove-text"])
def test_tokens_keep_unicode_whitespace(tmp_path, sep, fmt):
    # str.split()/splitlines() break at each of these; fields are split on
    # ASCII space and tab only
    words = [f"a{sep}b", f"{sep}c", f"d{sep}", "e"]
    header = "4 2\n" if fmt == "word2vec-text" else ""
    path = tmp_path / "e.txt"
    path.write_text(header + "".join(f"{w} {i} 1\n" for i, w in enumerate(words)),
                    encoding="utf-8")
    emb = load_embeddings(path, fmt)
    assert emb.vocab == tuple(words)
    np.testing.assert_array_equal(emb.matrix[:, 0], [0, 1, 2, 3])


def test_tabs_and_repeated_spaces_separate_fields(tmp_path):
    path = tmp_path / "e.txt"
    path.write_text("a\t1  0 \n b 0\t1\n", encoding="utf-8")
    emb = load_embeddings(path, "glove-text")
    assert emb.vocab == ("a", "b")
    np.testing.assert_array_equal(emb.matrix, [[1, 0], [0, 1]])


def test_extra_field_after_unicode_token_reports_its_line(tmp_path):
    path = tmp_path / "e.txt"
    path.write_text("3 2\na\u2028b 1 0\nc\u00a0d 0 1\ne 1 1 1\n", encoding="utf-8")
    with pytest.raises(DimensionMismatchError, match="line 4: 3 values, expected 2"):
        load_embeddings(path, "word2vec-text")


@pytest.mark.parametrize("sep", ["\u00a0", "\u0085", "\u2028", "\u001c"])
@pytest.mark.parametrize("header", ["2 2\n", ""])
def test_unicode_whitespace_inside_a_value_is_not_a_separator(tmp_path, sep, header):
    # str.split() would read "1<sep>2" as two values and load a as [1, 2]
    path = tmp_path / "e.txt"
    path.write_text(header + f"b 0 1\na 1{sep}2\n", encoding="utf-8")
    lineno = 3 if header else 2
    with pytest.raises((MalformedLineError, DimensionMismatchError),
                       match=f"line {lineno}:"):
        load_embeddings(path, "word2vec-text" if header else "glove-text")


def test_dimension_mismatch(tmp_path):
    path = tmp_path / "e.txt"
    path.write_text("2 3\na 1 0\nb 0 1 0\n")
    with pytest.raises(DimensionMismatchError):
        load_embeddings(path, "word2vec-text")


def test_glove_rows_must_match_first(tmp_path):
    path = tmp_path / "e.txt"
    path.write_text("a 1 0\nb 0 1 3\n")
    with pytest.raises(DimensionMismatchError):
        load_embeddings(path, "glove-text")


@pytest.mark.parametrize("content", [
    "2 3 4\na 1 0 0\n",      # bad header shape
    "x y\na 1 0 0\n",        # non-integer header
    "1 2\na\n",              # no values on a row
    "1 2\na 1 zz\n",         # unparseable value
    "1 2\na 1 nan\n",        # non-finite value
])
def test_malformed_lines(tmp_path, content):
    path = tmp_path / "e.txt"
    path.write_text(content)
    with pytest.raises(MalformedLineError):
        load_embeddings(path, "word2vec-text")


def test_empty_file(tmp_path):
    path = tmp_path / "e.txt"
    path.write_text("")
    with pytest.raises(EmptyFileError):
        load_embeddings(path, "glove-text")
    path.write_text("2 3\n")
    with pytest.raises(EmptyFileError):
        load_embeddings(path, "word2vec-text")


def test_duplicates_first_wins_with_warning(tmp_path):
    path = tmp_path / "e.txt"
    path.write_text("a 1 0\na 9 9\nb 0 1\n")
    with pytest.warns(WordSkippedWarning, match="1 duplicate"):
        emb = load_embeddings(path, "glove-text")
    assert emb.vocab == ("a", "b")
    np.testing.assert_array_equal(emb.vector("a"), [1, 0])


def test_declared_count_mismatch_warns(tmp_path):
    path = tmp_path / "e.txt"
    path.write_text("3 2\na 1 0\nb 0 1\n")
    with pytest.warns(WordSkippedWarning, match="declares 3"):
        load_embeddings(path, "word2vec-text")


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(ValueError):
        load_embeddings(tmp_path / "x", "word2vec-binary")


def test_sniff_format(tmp_path):
    w2v = tmp_path / "a.txt"
    w2v.write_text("2 3\na 1 0 0\nb 0 1 0\n")
    glove = tmp_path / "b.txt"
    glove.write_text("a 1 0 0\nb 0 1 0\n")
    assert sniff_format(w2v) == "word2vec-text"
    assert sniff_format(glove) == "glove-text"
    # a first line of two integers is a header only if the next line fits it
    numeric_glove = tmp_path / "c.txt"
    numeric_glove.write_text("3 5\n4 6\n")
    assert sniff_format(numeric_glove) == "glove-text"
    assert load_embeddings(numeric_glove, "glove-text").vocab == ("3", "4")
    # a token holding U+00A0 is one field, as the loader reads it
    nbsp = tmp_path / "d.txt"
    nbsp.write_text("2 3\na\u00a0b 1 0 0\nc 0 1 0\n", encoding="utf-8")
    assert sniff_format(nbsp) == "word2vec-text"
    assert load_embeddings(nbsp, "word2vec-text").vocab == ("a\u00a0b", "c")


@pytest.mark.parametrize("blank", ["\n", "  \t\n", "\r\n\n"])
def test_sniff_skips_leading_blank_lines(tmp_path, blank):
    path = tmp_path / "e.txt"
    path.write_bytes((blank + "2 3\na 1 0 0\nb 0 1 0\n").encode())
    fmt = sniff_format(path)
    assert fmt == "word2vec-text"
    assert load_embeddings(path, fmt).vocab == ("a", "b")


def test_normalize_three_four_five():
    emb = make_set(["w"], [[3.0, 4.0]])
    out = normalize(emb)
    np.testing.assert_allclose(out.vector("w"), [0.6, 0.8])
    assert out.normalized
    assert not emb.normalized  # input untouched


def test_normalize_unit_row_unchanged():
    emb = make_set(["w"], [[0.0, 1.0]])
    np.testing.assert_array_equal(normalize(emb).vector("w"), [0.0, 1.0])


def test_normalize_zero_vector():
    emb = make_set(["ok", "bad"], [[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ZeroVectorError, match="bad"):
        normalize(emb)


@pytest.mark.parametrize("fmt", ["word2vec-text", "glove-text"])
def test_round_trip_bit_exact(tmp_path, fmt):
    rng = np.random.default_rng(3)
    words = [f"w{i}" for i in range(20)]
    emb = make_set(words, rng.standard_normal((20, 7)))
    path = tmp_path / "e.txt"
    save_embeddings(emb, path, fmt)
    back = load_embeddings(path, fmt)
    assert back.vocab == emb.vocab
    np.testing.assert_array_equal(back.matrix, emb.matrix)


def test_formats_agree_modulo_header(tmp_path):
    rng = np.random.default_rng(4)
    emb = make_set(["a", "b"], rng.standard_normal((2, 3)))
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    save_embeddings(emb, p1, "word2vec-text")
    save_embeddings(emb, p2, "glove-text")
    assert p1.read_text().splitlines()[1:] == p2.read_text().splitlines()


def test_save_unwritable_path(tmp_path):
    emb = make_set(["a"], [[1.0, 0.0]])
    with pytest.raises(OSError):
        save_embeddings(emb, tmp_path / "missing_dir" / "e.txt", "glove-text")


@pytest.mark.parametrize("word", ["new york", "tab\there", "", "line\nbreak",
                                  "carriage\rreturn", "trailing "])
@pytest.mark.parametrize("fmt", ["word2vec-text", "glove-text"])
def test_save_rejects_words_that_cannot_reload(tmp_path, word, fmt):
    emb = make_set(["ok", word], [[1.0, 0.0], [0.0, 1.0]])
    path = tmp_path / "e.txt"
    with pytest.raises(ValueError, match="cannot be saved"):
        save_embeddings(emb, path, fmt)
    assert not path.exists()


def test_mean_norm_at_most_one_after_normalize():
    rng = np.random.default_rng(11)
    emb = normalize(make_set([f"w{i}" for i in range(40)],
                             rng.standard_normal((40, 6))))
    for _ in range(50):
        size = rng.integers(1, 41)
        words = rng.choice(emb.vocab, size=size, replace=False)
        mu = emb.take(words).mean(axis=0)
        assert np.linalg.norm(mu) <= 1.0 + 1e-12


class TestEmbeddingSetInvariants:
    def test_duplicate_words_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_set(["a", "a"], [[1.0], [2.0]])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            make_set(["a"], [[np.inf]])

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            make_set(["a", "b"], [[1.0, 0.0]])

    def test_normalized_flag_verified(self):
        assert make_set(["a", "b"], [[0.6, 0.8], [0.0, -1.0]]).normalized
        assert not make_set(["a", "b"], [[1.0, 0.0], [2.0, 0.0]]).normalized
        assert make_set(["a"], [[1.0 + 5e-7, 0.0]]).normalized  # within UNIT_TOL
        assert not make_set(["a"], [[1.0 + 2e-6, 0.0]]).normalized
        with pytest.raises(TypeError):
            EmbeddingSet(("a",), [[2.0, 0.0]], normalized=True)

    def test_matrix_read_only(self):
        emb = make_set(["a"], [[1.0, 0.0]])
        with pytest.raises(ValueError):
            emb.matrix[0, 0] = 5.0

    def test_subset_keeps_vocab_order_and_flag(self):
        emb = normalize(make_set(["a", "b", "c", "d"], np.eye(4) + 1.0))
        sub = emb.subset(["d", "b", "missing", "b"])
        assert sub.vocab == ("b", "d")
        assert sub.normalized
        np.testing.assert_array_equal(sub.matrix, emb.take(["b", "d"]))
        assert len(emb.subset([])) == 0

    def test_lookup_total_over_vocab(self):
        emb = make_set(["a"], [[1.0, 0.0]])
        assert "a" in emb and "b" not in emb
        with pytest.raises(KeyError):
            emb.vector("b")
