import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embshape import (
    EmbeddingFormatError,
    EmbeddingSpace,
    detect_format,
    format_glove_text,
    normalized,
    parse_embeddings,
)


class TestDetectFormat:
    def test_w2v_header(self):
        assert detect_format("999994 300") == "w2v_text"

    def test_glove_row(self):
        assert detect_format("the 0.04 -0.12 0.33") == "glove_text"

    def test_empty_line_is_an_error(self):
        with pytest.raises(EmbeddingFormatError):
            detect_format("")

    @pytest.mark.parametrize(
        "line,expected",
        [
            ("5 3", "w2v_text"),  # two positive integers
            ("-5 3", "glove_text"),  # not positive
            ("5 0", "glove_text"),
            ("a 1.0", "glove_text"),
            ("12 40 7", "glove_text"),  # three fields
            ("3.0 4", "glove_text"),  # not an integer literal
        ],
    )
    def test_edge_lines(self, line, expected):
        assert detect_format(line) == expected


class TestParse:
    def test_identity_rows(self):
        space = parse_embeddings(b"a 1.0 0.0\nb 0.0 1.0\n", max_words=10)
        assert space.words == ["a", "b"]
        assert space.dim == 2
        assert np.array_equal(space.vectors, np.array([[1.0, 0.0], [0.0, 1.0]]))

    def test_w2v_header_sets_dim(self):
        data = b"3 2\na 1 0\nb 0 1\nc 1 1\n"
        space = parse_embeddings(data, max_words=10)
        assert space.words == ["a", "b", "c"]
        assert space.dim == 2

    def test_w2v_hint_requires_header(self):
        with pytest.raises(EmbeddingFormatError):
            parse_embeddings(b"a 1 0\n", fmt="w2v_text", max_words=10)

    def test_duplicate_keeps_first_without_consuming_slot(self, caplog):
        data = b"a 1 0\na 2 0\nb 0 1\n"
        with caplog.at_level("WARNING"):
            space = parse_embeddings(data, max_words=2)
        assert space.words == ["a", "b"]
        assert np.array_equal(space.vectors[space.index["a"]], [1.0, 0.0])
        assert "duplicate" in caplog.text

    def test_truncation(self):
        data = b"a 1 0\nb 0 1\nc 1 1\nd 2 2\n"
        space = parse_embeddings(data, max_words=2)
        assert space.words == ["a", "b"]

    def test_dimension_mismatch_names_line(self):
        with pytest.raises(EmbeddingFormatError, match="line 3"):
            parse_embeddings(b"a 1 0\nb 0 1\nc 1\n", max_words=10)

    @pytest.mark.parametrize(
        "data",
        [b"2 2\nnew york 1 2\nb 0 1\n", b"a 0 0\nnew york 1 2\nb 0 1\n"],
        ids=["w2v_header", "glove_first_row"],
    )
    def test_token_with_spaces_keeps_last_dim_fields(self, data):
        space = parse_embeddings(data, max_words=10)
        assert "new york" in space.words
        assert np.array_equal(space.vectors[space.index["new york"]], [1.0, 2.0])
        assert space.words[-1] == "b"

    def test_invalid_utf8_names_its_line(self, tmp_path):
        data = b"".join(b"w%d 1 0\n" % i for i in range(5000)) + b"caf\xe9 1 1\n"
        path = tmp_path / "bad.txt"
        path.write_bytes(data)
        for source in (data, io.BytesIO(data), path):
            with pytest.raises(EmbeddingFormatError, match="line 5001: invalid UTF-8"):
                parse_embeddings(source, max_words=10_000)

    def test_non_numeric_coordinate(self):
        with pytest.raises(EmbeddingFormatError, match="line 2"):
            parse_embeddings(b"a 1 0\nb x 1\n", max_words=10)

    def test_non_finite_coordinate(self):
        with pytest.raises(EmbeddingFormatError, match="non-finite"):
            parse_embeddings(b"a nan 0\n", max_words=10)

    def test_empty_input(self):
        with pytest.raises(EmbeddingFormatError, match="no data rows"):
            parse_embeddings(b"", max_words=10)

    def test_accepts_file_objects(self):
        space = parse_embeddings(io.BytesIO(b"a 1 0\n"), max_words=5)
        assert space.words == ["a"]
        space = parse_embeddings(io.StringIO("a 1 0\n"), max_words=5)
        assert space.words == ["a"]

    def test_tokens_keep_file_order(self):
        data = "\n".join("w%d %d 0" % (i, i) for i in range(20, 0, -1)) + "\n"
        space = parse_embeddings(data.encode(), max_words=100)
        assert space.words == ["w%d" % i for i in range(20, 0, -1)]

    def test_crlf_and_trailing_spaces_tolerated(self):
        space = parse_embeddings(b"a 1 0 \r\nb 0 1\r\n", max_words=5)
        assert space.words == ["a", "b"]
        assert np.array_equal(space.vectors, [[1.0, 0.0], [0.0, 1.0]])

    def test_lone_cr_ends_a_line_in_files_and_binary_streams(self, tmp_path):
        good = b"a 1 0\rb 0 1\r\nc 1 1\r"
        bad = good + b"\xff 2 2\r"
        (tmp_path / "good.txt").write_bytes(good)
        (tmp_path / "bad.txt").write_bytes(bad)
        for source in (io.BytesIO(good), tmp_path / "good.txt"):
            assert parse_embeddings(source, max_words=5).words == ["a", "b", "c"]
        for source in (io.BytesIO(bad), tmp_path / "bad.txt"):
            with pytest.raises(EmbeddingFormatError, match="line 4: invalid UTF-8"):
                parse_embeddings(source, max_words=5)


_token = st.text(
    alphabet=st.characters(
        codec="utf-8", categories=["L", "N", "P", "S"], exclude_characters=" "
    ),
    min_size=1,
    max_size=8,
)
_coord = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def _spaces(draw):
    dim = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.integers(min_value=1, max_value=8))
    words = draw(
        st.lists(_token, min_size=n, max_size=n, unique=True)
    )
    rows = draw(
        st.lists(
            st.lists(_coord, min_size=dim, max_size=dim),
            min_size=n,
            max_size=n,
        )
    )
    return EmbeddingSpace(words=words, vectors=np.array(rows, dtype=np.float64))


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(space=_spaces())
    def test_serialize_parse_is_identity(self, space):
        text = format_glove_text(space)
        back = parse_embeddings(text.encode("utf-8"), max_words=len(space.words))
        assert back.words == space.words
        assert np.array_equal(back.vectors, space.vectors)

    @settings(max_examples=30, deadline=None)
    @given(space=_spaces(), extra=st.integers(min_value=1, max_value=5))
    def test_truncation_monotonicity(self, space, extra):
        text = format_glove_text(space).encode("utf-8")
        k = max(1, len(space.words) - extra)
        small = parse_embeddings(text, max_words=k)
        big = parse_embeddings(text, max_words=k + extra)
        assert small.words == big.words[:k]
        assert np.array_equal(small.vectors, big.vectors[:k])


class TestSpace:
    def test_index_lookup(self):
        space = EmbeddingSpace(words=["x", "y"], vectors=np.eye(2))
        assert space.index == {"x": 0, "y": 1}
        assert len(space) == 2

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            EmbeddingSpace(words=["x", "x"], vectors=np.eye(2))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            EmbeddingSpace(words=["x", "y"], vectors=np.array([[1.0, np.inf], [0, 1]]))

    def test_vectors_are_read_only(self):
        space = EmbeddingSpace(words=["x"], vectors=np.ones((1, 2)))
        with pytest.raises(ValueError):
            space.vectors[0, 0] = 2.0

    def test_row_norms_are_computed_once_and_read_only(self):
        space = EmbeddingSpace(words=["a", "b"], vectors=np.array([[3.0, 4.0], [0.0, 0.0]]))
        assert np.array_equal(space.row_norms, np.linalg.norm(space.vectors, axis=1))
        assert space.row_norms is space.row_norms
        with pytest.raises(ValueError):
            space.row_norms[0] = 1.0

    def test_normalized_rows_are_unit(self):
        space = EmbeddingSpace(words=["a", "b", "z"], vectors=np.array(
            [[3.0, 4.0], [0.0, 2.0], [0.0, 0.0]]
        ))
        unit = normalized(space)
        norms = np.linalg.norm(unit.vectors, axis=1)
        assert norms[0] == pytest.approx(1.0, abs=1e-12)
        assert norms[1] == pytest.approx(1.0, abs=1e-12)
        assert norms[2] == 0.0  # zero rows stay put
        assert np.array_equal(space.vectors[0], [3.0, 4.0])  # original untouched
