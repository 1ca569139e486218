import io
import logging
from pathlib import Path
from typing import BinaryIO, TextIO, Union
from unittest import mock

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
from embshape import embeddings
from embshape.embeddings import BLOCK_ROWS, DEFAULT_MAX_WORDS, W2V_TEXT, _text_lines

log = logging.getLogger("embshape.embeddings")


# The per-line parser as it was before coordinates were converted in blocks,
# kept unchanged as the reference for the block parser.
def reference_parse_embeddings(
    source: Union[str, Path, bytes, TextIO, BinaryIO],
    fmt: str | None = None,
    max_words: int = DEFAULT_MAX_WORDS,
) -> EmbeddingSpace:
    """Parse a GloVe/word2vec text stream into an EmbeddingSpace.

    Keeps the first ``max_words`` unique tokens in file order. A repeated
    token keeps its first vector and does not consume a slot. The dimension
    D comes from the w2v header when present, otherwise from the first data
    row. Every later row needs at least D fields after its token; any
    fields before its last D belong to the token.
    """
    if max_words < 1:
        raise ValueError("max_words must be positive")

    words: list[str] = []
    seen: dict[str, int] = {}
    rows: list[np.ndarray] = []
    dim: int | None = None
    lineno = 0
    first_data_line = True

    for raw in _text_lines(source):
        lineno += 1
        line = raw.rstrip()
        if not line:
            continue
        if first_data_line:
            first_data_line = False
            line_fmt = detect_format(line)
            if fmt is None:
                fmt = line_fmt
            if fmt == W2V_TEXT:
                if line_fmt != W2V_TEXT:
                    raise EmbeddingFormatError(
                        "line 1: expected a 'N D' header, got %r" % line[:80]
                    )
                dim = int(line.split()[1])
                continue
        if dim is None:
            dim = line.count(" ")
            if dim == 0:
                raise EmbeddingFormatError("line %d: no coordinates found" % lineno)
        parts = line.rsplit(" ", dim)
        if len(parts) <= dim:
            raise EmbeddingFormatError(
                "line %d: expected %d coordinates, found %d"
                % (lineno, dim, len(parts) - 1)
            )
        token, coords = parts[0], parts[1:]
        if token in seen:
            log.warning(
                "line %d: duplicate token %r, keeping first occurrence",
                lineno,
                token,
            )
            continue
        try:
            vec = np.array(coords, dtype=np.float64)
        except ValueError as exc:
            raise EmbeddingFormatError(
                "line %d: non-numeric coordinate (%s)" % (lineno, exc)
            ) from None
        if not np.isfinite(vec).all():
            raise EmbeddingFormatError(
                "line %d: non-finite coordinate for token %r" % (lineno, token)
            )
        seen[token] = len(words)
        words.append(token)
        rows.append(vec)
        if len(words) >= max_words:
            break

    if not rows:
        raise EmbeddingFormatError("no data rows found in input")
    return EmbeddingSpace(words=words, vectors=np.vstack(rows))



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

    def test_lone_cr_ends_a_line_in_files_bytes_and_binary_streams(self, tmp_path):
        good = b"a 1 0\rb 0 1\r\nc 1 1\r"
        bad = good + b"\xff 2 2\r"
        (tmp_path / "good.txt").write_bytes(good)
        (tmp_path / "bad.txt").write_bytes(bad)
        for source in (good, io.BytesIO(good), tmp_path / "good.txt"):
            assert parse_embeddings(source, max_words=5).words == ["a", "b", "c"]
        for source in (bad, io.BytesIO(bad), tmp_path / "bad.txt"):
            with pytest.raises(EmbeddingFormatError, match="line 4: invalid UTF-8"):
                parse_embeddings(source, max_words=5)

    @pytest.mark.parametrize(
        "data",
        [b"2 3\nthe 1 2 3\nof 4 5 6\n", b"the 1 2 3\nof 4 5 6\n"],
        ids=["w2v_header", "glove_first_row"],
    )
    def test_leading_byte_order_mark_is_ignored(self, data, tmp_path):
        data = "\ufeff".encode() + data
        path = tmp_path / "bom.txt"
        path.write_bytes(data)
        for source in (data, io.BytesIO(data), path, io.StringIO(data.decode())):
            space = parse_embeddings(source, max_words=10)
            assert space.words == ["the", "of"]
            assert np.array_equal(space.vectors, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])

    def test_only_a_leading_byte_order_mark_is_ignored(self):
        space = parse_embeddings("the 1\n\ufeffof 2\n".encode(), max_words=10)
        assert space.words == ["the", "\ufeffof"]

    def test_coordinates_are_accepted_as_float_accepts_them(self):
        space = parse_embeddings("a 1_0 １ ١٢\nb 0 -0 +.5\n".encode(), max_words=10)
        assert np.array_equal(space.vectors, [[10.0, 1.0, 12.0], [0.0, -0.0, 0.5]])
        assert np.signbit(space.vectors[1, 1])

    @pytest.mark.parametrize("field", ["1\x1c", "\x1f1"])
    def test_field_edge_characters_float_rejects_stay_errors(self, field):
        # np.loadtxt strips these from a field; float() does not
        data = ("a 0 0\nb %s 2\n" % field).encode()
        with pytest.raises(EmbeddingFormatError, match="line 2: non-numeric"):
            parse_embeddings(data, max_words=10)


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


def _rows(start: int, stop: int) -> list[bytes]:
    return [b"w%d %d 0.5" % (i, i) for i in range(start, stop)]


def _text(lines: list[bytes]) -> bytes:
    return b"\n".join(lines) + b"\n"


class TestBlockBoundaries:
    @pytest.mark.parametrize("kept", [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1])
    @pytest.mark.parametrize(
        "bad",
        [b"bad x 1", b"bad 1e500 1", b"bad 1", b"caf\xe9 1 1"],
        ids=["non_numeric", "non_finite", "short_row", "invalid_utf8"],
    )
    def test_first_bad_row_names_the_reference_line(self, kept, bad):
        # a duplicate before it, so kept-row index and line number differ
        lines = [b"2 2", b"w0 0 0.5", b"w0 9 9"] + _rows(1, kept) + [bad]
        lines += _rows(kept, kept + 5) + [b"late x 1"] + _rows(kept + 5, kept + 10)
        data = _text(lines)
        with pytest.raises(EmbeddingFormatError) as ref:
            reference_parse_embeddings(data)
        with pytest.raises(EmbeddingFormatError) as got:
            parse_embeddings(data)
        assert str(ref.value).startswith("line %d: " % (kept + 3))
        assert str(got.value) == str(ref.value)

    @pytest.mark.parametrize("later", [b"i 1", b"\xff 1 1"], ids=["short_row", "invalid_utf8"])
    def test_earlier_bad_value_wins_over_a_later_structural_error(self, later):
        lines = _rows(0, 4) + [b"e x 1"] + _rows(5, 8) + [later] + _rows(9, 12)
        with pytest.raises(EmbeddingFormatError, match="^line 5: non-numeric"):
            parse_embeddings(_text(lines))

    def test_rows_after_the_last_kept_word_are_never_read(self):
        lines = _rows(0, BLOCK_ROWS) + [b"bad x 1", b"short", b"\xff 1 1"]
        space = parse_embeddings(_text(lines), max_words=BLOCK_ROWS)
        assert space.words == ["w%d" % i for i in range(BLOCK_ROWS)]
        assert np.array_equal(space.vectors[:, 0], np.arange(BLOCK_ROWS))

    def test_duplicate_with_bad_coordinates_in_a_later_block_is_skipped(self):
        lines = _rows(0, BLOCK_ROWS + 10) + [b"w3 x nan"] + _rows(BLOCK_ROWS + 10, BLOCK_ROWS + 20)
        space = parse_embeddings(_text(lines))
        assert len(space) == BLOCK_ROWS + 20
        assert np.array_equal(space.vectors[space.index["w3"]], [3.0, 0.5])


_number = st.floats(allow_nan=False, allow_infinity=False, width=64)
_number_text = st.one_of(_number.map(repr), _number.map(lambda v: "%.6g" % v))
# float() accepts all of these; np.loadtxt rejects the first three
_float_only = st.sampled_from(["1_0", "１", "١٢", "-0", "+.5", "1.", "\t1"])
_bad_field = st.sampled_from(
    ["x", "", "1e500", "-1e500", "nan", "inf", "0x1", "1e", "1,5", "1\x1c", "\x1f2"]
)


@st.composite
def _files(draw):
    """Embedding text with odd rows sprinkled in, its line ends, and a
    ``max_words``."""
    dim = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=0, max_value=12))
    tokens = st.one_of(_token, st.sampled_from(["a", "b", "new york", "ü", "c d e"]))
    lines = []
    if draw(st.booleans()):
        lines.append(b"%d %d" % (n, dim))
    for i in range(n):
        fields = draw(st.lists(_number_text, min_size=dim, max_size=dim))
        kind = draw(st.integers(min_value=0, max_value=19))
        if kind == 0:
            fields.pop()  # short row
        elif kind == 1:
            fields[draw(st.integers(0, dim - 1))] = draw(_bad_field)
        elif kind in (2, 3):
            fields[draw(st.integers(0, dim - 1))] = draw(_float_only)
        # without a header the first row's field count sets D
        token = draw(tokens if lines or i else _token)
        line = (token + " " + " ".join(fields)).encode()
        if kind == 4:
            line = b"caf\xe9" + line  # invalid UTF-8
        elif kind == 5:
            lines.append(b"")
        elif kind == 6:
            line += b"  "
        lines.append(line)
    end = st.sampled_from([b"\n", b"\n", b"\r\n", b"\r"])
    ends = draw(st.lists(end, min_size=len(lines), max_size=len(lines)))
    data = b"".join(line + end for line, end in zip(lines, ends))
    return data, draw(st.integers(min_value=1, max_value=n + 2))


def _outcome(parse, source, max_words):
    try:
        space = parse(source, max_words=max_words)
    except EmbeddingFormatError as exc:
        return str(exc)
    return space.words, space.vectors.shape, space.vectors.tobytes()


class TestAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(
        file=_files(),
        block_rows=st.sampled_from([1, 2, 3, BLOCK_ROWS]),
        stream=st.booleans(),
    )
    def test_same_words_vectors_and_errors(self, file, block_rows, stream):
        # bytes and a binary stream of the same bytes must load alike
        data, max_words = file
        source = io.BytesIO(data) if stream else data
        expected = _outcome(reference_parse_embeddings, io.BytesIO(data), max_words)
        with mock.patch.object(embeddings, "BLOCK_ROWS", block_rows):
            assert _outcome(parse_embeddings, source, max_words) == expected
