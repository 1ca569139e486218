import io
import json
import logging
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from typing import BinaryIO, Iterator, TextIO, Union
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
    load_embeddings,
    normalized,
    parse_embeddings,
    write_glove_text,
)
from embshape import embeddings
from embshape.embeddings import BLOCK_ROWS, DEFAULT_MAX_WORDS, W2V_TEXT
from embshape.stages import StageTimer

log = logging.getLogger("embshape.embeddings")


# The line reader of the per-line parser below, kept with it unchanged.
_LONE_CR_END = re.compile(rb"(?<=\r)(?!\n)")


def _text_lines(source: Union[str, Path, bytes, TextIO, BinaryIO]) -> Iterator[str]:
    """The lines of ``source`` as text.

    Files, binary streams and ``bytes`` end lines at LF, CRLF or a lone
    CR; text streams end them as they iterate. Bytes are decoded one line
    at a time, so invalid UTF-8 is reported with the number of the line
    that holds it.
    """
    if isinstance(source, io.TextIOBase):
        yield from source
        return
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            yield from _text_lines(fh)
        return
    if isinstance(source, bytes):
        source = io.BytesIO(source)
    lineno = 0
    for chunk in source:
        if b"\r" in chunk:
            raws = [r for r in _LONE_CR_END.split(chunk) if r]
        else:
            raws = (chunk,)
        for raw in raws:
            lineno += 1
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise EmbeddingFormatError(
                    "line %d: invalid UTF-8 at byte %d of the line (%s)"
                    % (lineno, exc.start + 1, exc.reason)
                ) from None
            yield line


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

    @pytest.mark.parametrize(
        "data,bad_line",
        [(b"\n \n3 2\na 1 0\nb 0 1\nc 1 1\n", 7), (b"\r\n\t\na 1 0\nb 0 1\nc 1 1\n", 6)],
        ids=["w2v_header", "glove_first_row"],
    )
    def test_blank_lines_before_the_first_data_line(self, data, bad_line):
        space = parse_embeddings(data, max_words=10)
        assert space.words == ["a", "b", "c"]
        assert np.array_equal(space.vectors, [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        with pytest.raises(EmbeddingFormatError, match="^line %d: non-numeric" % bad_line):
            parse_embeddings(data + b"d x 0\n", max_words=10)

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

    def test_lines_of_unicode_whitespace_are_blank(self):
        data = "a 1 2\u2003\n\u3000\n \u0085\nb 3 4 \u00a0\n".encode()
        space = parse_embeddings(data, max_words=10)
        assert space.words == ["a", "b"]
        assert np.array_equal(space.vectors, [[1.0, 2.0], [3.0, 4.0]])

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

    def test_row_norms_go_block_by_block_with_the_same_bits(self):
        # rows of very different scales, over eight blocks and a short one
        rng = np.random.default_rng(5)
        n = 8 * embeddings._MATRIX_BLOCK_ROWS + 5
        vectors = rng.standard_normal((n, 16)) * 10.0 ** rng.uniform(-5, 5, (n, 1))
        vectors[embeddings._MATRIX_BLOCK_ROWS] = 0.0
        space = EmbeddingSpace(words=["w%d" % i for i in range(n)], vectors=vectors)
        tracemalloc.start()
        try:
            norms = space.row_norms
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < space.vectors.nbytes / 4  # no N x D temporary
        assert norms.tobytes() == np.linalg.norm(vectors, axis=1).tobytes()
        old = np.linalg.norm(vectors, axis=1, keepdims=True)
        expected = vectors / np.where(old == 0.0, 1.0, old)
        assert normalized(space).vectors.tobytes() == expected.tobytes()

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

    def test_load_with_normalize_is_the_normalized_load(self, tmp_path):
        rng = np.random.default_rng(11)
        vectors = rng.standard_normal((300, 7)) * 10.0 ** rng.uniform(-3, 3, (300, 1))
        vectors[5] = 0.0
        path = tmp_path / "space.txt"
        write_glove_text(EmbeddingSpace(["w%d" % i for i in range(300)], vectors), path)
        for max_words in (DEFAULT_MAX_WORDS, 250):
            unit = load_embeddings(path, max_words=max_words, normalize=True)
            plain = load_embeddings(path, max_words=max_words)
            assert unit.words == plain.words
            assert unit.vectors.tobytes() == normalized(plain).vectors.tobytes()
            assert unit.vectors.tobytes() != plain.vectors.tobytes()


class TestWriteGloveText:
    def test_rows_stream_to_a_file(self, tmp_path):
        rng = np.random.default_rng(2)
        space = EmbeddingSpace(
            ["w%d" % i for i in range(5000)], rng.standard_normal((5000, 50))
        )
        path = tmp_path / "space.txt"
        tracemalloc.start()
        try:
            write_glove_text(space, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 4  # the text is never held whole
        assert path.read_text(encoding="utf-8") == format_glove_text(space)


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
# float() accepts all of these; np.loadtxt rejects the first three, and the
# non-ASCII ones never reach it
_float_only = st.sampled_from(
    ["1_0", "１", "١٢", "-0", "+.5", "1.", "\t1", "\u00a01", "1\u2003", "\x0b1", "1\x0c"]
)
_bad_field = st.sampled_from(
    ["x", "", "1e500", "-1e500", "nan", "inf", "0x1", "1e", "1,5", "1\x1c", "\x1f2",
     "\u0085"]
)


@st.composite
def _files(draw):
    """Embedding text with odd rows sprinkled in, its line ends, and a
    ``max_words``."""
    dim = draw(st.integers(min_value=1, max_value=4))
    # up to 16 rows: over two blocks at the patched block sizes, so the
    # helper process converts some of them
    n = draw(st.integers(min_value=0, max_value=16))
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
        elif kind == 6:  # trailing whitespace, which str.rstrip() strips
            line += draw(st.sampled_from([b"  ", b" \x1c", " \u2003".encode(), " \u3000 ".encode()]))
        elif kind == 7:
            line = line[:-1] + b"\xa0" + line[-1:]  # invalid UTF-8 in a coordinate
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


def _field_probes():
    """Every single byte at the start, middle and end of a field, with the
    field first, inside and last in its row."""
    for value in range(256):
        byte = bytes([value])
        for field in (byte + b"1", b"1" + byte + b"5", b"1" + byte):
            for row in (field + b" 2", b"2 " + field + b" 3", b"2 " + field):
                yield row


def test_loadtxt_block_reads_every_byte_as_row_vector_does():
    # The block path may reject a row, which then goes row by row; it may
    # never accept a row that _row_vector rejects or read it differently.
    for row in _field_probes():
        block = embeddings._loadtxt_block([row], row.count(b" ") + 1)
        if block is None:
            continue
        expected = embeddings._row_vector(1, "t", row.decode("utf-8"))
        assert block.tobytes() == expected.tobytes(), row


def _cloud_text(rows: int, odd_row: int | None = None, odd: bytes = b"1_0") -> bytes:
    """``rows`` GloVe lines, with the first coordinate of line ``odd_row``
    (1-based) replaced by ``odd``."""
    lines = []
    for i in range(rows):
        first = odd if i + 1 == odd_row else b"%d.25" % i
        lines.append(b"w%d %s %d" % (i, first, -i))
    return _text(lines)


@pytest.fixture
def helper(tmp_path, monkeypatch):
    """Blocks of 4 rows and one helper process, whatever the CPU count,
    whose entry leaves a marker file when it runs."""
    marker = tmp_path / "helper-ran"
    real = embeddings._helper_main

    def marked(*args):
        marker.touch()
        real(*args)

    monkeypatch.setattr(embeddings, "BLOCK_ROWS", 4)
    monkeypatch.setattr(embeddings, "_helper_count", lambda: 1)
    monkeypatch.setattr(embeddings, "_helper_main", marked)
    return marker


def _inline(data: bytes, **kwargs) -> EmbeddingSpace:
    with mock.patch.object(embeddings, "_helper_count", lambda: 0):
        return parse_embeddings(data, **kwargs)


class TestHelperProcess:
    # the autouse fixture in conftest.py fails any test that leaves the
    # helper running

    def test_converts_the_same_bits_as_the_parent_alone(self, helper):
        data = _cloud_text(30, odd_row=14)  # the odd row falls back, in the helper's block
        space = parse_embeddings(data)
        assert helper.exists()
        expected = _inline(data)
        assert space.words == expected.words
        assert space.vectors.tobytes() == expected.vectors.tobytes()
        assert space.vectors[13, 0] == 10.0

    def test_inputs_of_one_block_or_less_never_fork(self, helper):
        parse_embeddings(_cloud_text(7))
        assert not helper.exists()

    def test_format_error_in_a_later_block(self, helper):
        with pytest.raises(EmbeddingFormatError, match="^line 23: non-numeric"):
            parse_embeddings(_cloud_text(30, odd_row=23, odd=b"x"))
        assert helper.exists()

    @pytest.mark.parametrize("later", [b"i 1", b"\xff 1 1"], ids=["short_row", "invalid_utf8"])
    def test_bad_value_in_the_helpers_block_wins_over_a_later_error(self, helper, later):
        lines = _rows(0, 4) + [b"e x 1"] + _rows(5, 9) + [later] + _rows(10, 20)
        with pytest.raises(EmbeddingFormatError, match="^line 5: non-numeric"):
            parse_embeddings(_text(lines))
        assert helper.exists()

    def test_max_words_stop_mid_file(self, helper):
        space = parse_embeddings(_cloud_text(30) + b"bad x 1\n", max_words=13)
        assert helper.exists()
        assert space.words == ["w%d" % i for i in range(13)]

    def test_an_interrupt_from_the_source_ends_the_helper(self, helper):
        def interrupted():
            # two blocks, the second one in the helper, then part of a third
            yield from _cloud_text(10).splitlines(keepends=True)
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            parse_embeddings(interrupted())
        assert helper.exists()

    def test_stdin_source(self, helper, monkeypatch):
        data = _cloud_text(30)
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
        space = embeddings.load_embeddings("-")
        assert helper.exists()
        assert space.vectors.tobytes() == _inline(data).vectors.tobytes()

    def test_a_helper_that_exits_at_once_changes_nothing(self, monkeypatch):
        monkeypatch.setattr(embeddings, "BLOCK_ROWS", 4)
        monkeypatch.setattr(embeddings, "_helper_count", lambda: 1)
        monkeypatch.setattr(embeddings, "_helper_main", lambda *args: os._exit(1))
        data = _cloud_text(30, odd_row=14)
        space = parse_embeddings(data)
        expected = _inline(data)
        assert space.words == expected.words
        assert space.vectors.tobytes() == expected.vectors.tobytes()

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self")
    def test_nothing_outlives_a_parse(self, helper):
        # each child brings a sentinel pipe and a memory file
        fds = len(os.listdir("/proc/self/fd"))
        for _ in range(5):
            parse_embeddings(_cloud_text(9 * 4))
        for _ in range(5):  # the bad value is in the last child's block
            with pytest.raises(EmbeddingFormatError, match="^line 30: non-numeric"):
                parse_embeddings(_cloud_text(9 * 4, odd_row=30, odd=b"x"))
        assert helper.exists()
        assert len(os.listdir("/proc/self/fd")) == fds

    @pytest.mark.parametrize("blocks", [3, 7])
    def test_stdin_file_through_the_cli(self, tmp_path, blocks):
        # Each child forked while stdin is a regular file closes its copy of
        # stdin, whose offset it shares with the parent; the parent must
        # still read every line.
        path = tmp_path / "cloud.txt"
        path.write_bytes(_cloud_text(blocks * BLOCK_ROWS))
        args = [sys.executable, "-m", "embshape", "stats", "--words", "w0,w1,w2"]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        by_path = subprocess.run(args + [str(path)], env=env, capture_output=True, check=True)
        with open(path, "rb") as stdin:
            by_stdin = subprocess.run(
                args + ["-"], env=env, stdin=stdin, capture_output=True, check=True
            )
        reports = [json.loads(run.stdout) for run in (by_path, by_stdin)]
        for report in reports:
            report["params"].pop("input")
        assert reports[0] == reports[1]


class TestParseCounts:
    @pytest.mark.parametrize("odd_row,fallbacks", [(None, 0), (14, 1)])
    def test_blocks_and_row_fallbacks(self, helper, odd_row, fallbacks):
        timer = StageTimer()
        with timer.stage("parse"):
            parse_embeddings(_cloud_text(30, odd_row=odd_row))
        parse = timer.stages["parse"]
        assert (parse["blocks"], parse["row_fallbacks"]) == (8 - fallbacks, fallbacks)
