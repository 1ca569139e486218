"""Reading and writing word embedding files.

Two plain-text formats are supported: GloVe text (one "token c1 ... cD" row
per line, no header) and word2vec/fastText text (same rows after a leading
"N D" count/dim header). The last D fields of a row are its coordinates and
the rest is the token, which may contain spaces. Tokens keep file order,
which for the published GloVe/fastText releases is frequency order, so
truncating to the first ``max_words`` rows gives the most frequent words.
"""

from __future__ import annotations

import io
import logging
import re
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import BinaryIO, Iterator, TextIO, Union

import numpy as np

from .errors import EmbeddingFormatError

log = logging.getLogger(__name__)

GLOVE_TEXT = "glove_text"
W2V_TEXT = "w2v_text"

DEFAULT_MAX_WORDS = 50_000


@dataclass(eq=False)
class EmbeddingSpace:
    """A vocabulary in file (frequency) order plus its coordinate matrix.

    ``vectors`` is an N x D float64 array; row i belongs to ``words[i]``.
    The matrix is marked read-only so a space can be shared freely.
    """

    words: list[str]
    vectors: np.ndarray
    index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.vectors = np.ascontiguousarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2:
            raise ValueError("vectors must be a 2-d array")
        if len(self.words) != self.vectors.shape[0]:
            raise ValueError(
                "word count %d does not match %d matrix rows"
                % (len(self.words), self.vectors.shape[0])
            )
        if len(self.words) == 0:
            raise ValueError("an embedding space needs at least one word")
        self.index = {}
        for i, w in enumerate(self.words):
            if w in self.index:
                raise ValueError("duplicate token %r" % w)
            self.index[w] = i
        if not np.isfinite(self.vectors).all():
            raise ValueError("vectors contain non-finite values")
        self.vectors.setflags(write=False)

    @cached_property
    def row_norms(self) -> np.ndarray:
        """Euclidean norm of every row, computed on first use. The matrix
        is read-only, so the norms cannot go stale."""
        norms = np.linalg.norm(self.vectors, axis=1)
        norms.setflags(write=False)
        return norms

    @property
    def n_words(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return self.n_words


def detect_format(first_line: str) -> str:
    """Classify an embedding file by its first line.

    A line made of exactly two positive integers is the word2vec/fastText
    count/dim header; anything else is a GloVe data row.
    """
    parts = first_line.strip().split()
    if not parts:
        raise EmbeddingFormatError("cannot detect format of an empty line")
    if len(parts) == 2:
        try:
            n, d = int(parts[0]), int(parts[1])
        except ValueError:
            return GLOVE_TEXT
        if n > 0 and d > 0:
            return W2V_TEXT
    return GLOVE_TEXT


# Zero-width split points after a CR that is not part of a CRLF.
_LONE_CR_END = re.compile(rb"(?<=\r)(?!\n)")


def _text_lines(source: Union[str, Path, bytes, TextIO, BinaryIO]) -> Iterator[str]:
    """The lines of ``source`` as text.

    Files and binary streams end lines at LF, CRLF or a lone CR; ``bytes``
    end them at LF only, and text streams as they iterate. Bytes are
    decoded one line at a time, so invalid UTF-8 is reported with the
    number of the line that holds it.
    """
    if isinstance(source, io.TextIOBase):
        yield from source
        return
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            yield from _text_lines(fh)
        return
    lone_cr_ends_line = not isinstance(source, bytes)
    if isinstance(source, bytes):
        source = io.BytesIO(source)
    lineno = 0
    for chunk in source:
        if lone_cr_ends_line and b"\r" in chunk:
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


# Kept rows are converted this many at a time, one np.loadtxt call per block.
BLOCK_ROWS = 4096

# Characters np.loadtxt strips from the ends of a field as whitespace but
# float() rejects; a block holding one is converted row by row.
_LOADTXT_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


def _row_vector(lineno: int, token: str, coords: str) -> np.ndarray:
    """Convert one row's coordinate string. This is the definition of an
    accepted row: D fields that ``float()`` accepts, all finite."""
    try:
        vec = np.array(coords.split(" "), dtype=np.float64)
    except ValueError as exc:
        raise EmbeddingFormatError(
            "line %d: non-numeric coordinate (%s)" % (lineno, exc)
        ) from None
    if not np.isfinite(vec).all():
        raise EmbeddingFormatError(
            "line %d: non-finite coordinate for token %r" % (lineno, token)
        )
    return vec


def _loadtxt_reads_as_float(coords: list[str]) -> bool:
    text = "".join(coords)
    return not any(ch in text for ch in _LOADTXT_ONLY_SPACE)


def _convert_block(
    coords: list[str], linenos: list[int], tokens: list[str], dim: int
) -> np.ndarray:
    """The rows x ``dim`` matrix of a block of coordinate strings.

    One ``np.loadtxt`` call converts the block. When it raises, returns
    another shape or a non-finite value, or would see a character that it
    strips but ``float()`` rejects, the block is rebuilt row by row with
    ``_row_vector``. That raises the first bad row's error, or loads the
    strings only ``float()`` accepts (``1_0``, fullwidth digits) as before.
    """
    if _loadtxt_reads_as_float(coords):
        try:
            block = np.loadtxt(
                coords, dtype=np.float64, delimiter=" ", comments=None, ndmin=2
            )
        except ValueError:
            pass
        else:
            if block.shape == (len(coords), dim) and np.isfinite(block).all():
                return block
    return np.vstack(
        [_row_vector(n, t, c) for n, t, c in zip(linenos, tokens, coords)]
    )


def parse_embeddings(
    source: Union[str, Path, bytes, TextIO, BinaryIO],
    fmt: str | None = None,
    max_words: int = DEFAULT_MAX_WORDS,
) -> EmbeddingSpace:
    """Parse a GloVe/word2vec text stream into an EmbeddingSpace.

    Keeps the first ``max_words`` unique tokens in file order. A repeated
    token keeps its first vector and does not consume a slot. The dimension
    D comes from the w2v header when present, otherwise from the first data
    row. Every later row needs at least D fields after its token; any
    fields before its last D belong to the token. One leading byte-order
    mark is ignored.

    The text streams through: the coordinates of kept rows are converted
    in blocks of ``BLOCK_ROWS`` rows, and the first error in file order is
    raised, whatever kind it is.
    """
    if max_words < 1:
        raise ValueError("max_words must be positive")

    words: list[str] = []
    seen: set[str] = set()
    blocks: list[np.ndarray] = []
    pending: list[str] = []  # coordinate strings of kept rows not yet converted
    pending_lines: list[int] = []
    dim: int | None = None
    lineno = 0
    first_data_line = True

    def convert_pending() -> None:
        nonlocal pending, pending_lines
        if pending:
            coords, linenos = pending, pending_lines
            pending, pending_lines = [], []
            tokens = words[len(words) - len(coords) :]
            blocks.append(_convert_block(coords, linenos, tokens, dim))

    failure = None
    try:
        for raw in _text_lines(source):
            lineno += 1
            if lineno == 1:
                raw = raw.removeprefix("\ufeff")
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
            spaces = line.count(" ")
            if dim is None:
                dim = spaces
                if dim == 0:
                    raise EmbeddingFormatError("line %d: no coordinates found" % lineno)
            if spaces == dim:
                cut = line.index(" ")
            elif spaces > dim:
                cut = len(line.rsplit(" ", dim)[0])
            else:
                raise EmbeddingFormatError(
                    "line %d: expected %d coordinates, found %d"
                    % (lineno, dim, spaces)
                )
            token = line[:cut]
            if token in seen:
                log.warning(
                    "line %d: duplicate token %r, keeping first occurrence",
                    lineno,
                    token,
                )
                continue
            seen.add(token)
            words.append(token)
            pending.append(line[cut + 1 :])
            pending_lines.append(lineno)
            if len(pending) == BLOCK_ROWS:
                convert_pending()
            if len(words) >= max_words:
                break
    except EmbeddingFormatError as exc:
        failure = exc
    convert_pending()  # a bad row before a failing line is reported first
    if failure is not None:
        raise failure

    if not blocks:
        raise EmbeddingFormatError("no data rows found in input")
    return EmbeddingSpace(words=words, vectors=np.concatenate(blocks))


def load_embeddings(
    path: Union[str, Path],
    fmt: str | None = None,
    max_words: int = DEFAULT_MAX_WORDS,
) -> EmbeddingSpace:
    """Open ``path`` and parse it. '-' reads stdin."""
    if str(path) == "-":
        import sys

        return parse_embeddings(sys.stdin.buffer, fmt=fmt, max_words=max_words)
    with open(path, "rb") as fh:
        return parse_embeddings(fh, fmt=fmt, max_words=max_words)


def format_glove_text(space: EmbeddingSpace) -> str:
    """Render a space back to GloVe text. Coordinates use the shortest
    representation that round-trips float64 exactly."""
    lines = []
    for word, row in zip(space.words, space.vectors):
        lines.append(word + " " + " ".join(repr(float(v)) for v in row) + "\n")
    return "".join(lines)


def write_glove_text(space: EmbeddingSpace, path: Union[str, Path]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_glove_text(space))


def normalized(space: EmbeddingSpace) -> EmbeddingSpace:
    """Copy of the space with rows scaled to unit length.

    Zero rows are left untouched; they carry no direction to preserve.
    """
    norms = np.linalg.norm(space.vectors, axis=1, keepdims=True)
    safe = np.where(norms == 0.0, 1.0, norms)
    return EmbeddingSpace(words=list(space.words), vectors=space.vectors / safe)
