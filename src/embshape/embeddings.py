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
import multiprocessing
import os
import sys
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import BinaryIO, Iterator, TextIO, Union

import numpy as np

from . import stages
from .errors import EmbeddingFormatError

log = logging.getLogger(__name__)

GLOVE_TEXT = "glove_text"
W2V_TEXT = "w2v_text"

DEFAULT_MAX_WORDS = 50_000

# Rows per block of every pass over a whole matrix, here and in pca: no pass
# holds an N x D temporary, and threads cannot change how a sum is ordered.
_MATRIX_BLOCK_ROWS = 8192


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
        """Euclidean norm of every row, computed on first use, one row block
        at a time. The matrix is read-only, so the norms cannot go stale."""
        norms = np.empty(self.n_words)
        for start in range(0, self.n_words, _MATRIX_BLOCK_ROWS):
            rows = self.vectors[start : start + _MATRIX_BLOCK_ROWS]
            norms[start : start + _MATRIX_BLOCK_ROWS] = np.linalg.norm(rows, axis=1)
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


def _byte_lines(source: Union[str, Path, bytes, TextIO, BinaryIO]) -> Iterator[bytes]:
    """The lines of ``source`` as UTF-8 bytes.

    Files, binary streams and ``bytes`` end lines at LF, CRLF or a lone
    CR; text streams end them as they iterate and are encoded line by
    line. A line of a binary source that is not ASCII is decoded to check
    it, so invalid UTF-8 is reported with the number of the line that
    holds it.
    """
    if isinstance(source, io.TextIOBase):
        for line in source:
            yield line.encode("utf-8", "surrogatepass")
        return
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            yield from _byte_lines(fh)
        return
    if isinstance(source, bytes):
        source = io.BytesIO(source)
    lineno = 0
    for chunk in source:
        # A chunk ends at its one LF, or at the end of the input. bytes
        # break lines only at LF, CRLF and CR, so a lone CR ends a line too.
        for raw in chunk.splitlines(keepends=True) if b"\r" in chunk else (chunk,):
            lineno += 1
            if not raw.isascii():
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise EmbeddingFormatError(
                        "line %d: invalid UTF-8 at byte %d of the line (%s)"
                        % (lineno, exc.start + 1, exc.reason)
                    ) from None
            yield raw


def _text(data: bytes) -> str:
    """Decode (part of) a line from ``_byte_lines``. Lines of binary
    sources were checked as strict UTF-8, which encodes no surrogate, so
    ``surrogatepass`` only brings back the lone surrogates a text stream
    may hold."""
    return data.decode("utf-8", "surrogatepass")


# Kept rows are converted this many at a time, one np.loadtxt call per block.
BLOCK_ROWS = 4096

_BOM = "\ufeff".encode()
# The ASCII characters that str.rstrip() strips.
_ASCII_SPACE = bytes(c for c in range(128) if chr(c).isspace())
# The only ASCII bytes that np.loadtxt and float() read differently:
# loadtxt strips them from the ends of a field as whitespace, float()
# rejects them (found by probing every byte at the start, middle and end of
# a field). loadtxt reads bytes as latin-1, so it gets no non-ASCII byte
# either; a block holding one of these is converted row by row.
_LOADTXT_ONLY_SPACE = b"\x1c\x1d\x1e\x1f"


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


def _loadtxt_block(coords: list[bytes], dim: int) -> np.ndarray | None:
    """The ``len(coords)`` x ``dim`` matrix of a block's coordinate rows,
    from one ``np.loadtxt`` call.

    None when that call cannot stand for ``_row_vector`` on every row: a
    row holds a non-ASCII byte or one of ``_LOADTXT_ONLY_SPACE``, or loadtxt
    raises, returns another shape or a non-finite value. The parent and its
    children convert blocks with this one function.
    """
    if not all(row.isascii() for row in coords) or any(
        ch in row for row in coords for ch in _LOADTXT_ONLY_SPACE
    ):
        return None
    try:
        block = np.loadtxt(
            coords, dtype=np.float64, delimiter=" ", comments=None, ndmin=2
        )
    except ValueError:
        return None
    if block.shape != (len(coords), dim) or not np.isfinite(block).all():
        return None
    return block


def _helper_main(coords: list[bytes], dim: int, out: BinaryIO) -> None:
    """A child process: convert the block the fork copied with
    ``_loadtxt_block`` and write its float64 bytes to the memory file
    ``out``; exit with 0 when ``out`` holds them, 1 when it was rejected."""
    code = 1
    try:
        block = _loadtxt_block(coords, dim)
        if block is not None:
            out.write(block)
            out.flush()
            code = 0
    finally:
        # Leave at once, also on an error or an interrupt: nothing copied by
        # the fork (atexit handlers, buffered output) may run a second time.
        os._exit(code)


def _helper_count() -> int:
    """Child processes a parse runs at a time: one where ``fork`` and memory
    files exist and the process may run on two or more CPUs, else none."""
    if hasattr(os, "memfd_create") and hasattr(os, "sched_getaffinity"):
        if "fork" in multiprocessing.get_all_start_methods():
            return min(2, len(os.sched_getaffinity(0))) - 1
    return 0


class _BlockMatrix:
    """The kept rows of one parse, taken one at a time and converted into
    one matrix in blocks of ``BLOCK_ROWS`` rows, in file order.

    A block is converted by ``_loadtxt_block``, or row by row with
    ``_row_vector`` when that rejects it, which raises the first bad row's
    error. Where children may run, every other full block goes to a child
    forked for it while the parent reads and converts the next; the fork
    hands the child the rows and a memory file brings its matrix back. A
    child that rejects its block, dies or exits early leaves the block to
    the parent, so the fallback and every error stay in the parent, and
    blocks are appended in file order, so the result does not depend on
    which process converted a block. Call ``finish`` at the end of the
    rows and ``close`` in a ``finally``.
    """

    def __init__(self, dim: int):
        self.vectors = np.empty((0, dim))
        self._dim = dim
        self._may_fork = _helper_count() > 0
        self._child = None  # the running child, its memory file and its block
        self._coords: list[bytes] = []  # the block being filled
        self._names: list[tuple[int, str]] = []  # its rows' line numbers and tokens

    def add(self, lineno: int, token: str, coords: bytes) -> None:
        """Take one kept row: its line number, token and coordinate bytes."""
        self._coords.append(coords)
        self._names.append((lineno, token))
        if len(self._coords) == BLOCK_ROWS:
            block = self._cut()
            fork = self._may_fork and len(self.vectors) and self._child is None
            if not (fork and self._fork(block)):
                self._convert(block)

    def finish(self) -> None:
        """Convert the rows of a short last block, after appending the
        child's block, so the first bad row in file order is raised."""
        if self._coords:
            self._convert(self._cut())
        self._collect()

    def close(self) -> None:
        """Wait for the child, if one runs, and close its memory file."""
        if self._child is not None:
            proc, out, _ = self._child
            self._child = None
            proc.join()
            proc.close()
            out.close()

    def _cut(self) -> tuple:
        """The rows taken since the last cut, as one block."""
        block = (self._coords, self._names)
        self._coords, self._names = [], []
        return block

    def _convert(self, block: tuple) -> None:
        matrix = _loadtxt_block(block[0], self._dim)
        self._collect()
        self._append(matrix, block)

    def _collect(self) -> None:
        """Append the block the child converts, if one runs: read from its
        memory file when it exits with 0, otherwise converted here."""
        if self._child is None:
            return
        proc, out, block = self._child
        proc.join()
        if proc.exitcode == 0:
            out.seek(0)  # read, not mapped: a mapped block adds to the parent's peak
            out.readinto(self._grow(len(block[0])))
            stages.count("blocks")
            self.close()
        else:  # rejected, died or exited early
            self.close()
            self._convert(block)

    def _fork(self, block: tuple) -> bool:
        """Start a child that converts ``block``; False when none can start."""
        out = open(os.memfd_create("embshape-block"), "r+b")
        proc = multiprocessing.get_context("fork").Process(
            target=_helper_main, args=(block[0], self._dim, out), daemon=True
        )
        try:
            with warnings.catch_warnings():
                # From Python 3.12 fork() warns in a process with other
                # threads, and the OpenBLAS pool counts. This fork is safe:
                # the child runs only loadtxt, takes no lock another thread
                # may hold, and leaves with os._exit.
                warnings.filterwarnings(
                    "ignore", r"This process .* is multi-threaded", DeprecationWarning
                )
                proc.start()
        except OSError:  # no process to spare: convert here from now on
            out.close()
            self._may_fork = False
            return False
        self._child = (proc, out, block)
        return True

    def _append(self, matrix: np.ndarray | None, block: tuple) -> None:
        coords, names = block
        if matrix is None:
            stages.count("row_fallbacks")
            matrix = np.vstack(
                [_row_vector(n, t, _text(c)) for (n, t), c in zip(names, coords)]
            )
        else:
            stages.count("blocks")
        self._grow(len(matrix))[:] = matrix

    def _grow(self, rows: int) -> np.ndarray:
        """Add ``rows`` rows to the matrix and return them. The rows are
        held once: blocks kept apart and copied together at the end would
        double the peak, and freeing each after its copy does not help, as
        the C heap keeps the freed blocks resident."""
        start = len(self.vectors)
        # a realloc: large buffers grow by remapping, not by copying
        self.vectors.resize((start + rows, self._dim), refcheck=False)
        return self.vectors[start:]


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

    The text streams through as bytes; only tokens are decoded. The
    coordinates of kept rows are converted by ``_BlockMatrix``, in blocks
    and partly in child processes, and the first error in file order is
    raised, whatever kind it is.
    """
    if max_words < 1:
        raise ValueError("max_words must be positive")

    words: list[str] = []
    seen: set[str] = set()
    dim: int | None = None
    rows = None  # a _BlockMatrix from the line that gives D on
    try:
        for lineno, raw in enumerate(_byte_lines(source), 1):
            if lineno == 1:
                raw = raw.removeprefix(_BOM)
            line = raw.rstrip(_ASCII_SPACE)
            if line and line[-1] >= 0x80:  # it may end in a non-ASCII space
                line = _text(line).rstrip().encode("utf-8", "surrogatepass")
            if not line:
                continue
            if dim is None:
                text = _text(line)
                line_fmt = detect_format(text)
                if fmt is None:
                    fmt = line_fmt
                if fmt == W2V_TEXT and line_fmt != W2V_TEXT:
                    raise EmbeddingFormatError(
                        "line 1: expected a 'N D' header, got %r" % text[:80]
                    )
                dim = int(text.split()[1]) if fmt == W2V_TEXT else line.count(b" ")
                if dim == 0:
                    raise EmbeddingFormatError("line %d: no coordinates found" % lineno)
                rows = _BlockMatrix(dim)
                if fmt == W2V_TEXT:
                    continue
            spaces = line.count(b" ")
            if spaces == dim:
                cut = line.index(b" ")
            elif spaces > dim:
                cut = len(line.rsplit(b" ", dim)[0])
            else:
                raise EmbeddingFormatError(
                    "line %d: expected %d coordinates, found %d"
                    % (lineno, dim, spaces)
                )
            token = _text(line[:cut])
            if token in seen:
                log.warning(
                    "line %d: duplicate token %r, keeping first occurrence",
                    lineno,
                    token,
                )
                continue
            seen.add(token)
            words.append(token)
            rows.add(lineno, token, line[cut + 1 :])
            if len(words) >= max_words:
                break
        if not words:
            raise EmbeddingFormatError("no data rows found in input")
        rows.finish()
    except EmbeddingFormatError:
        if rows is not None:  # a bad row before the failing line is reported first
            rows.finish()
        raise
    finally:
        if rows is not None:
            rows.close()
    return EmbeddingSpace(words=words, vectors=rows.vectors)


def load_embeddings(
    path: Union[str, Path],
    fmt: str | None = None,
    max_words: int = DEFAULT_MAX_WORDS,
    normalize: bool = False,
) -> EmbeddingSpace:
    """Parse the file at ``path``; '-' reads stdin. With ``normalize`` the
    rows are scaled to unit length (see ``normalized``)."""
    source = sys.stdin.buffer if str(path) == "-" else path
    space = parse_embeddings(source, fmt=fmt, max_words=max_words)
    return normalized(space) if normalize else space


def write_glove_text(space: EmbeddingSpace, out: Union[str, Path, TextIO]) -> None:
    """Write a space as GloVe text to a path or a text stream, one row at a
    time, and flush the stream. Coordinates use the shortest representation
    that round-trips float64 exactly."""
    if isinstance(out, (str, Path)):
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            write_glove_text(space, fh)
        return
    for word, row in zip(space.words, space.vectors):
        out.write(word + " " + " ".join(repr(float(v)) for v in row) + "\n")
    out.flush()


def format_glove_text(space: EmbeddingSpace) -> str:
    """The GloVe text of a space, as ``write_glove_text`` writes it."""
    buf = io.StringIO()
    write_glove_text(space, buf)
    return buf.getvalue()


def normalized(space: EmbeddingSpace) -> EmbeddingSpace:
    """Copy of the space with rows scaled to unit length.

    Zero rows are left untouched; they carry no direction to preserve.
    """
    norms = space.row_norms[:, np.newaxis]
    safe = np.where(norms == 0.0, 1.0, norms)
    return EmbeddingSpace(words=list(space.words), vectors=space.vectors / safe)
