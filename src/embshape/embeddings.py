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
import re
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
        if b"\r" in chunk:
            raws = [r for r in _LONE_CR_END.split(chunk) if r]
        else:
            raws = (chunk,)
        for raw in raws:
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
    raises, returns another shape or a non-finite value. The parent and the
    helper process convert blocks with this one function.
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


def _read_size(fh: BinaryIO) -> int:
    """The length that opens a message; EOFError at the end of the pipe."""
    header = fh.read(8)
    if len(header) < 8:
        raise EOFError
    return int.from_bytes(header, "little")


# The parent writes a block to the helper row by row through a buffer of
# this size, one pipe's capacity, so a block takes a few hundred writes.
_PIPE_BUFFER = 1 << 16


def _helper_main(requests: int, replies: int, parent_ends: tuple, dim: int) -> None:
    """The helper process: convert each block the parent writes to the
    ``requests`` pipe, and write its float64 bytes to ``replies``, or an
    empty message when ``_loadtxt_block`` rejects the block, until the
    parent closes its end."""
    try:
        for fd in parent_ends:  # the fork's copies; open, they hide the parent's close
            os.close(fd)
        with open(requests, "rb") as src, open(replies, "wb") as dst:
            while True:
                coords = src.read(_read_size(src)).split(b"\n")
                block = _loadtxt_block(coords, dim)
                reply = b"" if block is None else memoryview(block).cast("B")
                dst.write(len(reply).to_bytes(8, "little"))
                dst.write(reply)
                dst.flush()
    finally:
        # Leave at once, at the end of input, a broken pipe or an interrupt:
        # nothing copied by the fork (atexit handlers, buffered output) may
        # run a second time.
        os._exit(0)


def _helper_count() -> int:
    """Helper processes a parse starts: one where ``fork`` is available
    and the process may run on two or more CPUs, otherwise none."""
    if hasattr(os, "sched_getaffinity") and "fork" in multiprocessing.get_all_start_methods():
        return min(2, len(os.sched_getaffinity(0))) - 1
    return 0


class _BlockMatrix:
    """The converted rows of one parse: one matrix, grown block by block
    in file order.

    A block is converted by ``_loadtxt_block``, or row by row with
    ``_row_vector`` when that rejects it, which raises the first bad row's
    error. With a helper process every other full block is converted there
    while the parent reads and converts the next one; one block at a time
    is in flight, so neither side can block the other on a full pipe. The
    row-by-row fallback and every error stay in the parent, and blocks are
    appended in file order, so the result does not depend on which process
    converted a block. A helper that dies leaves its block and the rest to
    the parent. Call ``close`` in a ``finally``.
    """

    def __init__(self):
        self.vectors = np.empty((0, 0))
        self._dim = 0
        self._full_blocks = 0
        self._may_fork = _helper_count() > 0
        self._proc = None
        self._requests = self._replies = None  # the parent's ends of the pipes
        self._in_flight = None  # (coords, linenos, tokens) of the helper's block

    def add(self, coords: list[bytes], linenos: list[int], tokens: list[str],
            dim: int, full: bool) -> None:
        """Convert one block of kept rows, given by their coordinate bytes,
        line numbers and tokens. A full block after the first goes to the
        helper when it holds none; any other is converted here, and the
        helper's block is appended before it."""
        self._dim = dim
        job = (coords, linenos, tokens)
        if full and self._full_blocks and self._in_flight is None and self._send(coords):
            self._in_flight = job
        else:
            block = _loadtxt_block(coords, dim)
            self.collect()
            self._append(block, job)
        self._full_blocks += full

    def collect(self) -> None:
        """Append the block the helper holds, if it holds one."""
        if self._in_flight is None:
            return
        job, self._in_flight = self._in_flight, None
        try:
            if self._read_reply(len(job[0])):
                return
            block = None
        except EOFError:  # the helper died: convert its block here
            self.close()
            block = _loadtxt_block(job[0], self._dim)
        self._append(block, job)

    def close(self) -> None:
        """End the helper, if one runs: closing the pipes ends its loop, at
        the latest once it has converted the block it holds."""
        if self._proc is not None:
            try:
                self._requests.close()
            except BrokenPipeError:  # a dead helper left a message unsent
                pass
            self._replies.close()
            self._proc.join()
            self._proc = None

    def _send(self, coords: list[bytes]) -> bool:
        if self._proc is None:
            if not self._may_fork:
                return False
            self._may_fork = False
            if not self._fork():
                return False
        # the rows joined by newlines, written row by row: a joined copy
        # would be one more large buffer per block
        size = sum(map(len, coords)) + len(coords) - 1
        try:
            self._requests.write(size.to_bytes(8, "little"))
            self._requests.write(coords[0])
            for row in coords[1:]:
                self._requests.write(b"\n")
                self._requests.write(row)
            self._requests.flush()
        except OSError:  # the helper died: convert here from now on
            self.close()
            return False
        return True

    def _read_reply(self, rows: int) -> bool:
        """Read the helper's reply into ``rows`` new rows of the matrix; False
        when the helper rejected the block."""
        size = _read_size(self._replies)
        if size == 0:
            return False
        start = len(self.vectors)
        if size != rows * self._dim * 8 or self._replies.readinto(self._grow(rows)) != size:
            self.vectors.resize((start, self._dim), refcheck=False)
            raise EOFError
        stages.count("blocks")
        return True

    def _fork(self) -> bool:
        requests, to_helper = os.pipe()
        from_helper, replies = os.pipe()
        proc = multiprocessing.get_context("fork").Process(
            target=_helper_main,
            args=(requests, replies, (to_helper, from_helper), self._dim),
            daemon=True,
        )
        try:
            with warnings.catch_warnings():
                # From Python 3.12 fork() warns in a process with other
                # threads, and the OpenBLAS pool counts. This fork is safe:
                # the helper runs only loadtxt, takes no lock another thread
                # may hold, and leaves with os._exit.
                warnings.filterwarnings(
                    "ignore", r"This process .* is multi-threaded", DeprecationWarning
                )
                proc.start()
        except OSError:  # no process to spare: convert here
            for fd in (requests, to_helper, from_helper, replies):
                os.close(fd)
            return False
        os.close(requests)
        os.close(replies)
        self._proc = proc
        self._requests = open(to_helper, "wb", buffering=_PIPE_BUFFER)
        self._replies = open(from_helper, "rb")
        return True

    def _append(self, block: np.ndarray | None, job: tuple) -> None:
        coords, linenos, tokens = job
        if block is None:
            stages.count("row_fallbacks")
            block = np.vstack(
                [_row_vector(n, t, _text(c)) for n, t, c in zip(linenos, tokens, coords)]
            )
        else:
            stages.count("blocks")
        self._grow(len(block))[:] = block

    def _grow(self, rows: int) -> np.ndarray:
        """Add ``rows`` rows to the matrix and return them."""
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
    coordinates of kept rows are converted in blocks of ``BLOCK_ROWS``
    rows, every other one in a helper process when there is a second CPU
    (see ``_BlockMatrix``), and the first error in file order is raised,
    whatever kind it is. Each converted block is appended to one matrix
    that grows in place, so the rows are held once: blocks kept apart and
    copied together at the end would double the peak, and freeing each
    after its copy does not help, as the C heap keeps the freed blocks
    resident.
    """
    if max_words < 1:
        raise ValueError("max_words must be positive")

    words: list[str] = []
    seen: set[str] = set()
    matrix = _BlockMatrix()
    pending: list[bytes] = []  # coordinate bytes of kept rows not yet converted
    pending_lines: list[int] = []
    dim: int | None = None
    lineno = 0
    first_data_line = True

    def convert_pending(full: bool) -> None:
        nonlocal pending, pending_lines
        if pending:
            coords, linenos = pending, pending_lines
            pending, pending_lines = [], []
            tokens = words[len(words) - len(coords) :]
            matrix.add(coords, linenos, tokens, dim, full)

    failure = None
    try:
        try:
            for raw in _byte_lines(source):
                lineno += 1
                if lineno == 1:
                    raw = raw.removeprefix(_BOM)
                line = raw.rstrip(_ASCII_SPACE)
                if line and line[-1] >= 0x80:  # it may end in a non-ASCII space
                    line = _text(line).rstrip().encode("utf-8", "surrogatepass")
                if not line:
                    continue
                if first_data_line:
                    first_data_line = False
                    text = _text(line)
                    line_fmt = detect_format(text)
                    if fmt is None:
                        fmt = line_fmt
                    if fmt == W2V_TEXT:
                        if line_fmt != W2V_TEXT:
                            raise EmbeddingFormatError(
                                "line 1: expected a 'N D' header, got %r" % text[:80]
                            )
                        dim = int(text.split()[1])
                        continue
                spaces = line.count(b" ")
                if dim is None:
                    dim = spaces
                    if dim == 0:
                        raise EmbeddingFormatError(
                            "line %d: no coordinates found" % lineno
                        )
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
                pending.append(line[cut + 1 :])
                pending_lines.append(lineno)
                if len(pending) == BLOCK_ROWS:
                    convert_pending(full=True)
                if len(words) >= max_words:
                    break
        except EmbeddingFormatError as exc:
            failure = exc
        # a bad row before a failing line is reported first
        convert_pending(full=False)
        matrix.collect()
    finally:
        matrix.close()
    if failure is not None:
        raise failure

    if not words:
        raise EmbeddingFormatError("no data rows found in input")
    return EmbeddingSpace(words=words, vectors=matrix.vectors)


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
