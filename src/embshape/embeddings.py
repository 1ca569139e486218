"""Reading and writing word embedding files.

Two plain-text formats are supported: GloVe text (one "token c1 ... cD" row
per line, no header) and word2vec/fastText text (same rows after a leading
"N D" count/dim header). The last D fields of a row are its coordinates and
the rest is the token, which may contain spaces. Tokens keep file order,
which for the published GloVe/fastText releases is frequency order, so
truncating to the first ``max_words`` rows gives the most frequent words.
"""

from __future__ import annotations

import collections
import contextlib
import gzip
import io
import logging
import os
import select
import warnings
import zlib
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import BinaryIO, Iterator, TextIO, Union

import numpy as np

from . import stages
from .errors import EmbeddingFormatError
from .parallel import usable_cpus

log = logging.getLogger(__name__)

GLOVE_TEXT = "glove_text"
W2V_TEXT = "w2v_text"

DEFAULT_MAX_WORDS = 50_000

# Rows per block of the passes over the whole matrix that reduce it (the
# finite check, the row norms and the covariance): no pass holds an N x D
# temporary, and threads cannot change how a sum is ordered.
_MATRIX_BLOCK_ROWS = 8192


def _covariance(vectors: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Population (1/N) covariance, accumulated block by block in a fixed
    order so results do not depend on how the work is scheduled. Each
    block's rows less the mean go into one buffer that the next block
    reuses."""
    n, d = vectors.shape
    cov = np.zeros((d, d))
    buffer = np.empty((min(n, _MATRIX_BLOCK_ROWS), d))
    for start in range(0, n, _MATRIX_BLOCK_ROWS):
        rows = vectors[start : start + _MATRIX_BLOCK_ROWS]
        block = buffer[: len(rows)]
        np.subtract(rows, mean, out=block)
        cov += block.T @ block
    cov /= n
    return (cov + cov.T) / 2.0


@dataclass(eq=False)
class EmbeddingSpace:
    """A vocabulary in file (frequency) order plus its coordinate matrix.

    ``vectors`` is an N x D float64 array; row i belongs to ``words[i]``.
    The matrix is marked read-only so a space can be shared freely, and
    the arrays derived from it (``mean``, ``row_norms``, ``covariance``)
    are computed once, on first use, unless a parse-cache hit
    (``embshape.cache``) set them.
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
        self.index = dict(zip(self.words, range(len(self.words))))
        if len(self.index) < len(self.words):
            seen = set()
            for w in self.words:
                if w in seen:
                    raise ValueError("duplicate token %r" % w)
                seen.add(w)
        for start in range(0, self.n_words, _MATRIX_BLOCK_ROWS):
            if not np.isfinite(self.vectors[start : start + _MATRIX_BLOCK_ROWS]).all():
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

    @cached_property
    def mean(self) -> np.ndarray:
        """The cloud's mean row, computed on first use, read-only."""
        mean = self.vectors.mean(axis=0)
        mean.setflags(write=False)
        return mean

    @cached_property
    def covariance(self) -> np.ndarray:
        """The cloud's population covariance (see ``_covariance``),
        computed on first use, read-only."""
        cov = _covariance(self.vectors, self.mean)
        cov.setflags(write=False)
        return cov

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


# The first bytes of the containers an embedding release may come in.
_GZIP_MAGIC = b"\x1f\x8b"
_ZIP_MAGIC = b"PK\x03\x04"


def _byte_lines(source: Union[str, Path, bytes, BinaryIO]) -> Iterator[bytes]:
    """The lines of ``source``, a path, ``bytes`` or a binary stream, as
    bytes. Lines end at LF, CRLF or a lone CR. A source that starts with the
    gzip magic bytes is read decompressed; a zip archive fails with an error
    that names the format.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            yield from _byte_lines(fh)
        return
    if isinstance(source, bytes):
        source = io.BytesIO(source)
    head = _first_bytes(source, len(_ZIP_MAGIC))
    if head.startswith(_ZIP_MAGIC):
        raise EmbeddingFormatError(
            "the input is a zip archive; extract the embedding file from it and "
            "read that (e.g. unzip -p glove.6B.zip glove.6B.300d.txt > glove.txt)"
        )
    if head.startswith(_GZIP_MAGIC):
        try:
            with gzip.GzipFile(fileobj=source) as fh:
                yield from _byte_lines(fh)
        except (gzip.BadGzipFile, EOFError, zlib.error) as exc:
            raise EmbeddingFormatError("invalid gzip input (%s)" % exc) from None
        return
    for chunk in source:
        # A chunk ends at its one LF, or at the end of the input. bytes
        # break lines only at LF, CRLF and CR, so a lone CR ends a line too.
        if b"\r" in chunk:
            yield from chunk.splitlines(keepends=True)
        else:
            yield chunk


def _first_bytes(source: BinaryIO, size: int) -> bytes:
    """The first ``size`` bytes of a binary stream, left to be read: b"" for
    a stream that can neither peek nor seek, or an iterable of lines."""
    if hasattr(source, "peek"):
        return source.peek(size)[:size]
    if isinstance(source, io.IOBase) and source.seekable():
        start = source.tell()
        head = source.read(size)
        source.seek(start)
        return head
    return b""


# Kept rows are converted this many at a time, one np.loadtxt call per block.
BLOCK_ROWS = 1024

# The warning a repeated token logs; a cache hit logs those of its parse again.
_DUPLICATE = "line %d: duplicate token %r, keeping first occurrence"
# The error of the first data row after a 'N D' header when that row is not
# text (it holds a NUL byte or is not UTF-8) and, counted on the raw line,
# holds fewer than D spaces, so it would fail as a text row anyway.
_BINARY_W2V = (
    "line %d: a binary word2vec row; only the text format is read, so convert "
    "the file first (e.g. with gensim: KeyedVectors.load_word2vec_format(path, "
    "binary=True).save_word2vec_format(out, binary=False))"
)

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
    worker convert blocks with this one function.
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


# Blocks the worker may hold at once: one it converts and one written for it
# to take next, so it need not wait for the parent between blocks.
_SLOTS = 2
# A job is the slot's number and then the byte size of its rows, little-endian.
_JOB_BYTES = 9
# The parent writes a block's rows to a slot through a buffer of this size.
_WRITE_BUFFER = 1 << 18


def _helper_main(jobs: int, replies: int, slots: tuple, dim: int) -> None:
    """The worker's loop, in the forked child. It takes (slot, size) jobs
    from the ``jobs`` pipe in order. For each it converts the ``size``
    bytes of newline-joined coordinate rows at the start of the slot's
    memory file with ``_loadtxt_block``, writes the float64 block over them
    and answers (slot, 1) on ``replies``, or (slot, 0) when the block was
    rejected. It returns when the parent closes the job pipe."""
    while len(job := os.read(jobs, _JOB_BYTES)) == _JOB_BYTES:
        slot, size = job[0], int.from_bytes(job[1:], "little")
        data = os.pread(slots[slot], size, 0)
        block = _loadtxt_block(data.split(b"\n"), dim) if len(data) == size else None
        done = block is not None and os.pwrite(slots[slot], block, 0) == block.nbytes
        os.write(replies, bytes((slot, done)))
        del data, block  # hold neither while waiting for the next job


def _helper_count() -> int:
    """Worker processes a parse runs: one where memory files, and so
    ``os.fork``, exist and the process may use two or more CPUs, else none."""
    if hasattr(os, "memfd_create") and hasattr(os, "sched_getaffinity"):
        return min(2, usable_cpus()) - 1
    return 0


class _BlockMatrix:
    """The kept rows of one parse, taken one at a time and converted into
    one matrix in blocks of ``BLOCK_ROWS`` rows, in file order.

    A block is converted by ``_loadtxt_block``, or row by row with
    ``_row_vector`` when that rejects it, which raises the first bad row's
    error. Where a worker may run, one is forked with ``os.fork`` when the
    second full block is cut, and it serves ``_SLOTS`` slots, one memory
    file each: the parent writes a block's rows to the start of a free
    slot's file, sends the job on a pipe and reserves the block's rows in
    the matrix; the worker converts the jobs in order and writes each
    matrix over its rows, and the parent reads it back into its rows. At
    each cut the parent collects the blocks the worker has finished
    without waiting, then hands the new block to the worker if a slot is
    free and otherwise converts it itself, so each side takes as many
    blocks as it can.

    A block the worker rejects, or holds when it dies, is converted by the
    parent, so the fallback and every error stay in the parent. A block the
    parent rebuilds row by row first waits for the worker's earlier blocks,
    and a row error leaves no later block with the worker, so the first bad
    row in file order is the one raised. Blocks keep their rows in file
    order, so the result does not depend on which process converted a
    block. Call ``finish`` at the end of the rows and ``close`` in a
    ``finally``.
    """

    def __init__(self, dim: int):
        self.vectors = np.empty((0, dim))
        self._dim = dim
        self._may_fork = _helper_count() > 0
        self._worker = None  # the worker's pid, from its fork until it is reaped
        self._jobs = self._replies = None  # the parent's ends of the two pipes
        self._poll = None  # tells whether a reply has come; select() takes no fd past 1023
        self._slots: list[BinaryIO] = []  # per slot, the memory file of its rows and matrix
        self._free: list[int] = []  # the slots the parent may write to
        self._held: collections.deque = collections.deque()  # (slot, first row, block) per job
        self._coords: list[bytes] = []  # the block being filled
        self._names: list[tuple[int, str]] = []  # its rows' line numbers and tokens

    def add(self, lineno: int, token: str, coords: bytes) -> None:
        """Take one kept row: its line number, token and coordinate bytes."""
        self._coords.append(coords)
        self._names.append((lineno, token))
        if len(self._coords) == BLOCK_ROWS:
            block = self._cut()
            if self._may_fork and len(self.vectors):
                self._may_fork = False
                self._fork()
            self._collect(wait=False)
            if not (self._free and self._send(block)):
                self._convert(block)

    def finish(self) -> None:
        """Convert the rows of a short last block and collect every block
        the worker holds, so the first bad row in file order is raised."""
        if self._coords:
            self._convert(self._cut())
        self._collect(wait=True)

    def close(self) -> None:
        """End the worker, if one runs, and close the memory files."""
        if self._worker is not None:
            self._stop()
        for fh in self._slots:
            fh.close()
        self._slots = []

    def _cut(self) -> tuple:
        """The rows taken since the last cut, as one block."""
        block = (self._coords, self._names)
        self._coords, self._names = [], []
        return block

    def _convert(self, block: tuple) -> None:
        """Convert ``block`` here and append it after the worker's blocks."""
        matrix = _loadtxt_block(block[0], self._dim)
        if matrix is None:  # an earlier block's bad row is raised first
            self._collect(wait=True)
        self._fill(self._grow(len(block[0])), matrix, block)

    def _send(self, block: tuple) -> bool:
        """Write ``block``'s rows to a free slot, hand it to the worker and
        reserve the block's rows in the matrix; False when the worker has
        died."""
        slot = self._free.pop()
        fh = self._slots[slot]
        coords = block[0]
        fh.seek(0)
        fh.write(coords[0])
        for row in coords[1:]:  # row by row: a joined copy would add to the peak
            fh.write(b"\n")
            fh.write(row)
        fh.flush()
        try:
            os.write(self._jobs, bytes((slot,)) + fh.tell().to_bytes(8, "little"))
        except BrokenPipeError:
            self._stop()
            return False
        self._held.append((slot, len(self.vectors), block))
        self._grow(len(coords))
        return True

    def _collect(self, wait: bool) -> None:
        """Put the blocks the worker has converted into their rows, in file
        order; with ``wait``, every block it holds. A block it rejected, or
        held when it died, is converted here."""
        while self._held:
            reply = self._reply(wait)
            if reply is None:
                return
            slot, start, block = self._held.popleft()
            rows = self.vectors[start : start + len(block[0])]
            done = reply == bytes((slot, 1))
            if done and os.preadv(self._slots[slot].fileno(), [rows], 0) == rows.nbytes:
                stages.count("blocks")
            else:  # rejected, or the worker died
                self._fill(rows, _loadtxt_block(block[0], self._dim), block)
            if self._worker is not None:
                self._free.append(slot)

    def _reply(self, wait: bool) -> bytes | None:
        """The worker's next (slot, done) reply: None when ``wait`` is false
        and none has come, and b"" once the worker has died."""
        if self._worker is None:
            return b""
        if not (wait or self._poll.poll(0)):
            return None
        reply = os.read(self._replies, 2)
        if len(reply) < 2:  # the worker died; the parent converts its blocks
            self._stop()
        return reply

    def _fork(self) -> None:
        """Fork the worker and open its slots. Without a process to spare
        every block is converted here."""
        jobs, self._jobs = os.pipe()
        self._replies, replies = os.pipe()
        slots = tuple(os.memfd_create("embshape-block") for _ in range(_SLOTS))
        try:
            with warnings.catch_warnings():
                # From Python 3.12 fork() warns in a process with other
                # threads, and the OpenBLAS pool counts. This fork is safe:
                # the worker runs only loadtxt, takes no lock another thread
                # may hold, and leaves with os._exit.
                warnings.filterwarnings(
                    "ignore", r"This process .* is multi-threaded", DeprecationWarning
                )
                pid = os.fork()
        except OSError:  # no process to spare
            for fd in (jobs, replies, self._jobs, self._replies, *slots):
                os.close(fd)
            return
        if pid == 0:
            try:
                os.close(self._jobs)  # the fork's copies; open, they hide the parent's close
                os.close(self._replies)
                _helper_main(jobs, replies, slots, self._dim)
            finally:
                # Leave at once, at the end of the jobs, a broken pipe or an
                # interrupt: nothing copied by the fork (atexit handlers,
                # buffered output) may run a second time.
                os._exit(0)
        os.close(jobs)
        os.close(replies)
        self._worker = pid
        self._slots = [open(fd, "wb", buffering=_WRITE_BUFFER) for fd in slots]
        self._free = list(range(_SLOTS))
        self._poll = select.poll()
        self._poll.register(self._replies, select.POLLIN)

    def _stop(self) -> None:
        """End the worker: closing the job pipe ends its loop, at the latest
        once it has converted the blocks it holds."""
        os.close(self._jobs)
        os.close(self._replies)
        with contextlib.suppress(ChildProcessError):  # reaped already: SIGCHLD is ignored
            os.waitpid(self._worker, 0)
        self._worker = None
        self._free = []

    def _fill(self, rows: np.ndarray, matrix: np.ndarray | None, block: tuple) -> None:
        """Write ``block``'s matrix into ``rows``. None rebuilds it row by
        row, which raises the first bad row's error; no block is then left
        with the worker, so no later block's error can take its place."""
        if matrix is None:
            stages.count("row_fallbacks")
            coords, names = block
            try:
                matrix = np.vstack(
                    [_row_vector(n, t, c.decode()) for (n, t), c in zip(names, coords)]
                )
            except EmbeddingFormatError:
                self._held.clear()
                raise
        else:
            stages.count("blocks")
        rows[:] = matrix

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
    source: Union[str, Path, bytes, BinaryIO], max_words: int = DEFAULT_MAX_WORDS
) -> EmbeddingSpace:
    """Parse GloVe/word2vec text from a path, ``bytes`` or a binary stream
    into an EmbeddingSpace. The first non-blank line decides the format
    (see ``detect_format``); the first data row after a header that is not
    text is named as binary word2vec, which is not read.

    Keeps the first ``max_words`` unique tokens in file order. A repeated
    token keeps its first vector and does not consume a slot. The dimension
    D comes from the w2v header when present, otherwise from the first data
    row. Every later row needs at least D fields after its token; any
    fields before its last D belong to the token. One leading byte-order
    mark is ignored.

    The text streams through as bytes; only tokens are decoded. The
    coordinates of kept rows are converted by ``_BlockMatrix``, in blocks
    and partly in a worker process, and the first error in file order is
    raised, whatever kind it is.
    """
    return _parse(source, max_words)[0]


def _parse(
    source: Union[str, Path, bytes, BinaryIO], max_words: int
) -> tuple[EmbeddingSpace, list[list]]:
    """``parse_embeddings``, and the [line, token] of each duplicate token
    it logged, whether or not warnings are on."""
    if max_words < 1:
        raise ValueError("max_words must be positive")

    words: list[str] = []
    seen: set[str] = set()
    duplicates: list[list] = []
    dim: int | None = None
    header = False  # whether the first non-blank line is a 'N D' header
    rows = None  # a _BlockMatrix from the line that gives D on
    try:
        for lineno, raw in enumerate(_byte_lines(source), 1):
            if not raw.isascii():
                try:
                    raw.decode()
                except UnicodeDecodeError as exc:
                    if header and not words and raw.count(b" ") < dim:
                        raise EmbeddingFormatError(_BINARY_W2V % lineno) from None
                    raise EmbeddingFormatError(
                        "line %d: invalid UTF-8 at byte %d of the line (%s)"
                        % (lineno, exc.start + 1, exc.reason)
                    ) from None
            if lineno == 1:
                raw = raw.removeprefix(_BOM)
            line = raw.rstrip(_ASCII_SPACE)
            if line and line[-1] >= 0x80:  # it may end in a non-ASCII space
                line = line.decode().rstrip().encode()
            if not line:
                continue
            if dim is None:
                text = line.decode()
                header = detect_format(text) == W2V_TEXT
                dim = int(text.split()[1]) if header else line.count(b" ")
                if dim == 0:
                    raise EmbeddingFormatError("line %d: no coordinates found" % lineno)
                rows = _BlockMatrix(dim)
                if header:
                    continue
            spaces = line.count(b" ")
            if spaces == dim:
                cut = line.index(b" ")
            elif spaces > dim:
                cut = len(line.rsplit(b" ", dim)[0])
            else:
                if header and not words and b"\0" in raw and raw.count(b" ") < dim:
                    raise EmbeddingFormatError(_BINARY_W2V % lineno)
                raise EmbeddingFormatError(
                    "line %d: expected %d coordinates, found %d"
                    % (lineno, dim, spaces)
                )
            token = line[:cut].decode()
            if token in seen:
                log.warning(_DUPLICATE, lineno, token)
                duplicates.append([lineno, token])
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
    return EmbeddingSpace(words=words, vectors=rows.vectors), duplicates


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


def normalized(space: EmbeddingSpace) -> EmbeddingSpace:
    """Copy of the space with rows scaled to unit length.

    Zero rows are left untouched; they carry no direction to preserve.
    """
    norms = space.row_norms[:, np.newaxis]
    safe = np.where(norms == 0.0, 1.0, norms)
    return EmbeddingSpace(words=list(space.words), vectors=space.vectors / safe)
