"""The parse cache behind ``load_embeddings``.

The cache keeps, per real path and max_words, the words, the raw matrix
and the arrays derived from it (see _derived_shapes) of the last parse of a
file, with the length of the bytes that parse read, the SHA-256 of each
_SEGMENT bytes of them and whether it read to the end of the file. An entry
is served only while those bytes are unchanged: each segment of its first
``length`` bytes hashes the same and, for a parse that read to the end, the
size is the same. The key also holds the parser's identity (see
_parser_identity), so an entry of another version of the parser or of this
module is never served. At most _CACHE_ENTRIES entries of at most
_CACHE_BYTES together are kept; a parse whose entry alone would be larger
writes none.

A hit maps its entry rather than reading the matrix out of the zip. The
entry is still the ``.npz`` of ``np.savez``, with the matrix as a stored
member whose data a fresh entry starts on a _ALIGN-byte boundary of the
file, so the served matrix is a read-only view of the map. The CRC-32 that
zipfile would check is computed on the same pool of threads that hashes
the source segments, and a space is served only after both match.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
import mmap
import os
import stat
import struct
import sys
import tempfile
import time
import zipfile
import zlib
from concurrent.futures import ThreadPoolExecutor
from functools import cache
from pathlib import Path
from typing import Union

import numpy as np

from . import stages
from .embeddings import (
    _DUPLICATE,
    DEFAULT_MAX_WORDS,
    EmbeddingSpace,
    _parse,
    log,
    normalized,
    parse_embeddings,
)
from .parallel import usable_cpus


def load_embeddings(
    path: Union[str, Path],
    max_words: int = DEFAULT_MAX_WORDS,
    normalize: bool = False,
) -> EmbeddingSpace:
    """Parse the file at ``path``; '-' reads stdin. The first non-blank
    line decides the format. With ``normalize`` the rows are scaled to unit
    length (see ``normalized``).

    A regular file goes through the parse cache: a repeat load of bytes
    parsed before reads the words and matrix of that parse from its cache
    entry, replays its duplicate-token warnings and counts a
    ``cache_hits`` in the timed stage. Stdin is never cached.
    """
    if str(path) == "-":
        space = parse_embeddings(sys.stdin.buffer, max_words=max_words)
    else:
        space = _load_file(path, max_words)
    return normalized(space) if normalize else space


_CACHE_ENTRIES = 8
_CACHE_BYTES = 2 << 30
# The source is read, and hashed, in chunks of this size.
_READ_CHUNK = 1 << 20
# Bytes per separately hashed segment of the source, so that a hit can hash
# the segments on every core: a source of a few tens of MB has several.
_SEGMENT = 8 << 20
# What a cache entry that cannot be read raises; each is a miss.
_ENTRY_ERRORS = (OSError, ValueError, KeyError, TypeError, EOFError, zipfile.BadZipFile)
# The entry's matrix member. A hit serves its data as a view of the mapped
# entry when it starts on an _ALIGN-byte boundary of the file, as a fresh
# entry's does, and copies any other out of the map: numpy hands BLAS
# only data aligned for float64, and its own loops round otherwise.
_MATRIX = "vectors.npy"
_ALIGN = 64
# The bytes of a fresh entry before the matrix's .npy header, besides the
# meta JSON and the meta's .npy header: the zip local headers of meta.npy
# and of the matrix, each 30 bytes, the name and the 20-byte zip64 extra
# field numpy forces. Every .npy header is a whole multiple of _ALIGN.
_LOCAL_HEADER = 30
_HEADER_BYTES = 2 * (_LOCAL_HEADER + 20) + len("meta.npy") + len(_MATRIX)


def _derived_shapes(space: EmbeddingSpace) -> dict[str, tuple]:
    """The float64 arrays derived from the matrix that an entry keeps
    beside it, by the name of the space's property, with their shapes: a
    hit sets them on its space, so it computes none of them."""
    n, d = space.vectors.shape
    return {"mean": (d,), "row_norms": (n,), "covariance": (d, d)}


def _cache_dir() -> Path:
    """$XDG_CACHE_HOME/embshape, or ~/.cache/embshape when that is not
    set to an absolute path."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "embshape"


@cache
def _parser_identity() -> str | None:
    """The SHA-256 of the sources of the parser's module and of this one and
    of numpy's version, which together decide what a run of bytes parses to
    and what its entry holds; None when a source cannot be read, and then
    nothing is cached."""
    sources = []
    for path in (sys.modules[_parse.__module__].__file__, __file__):
        try:
            with open(path, "rb") as fh:
                sources.append(fh.read())
        except OSError:
            return None
    sources.append(b"numpy " + np.__version__.encode())
    return hashlib.sha256(b"\0".join(sources)).hexdigest()


class _HashingReader(io.RawIOBase):
    """A raw file that counts the bytes read through it and hashes each
    _SEGMENT of them, and notes whether a read reached the end of the
    file."""

    def __init__(self, raw: io.RawIOBase):
        self._raw = raw
        self._sha = hashlib.sha256()
        self._done: list[str] = []  # the digests of the whole segments read
        self.length = 0
        self.eof = False

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        n = self._raw.readinto(buf)
        if not n:
            self.eof = True
            return n
        view = memoryview(buf)[:n]
        while view:
            part = view[: _SEGMENT - self.length % _SEGMENT]
            self._sha.update(part)
            self.length += len(part)
            view = view[len(part) :]
            if self.length % _SEGMENT == 0:
                self._done.append(self._sha.hexdigest())
                self._sha = hashlib.sha256()
        return n

    def segments(self) -> list[str]:
        """The SHA-256 of each _SEGMENT of the bytes read, in order; the
        last segment may be short."""
        short = [self._sha.hexdigest()] if self.length % _SEGMENT else []
        return self._done + short


def _segment_digest(path: str, start: int, end: int) -> str | None:
    """The SHA-256 of bytes ``start`` to ``end`` of ``path``; None when
    the file ends before ``end``."""
    sha = hashlib.sha256()
    view = memoryview(bytearray(min(end - start, _READ_CHUNK)))
    with open(path, "rb", buffering=0) as raw:
        raw.seek(start)
        while start < end:
            n = raw.readinto(view[: min(end - start, _READ_CHUNK)])
            if not n:
                return None
            sha.update(view[:n])
            start += n
    return sha.hexdigest()


def _load_file(path: Union[str, Path], max_words: int) -> EmbeddingSpace:
    """Serve ``path`` from its cache entry, or parse it and write the entry.
    A path that is not a regular file is parsed as it always was."""
    try:
        info = os.stat(path)
    except OSError:
        info = None
    parser = _parser_identity()
    if info is None or not stat.S_ISREG(info.st_mode) or parser is None:
        return parse_embeddings(path, max_words=max_words)
    key = {
        "parser": parser,
        "source": os.path.realpath(path),
        "max_words": max_words,
    }
    name = hashlib.sha256(json.dumps(key).encode()).hexdigest()[:32]
    entry = _cache_dir() / (name + ".npz")
    space = _read_entry(entry, key, info.st_size)
    if space is not None:
        stages.count("cache_hits")
        return space
    with open(path, "rb", buffering=0) as raw:
        reader = _HashingReader(raw)
        with io.BufferedReader(reader, _READ_CHUNK) as fh:
            space, duplicates = _parse(fh, max_words)
    meta = dict(
        key,
        length=reader.length,
        segments=reader.segments(),
        eof=reader.eof,
        duplicates=duplicates,
    )
    _write_entry(entry, meta, space)
    return space


def _read_entry(entry: Path, key: dict, size: int) -> EmbeddingSpace | None:
    """The space of ``entry``, with the derived arrays the entry keeps set
    on it, when it was written for ``key`` and the source bytes it was
    parsed from are unchanged, after replaying the parse's duplicate
    warnings; None in any other case, among them a derived array that is
    missing or of another dtype or shape, and a matrix member whose CRC-32
    is not the one the zip records.

    The entry is mapped. One pool of threads, one per usable CPU and no more
    than there are tasks, computes the matrix member's CRC-32 first and then
    hashes the segments of the source, while this thread reads the rest of
    the entry: all of them release the GIL. A matrix whose data is aligned
    is served as a view of the map, any other as a copy of the mapped bytes.
    """
    try:
        # np.load leaves a file it opened open when the zip is corrupt
        with open(entry, "rb") as fh, np.load(fh, allow_pickle=False) as npz:
            meta = json.loads(npz["meta"].tobytes())
            if {k: meta[k] for k in key} != key or meta["eof"] and meta["length"] != size:
                return None
            starts = range(0, meta["length"], _SEGMENT)
            if len(starts) != len(meta["segments"]):
                return None
            ends = [*starts[1:], meta["length"]]
            words = npz["words"].tobytes().decode().split("\n")
            info = npz.zip.getinfo(_MATRIX)
            located = _locate_matrix(fh, info, len(words))
            if located is None:
                return None
            member, data, shape = located
            mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            with ThreadPoolExecutor(min(usable_cpus(), len(starts) + 1)) as pool:
                crc = pool.submit(
                    zlib.crc32, memoryview(mapped)[member : member + info.file_size]
                )
                digests = pool.map(
                    _segment_digest, itertools.repeat(key["source"]), starts, ends
                )
                vectors = np.frombuffer(mapped, np.float64, math.prod(shape), data)
                vectors = vectors.reshape(shape)
                if data % _ALIGN:
                    vectors = vectors.copy()
                space = EmbeddingSpace(words=words, vectors=vectors)
                for name, shape in _derived_shapes(space).items():
                    array = npz[name]
                    if array.dtype != np.float64 or array.shape != shape:
                        return None
                    array.setflags(write=False)
                    setattr(space, name, array)
                if crc.result() != info.CRC or list(digests) != meta["segments"]:
                    return None
    except _ENTRY_ERRORS:
        return None
    try:
        _touch(entry)
    except OSError:
        pass
    for lineno, token in meta["duplicates"]:
        log.warning(_DUPLICATE, lineno, token)
    return space


def _locate_matrix(fh, info: zipfile.ZipInfo, rows: int) -> tuple | None:
    """Where the matrix member ``info`` starts in the entry ``fh``, where
    its data starts and its shape, when the member is stored uncompressed
    and holds a C-order float64 array of ``rows`` rows and nothing else;
    None otherwise."""
    if info.compress_type != zipfile.ZIP_STORED or info.compress_size != info.file_size:
        return None
    fh.seek(info.header_offset)
    local = fh.read(_LOCAL_HEADER)
    if len(local) != _LOCAL_HEADER or local[:4] != b"PK\x03\x04":
        return None
    member = info.header_offset + _LOCAL_HEADER + sum(struct.unpack("<HH", local[26:]))
    fh.seek(member)
    if np.lib.format.read_magic(fh) != (1, 0):
        return None
    shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
    data = fh.tell()
    if (
        fortran_order
        or dtype != np.float64
        or len(shape) != 2
        or shape[0] != rows
        or info.file_size != data - member + 8 * math.prod(shape)
    ):
        return None
    return member, data, shape


def _touch(entry: Path) -> None:
    """Mark ``entry`` as used now. Entries are ordered by last use through
    their mtime, set from the clock: a file system stamps coarser."""
    now = time.time_ns()
    os.utime(entry, ns=(now, now))


def _write_entry(entry: Path, meta: dict, space: EmbeddingSpace) -> None:
    """Write ``entry`` to a temp file beside it and move it into place,
    then prune the cache. The entry holds the derived arrays, which the
    space computes here and keeps. An entry larger than the whole cache is
    not written, nor are its derived arrays computed, and an older one of
    its key is deleted. A cache that cannot be written is left as it is."""
    words = "\n".join(space.words).encode()
    # the meta is padded with spaces, which JSON ignores, so that the
    # matrix's data, the member after it, starts on an _ALIGN-byte boundary
    meta = json.dumps(meta).encode()
    meta += b" " * (-(_HEADER_BYTES + len(meta)) % _ALIGN)
    derived = _derived_shapes(space)
    cells = space.vectors.size + sum(math.prod(shape) for shape in derived.values())
    try:
        if len(words) + 8 * cells > _CACHE_BYTES:
            entry.unlink(missing_ok=True)
            return
        entry.parent.mkdir(parents=True, exist_ok=True)
        # the writer's pid in the name lets a later prune find a killed writer's temp
        fd, temp = tempfile.mkstemp(
            prefix=".%d." % os.getpid(), suffix=".tmp", dir=entry.parent
        )
        try:
            with open(fd, "wb") as fh:
                np.savez(
                    fh,
                    meta=np.frombuffer(meta, np.uint8),
                    vectors=space.vectors,
                    words=np.frombuffer(words, np.uint8),
                    **{name: getattr(space, name) for name in derived},
                )
            _touch(temp)
            os.replace(temp, entry)
        except BaseException:
            os.unlink(temp)
            raise
        _prune(entry)
    except OSError:
        pass


def _prune(entry: Path) -> None:
    """Delete the temp files of writers that no longer run, and the entries
    whose source file is gone, or that cannot be read; then, from the one
    used last, keep others while there are fewer than _CACHE_ENTRIES and
    they fit in _CACHE_BYTES with ``entry``, and delete the rest."""
    for temp in entry.parent.glob(".*.tmp"):
        if _writer_gone(temp.name):
            temp.unlink(missing_ok=True)
    kept = []
    for other in entry.parent.glob("*.npz"):
        if other == entry:
            continue
        try:
            with open(other, "rb") as fh, np.load(fh, allow_pickle=False) as npz:
                source = json.loads(npz["meta"].tobytes())["source"]
            if os.path.exists(source):
                info = other.stat()
                kept.append((info.st_mtime_ns, info.st_size, other))
                continue
        except _ENTRY_ERRORS:
            pass
        other.unlink(missing_ok=True)
    kept.sort(reverse=True)
    count, total = 1, entry.stat().st_size
    for _, size, other in kept:
        count, total = count + 1, total + size
        if count > _CACHE_ENTRIES or total > _CACHE_BYTES:
            other.unlink(missing_ok=True)


def _writer_gone(temp: str) -> bool:
    """Whether the temp file named ``temp`` was left by a writer that no
    longer runs, as when it was killed before it moved the temp into place.
    A name without a pid, or with the pid of a process that runs, is kept."""
    pid = temp.split(".")[1]
    if os.name != "posix" or not pid.isdigit():  # elsewhere signal 0 is not a probe
        return False
    try:
        os.kill(int(pid), 0)
    except ProcessLookupError:
        return True
    except (OSError, OverflowError):  # it runs as another user, or no pid is that large
        pass
    return False
