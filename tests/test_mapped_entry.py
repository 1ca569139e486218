"""How a parse-cache hit reads its entry's matrix: a fresh entry's matrix
data starts on a 64-byte boundary and a hit serves a read-only view of the
mapped entry; an entry whose matrix lies elsewhere is served through a
copy; and a matrix member whose CRC-32, layout or size is not what the zip
and its .npy header say is a miss."""

import io
import json
import mmap
import zipfile

import numpy as np
import pytest

from embshape import EmbeddingSpace, generate_simplex_cloud, write_glove_text
from embshape import cache as parse_cache
from embshape.stages import StageTimer


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """A cold cache of this test; the directory its entries go to."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache-home"))
    return tmp_path / "cache-home" / "embshape"


@pytest.fixture(scope="module")
def cloud():
    return generate_simplex_cloud(
        dim=24, num_vertices=6, num_points=3000, alpha=1.5, sigma=0.01, seed=3
    )


@pytest.fixture
def path(tmp_path, cloud):
    path = tmp_path / "cloud.txt"
    write_glove_text(cloud.space, path)
    return path


def load(path):
    """The loaded space and whether the load was a cache hit."""
    timer = StageTimer()
    with timer.stage("parse"):
        space = parse_cache.load_embeddings(path)
    return space, timer.stages["parse"]["cache_hits"]


def the_entry(cache):
    (entry,) = cache.glob("*.npz")
    return entry


def matrix_data_offset(entry) -> int:
    """Where the matrix's data starts in ``entry``, by zipfile and numpy."""
    with open(entry, "rb") as fh, zipfile.ZipFile(fh) as zf:
        with zf.open("vectors.npy") as member:
            version = np.lib.format.read_magic(member)
            assert version == (1, 0)
            np.lib.format.read_array_header_1_0(member)
            header = member.tell()
        local = zf.getinfo("vectors.npy").header_offset
    with open(entry, "rb") as fh:
        fh.seek(local + 26)
        names = int.from_bytes(fh.read(2), "little") + int.from_bytes(fh.read(2), "little")
    return local + 30 + names + header


def mapped(array) -> bool:
    """Whether ``array`` is a view of a mapped file."""
    while array.base is not None and not isinstance(array.base, memoryview):
        array = array.base
    return isinstance(array.base, memoryview) and isinstance(array.base.obj, mmap.mmap)


def arrays_of(entry) -> dict:
    with np.load(entry, allow_pickle=False) as npz:
        return {name: npz[name] for name in npz.files}


def test_a_fresh_entry_aligns_its_matrix_and_a_hit_serves_a_read_only_view(path, cache):
    first, _ = load(path)
    entry = the_entry(cache)
    data = matrix_data_offset(entry)
    assert data % 64 == 0
    second, hit = load(path)
    assert hit == 1
    assert mapped(second.vectors)
    assert not second.vectors.flags.writeable
    assert second.vectors.ctypes.data % 64 == 0
    assert second.vectors.tobytes() == first.vectors.tobytes()
    with pytest.raises(ValueError):
        second.vectors[0, 0] = 1.0
    # the meta JSON carries the padding, and still reads as it was
    meta = json.loads(arrays_of(entry)["meta"].tobytes())
    assert meta["source"] and meta["segments"]


@pytest.mark.parametrize("rows", [1, 2, 3, 7, 50, 333])
def test_the_matrix_is_aligned_at_any_size(tmp_path, cache, rows):
    rng = np.random.default_rng(rows)
    space = EmbeddingSpace(["w%d" % i for i in range(rows)], rng.standard_normal((rows, 5)))
    path = tmp_path / "small.txt"
    write_glove_text(space, path)
    load(path)
    assert matrix_data_offset(the_entry(cache)) % 64 == 0
    served, hit = load(path)
    assert hit == 1 and mapped(served.vectors)


def test_an_entry_rewritten_by_plain_savez_is_served_through_a_copy(path, cache):
    first, _ = load(path)
    entry = the_entry(cache)
    arrays = arrays_of(entry)
    with open(entry, "wb") as fh:  # a first member of 1 byte shifts the rest
        np.savez(fh, pad=np.zeros(1, np.uint8), **arrays)
    assert matrix_data_offset(entry) % 8 != 0
    second, hit = load(path)
    assert hit == 1
    assert not mapped(second.vectors)
    assert second.vectors.flags.aligned
    assert not second.vectors.flags.writeable
    assert second.vectors.tobytes() == first.vectors.tobytes()
    for name in ("mean", "row_norms", "covariance"):
        assert getattr(second, name).tobytes() == getattr(first, name).tobytes()


@pytest.mark.parametrize("aligned", [True, False])
def test_a_flipped_bit_in_the_last_row_is_a_miss(path, cache, aligned):
    first, _ = load(path)
    entry = the_entry(cache)
    if not aligned:
        arrays = arrays_of(entry)
        with open(entry, "wb") as fh:
            np.savez(fh, pad=np.zeros(1, np.uint8), **arrays)
    data = bytearray(entry.read_bytes())
    last = matrix_data_offset(entry) + first.vectors.nbytes - 1
    assert data[last - 7 : last + 1] == first.vectors[-1, -1:].tobytes()
    data[last] ^= 0x10
    entry.write_bytes(bytes(data))
    second, hit = load(path)
    assert hit == 0 and second.vectors.tobytes() == first.vectors.tobytes()
    assert load(path)[1] == 1  # the miss rewrote the entry


def rewrite_matrix_member(entry, payload: bytes, compress=zipfile.ZIP_STORED) -> None:
    """Rewrite ``entry`` with ``payload`` as its matrix member, whose CRC-32
    zipfile computes, and every other member as it was."""
    arrays = arrays_of(entry)
    with open(entry, "wb") as fh, zipfile.ZipFile(fh, "w", compress) as zf:
        for name, array in arrays.items():
            with zf.open(name + ".npy", "w", force_zip64=True) as member:
                if name == "vectors":
                    member.write(payload)
                else:
                    np.lib.format.write_array(member, array)


def npy(array) -> bytes:
    """``array`` as the bytes of a .npy file."""
    buf = io.BytesIO()
    np.lib.format.write_array(buf, array)
    return buf.getvalue()


@pytest.mark.parametrize("damage", ["short", "long", "float32", "fortran", "rows", "deflated"])
def test_a_matrix_member_unlike_its_header_or_stored_otherwise_is_a_miss(
    path, cache, damage
):
    first, _ = load(path)
    entry = the_entry(cache)
    vectors = first.vectors
    payload, compress = npy(vectors), zipfile.ZIP_STORED
    if damage == "short":
        payload = payload[:-8]
    elif damage == "long":
        payload += bytes(8)
    elif damage == "float32":
        payload = npy(vectors.astype(np.float32))
    elif damage == "fortran":
        payload = npy(np.asfortranarray(vectors))
    elif damage == "rows":
        payload = npy(vectors[:-1])
    else:
        compress = zipfile.ZIP_DEFLATED
    rewrite_matrix_member(entry, payload, compress)
    second, hit = load(path)
    assert hit == 0 and second.vectors.tobytes() == vectors.tobytes()
    assert load(path)[1] == 1


def test_the_crc_is_checked_first_on_the_pool_that_hashes_the_segments(
    path, cache, monkeypatch
):
    load(path)
    monkeypatch.setattr(parse_cache, "_SEGMENT", 4096)
    load(path)  # a miss: the segment size is part of the entry's facts
    assert path.stat().st_size > 3 * 4096
    pools = []

    class Recorded(parse_cache.ThreadPoolExecutor):
        def __init__(self, workers):
            super().__init__(workers)
            pools.append((workers, []))

        def submit(self, fn, *args, **kwargs):
            pools[-1][1].append(fn)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(parse_cache, "ThreadPoolExecutor", Recorded)
    _, hit = load(path)
    assert hit == 1
    ((workers, calls),) = pools
    segments = -(-path.stat().st_size // 4096)
    assert workers == min(parse_cache.usable_cpus(), segments + 1)
    assert calls == [parse_cache.zlib.crc32] + [parse_cache._segment_digest] * segments
