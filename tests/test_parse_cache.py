"""The parse cache behind ``load_embeddings``: when an entry is served,
when it is not, and that a hit gives what a parse gives."""

import gzip
import io
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from embshape import EmbeddingSpace, generate_simplex_cloud, normalized
from embshape import embeddings
from embshape.cli import main
from embshape.stages import StageTimer
from helpers import format_glove_text


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """A cold cache of this test; the directory its entries go to."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache-home"))
    return tmp_path / "cache-home" / "embshape"


def entries(cache):
    return sorted(cache.glob("*.npz")) if cache.exists() else []


def load(path, **kwargs):
    """The loaded space and whether the load was a cache hit."""
    timer = StageTimer()
    with timer.stage("parse"):
        space = embeddings.load_embeddings(path, **kwargs)
    return space, timer.stages["parse"]["cache_hits"]


def glove(rows: int, dim: int = 4, seed: int = 0) -> str:
    rng = np.random.default_rng(seed)
    words = ["w%d" % i for i in range(rows)]
    return format_glove_text(EmbeddingSpace(words, rng.standard_normal((rows, dim))))


def same_space(a, b):
    return a.words == b.words and a.vectors.tobytes() == b.vectors.tobytes()


def test_a_repeat_load_is_served_from_the_entry(tmp_path, cache):
    path = tmp_path / "e.txt"
    path.write_text(glove(50))
    first, first_hit = load(path)
    second, second_hit = load(path)
    assert (first_hit, second_hit) == (0, 1)
    assert same_space(first, second)
    assert not second.vectors.flags.writeable
    assert len(entries(cache)) == 1


def test_an_entry_is_plain_arrays_with_the_facts_of_the_bytes_read(tmp_path, cache):
    path = tmp_path / "e.txt"
    path.write_bytes(glove(20).encode())
    space, _ = load(path, max_words=30)
    (entry,) = entries(cache)
    with np.load(entry, allow_pickle=False) as npz:
        meta = json.loads(npz["meta"].tobytes())
        assert npz["vectors"].tobytes() == space.vectors.tobytes()
    assert meta["source"] == os.path.realpath(path)
    assert meta["max_words"] == 30 and "fmt" not in meta
    assert meta["length"] == path.stat().st_size and meta["eof"]


def test_a_rewrite_with_the_same_size_and_mtime_is_a_miss(tmp_path, cache):
    path = tmp_path / "e.txt"
    old = glove(40, seed=1)
    path.write_text(old)
    load(path)
    stamp = path.stat().st_mtime_ns
    new = old.replace("w7 ", "x7 ", 1)
    assert len(new) == len(old)
    path.write_text(new)
    os.utime(path, ns=(stamp, stamp))
    assert path.stat().st_mtime_ns == stamp
    space, hit = load(path)
    assert hit == 0
    assert same_space(space, embeddings.parse_embeddings(new.encode()))
    assert space.words[7] == "x7"


def test_rows_appended_after_a_parse_to_the_end_are_a_miss(tmp_path, cache):
    path = tmp_path / "e.txt"
    text = glove(60)
    path.write_text(text[: text.index("w40 ")])
    load(path)
    path.write_text(text)
    space, hit = load(path)
    assert hit == 0 and len(space) == 60


def test_rows_appended_after_a_parse_that_stopped_at_max_words_are_a_hit(tmp_path, cache):
    path = tmp_path / "e.txt"
    text = glove(60)
    path.write_text(text[: text.index("w40 ")])
    first, _ = load(path, max_words=30)
    path.write_text(text)
    second, hit = load(path, max_words=30)
    assert hit == 1 and same_space(first, second) and len(second) == 30
    # a longer read of the grown file is its own entry
    third, hit = load(path, max_words=50)
    assert hit == 0 and len(third) == 50


def test_each_max_words_has_its_own_entry(tmp_path, cache):
    path = tmp_path / "e.txt"
    path.write_text(glove(30))
    for kwargs in ({}, {"max_words": 10}):
        assert load(path, **kwargs)[1] == 0
    assert len(entries(cache)) == 2
    assert load(path, max_words=10)[1] == 1


def test_a_source_cut_below_the_bytes_read_is_a_miss(tmp_path, cache):
    path = tmp_path / "e.txt"
    text = glove(60)
    path.write_text(text)
    load(path, max_words=30)
    (entry,) = entries(cache)
    with np.load(entry, allow_pickle=False) as npz:
        meta = json.loads(npz["meta"].tobytes())
    assert not meta["eof"]  # so the size alone does not tell the cut
    short = text[: text.index("w20 ")]
    path.write_text(short)
    assert path.stat().st_size < meta["length"]
    space, hit = load(path, max_words=30)
    assert hit == 0 and len(space) == 20
    assert same_space(space, embeddings.parse_embeddings(short.encode()))


@pytest.mark.parametrize("damage", ["truncate", "garbage", "empty"])
def test_a_damaged_entry_is_a_miss_and_is_rewritten(tmp_path, cache, damage):
    path = tmp_path / "e.txt"
    path.write_text(glove(50))
    expected, _ = load(path)
    (entry,) = entries(cache)
    data = entry.read_bytes()
    entry.write_bytes(
        {"truncate": data[: len(data) // 2], "garbage": b"\x93NUMPY" * 50, "empty": b""}[damage]
    )
    space, hit = load(path)
    assert hit == 0 and same_space(space, expected)
    assert entry.stat().st_size == len(data)
    assert load(path)[1] == 1


def test_a_changed_matrix_in_an_entry_is_a_miss(tmp_path, cache):
    path = tmp_path / "e.txt"
    path.write_text(glove(50))
    expected, _ = load(path)
    (entry,) = entries(cache)
    data = bytearray(entry.read_bytes())
    at = data.index(expected.vectors.tobytes()[:64])
    data[at] ^= 1  # the zip member's CRC no longer matches
    entry.write_bytes(bytes(data))
    space, hit = load(path)
    assert hit == 0 and same_space(space, expected)


def test_a_cache_that_cannot_be_written_changes_nothing(tmp_path, cache, monkeypatch, capsysbinary):
    path = tmp_path / "e.txt"
    path.write_text(glove(50))
    expected = embeddings.parse_embeddings(path)
    cache.mkdir(parents=True)
    cache.chmod(0o555)
    # root writes through the mode bits: fail the write as the mode would
    def read_only(*args, **kwargs):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(embeddings.tempfile, "mkstemp", read_only)
    try:
        space, hit = load(path)
        assert hit == 0 and same_space(space, expected)
        argv = ["project", str(path), "--words", "w0", "w1", "w2"]
        assert main(argv) == 0
        assert capsysbinary.readouterr().out.startswith(b"token,x,y")
        assert entries(cache) == []
    finally:
        cache.chmod(0o755)


def test_a_hit_whose_use_cannot_be_recorded_is_still_served(tmp_path, cache, monkeypatch):
    path = tmp_path / "e.txt"
    path.write_text(glove(50))
    expected, _ = load(path)
    (entry,) = entries(cache)
    used = entry.stat().st_mtime_ns

    def read_only(_):
        raise PermissionError(1, "Operation not permitted")

    monkeypatch.setattr(embeddings, "_touch", read_only)
    space, hit = load(path)
    assert hit == 1 and same_space(space, expected)
    assert entries(cache) == [entry] and entry.stat().st_mtime_ns == used


@pytest.mark.parametrize("error", [OSError(28, "No space left on device"), KeyboardInterrupt()])
def test_an_entry_that_fails_to_land_leaves_no_temp_file(tmp_path, cache, monkeypatch, error):
    path = tmp_path / "e.txt"
    path.write_text(glove(50))

    def fails(_):  # the last step before the temp file is moved into place
        raise error

    monkeypatch.setattr(embeddings, "_touch", fails)
    if isinstance(error, OSError):  # a cache that cannot be written is a miss
        space, hit = load(path)
        assert hit == 0 and same_space(space, embeddings.parse_embeddings(path))
    else:
        with pytest.raises(KeyboardInterrupt):
            load(path)
    assert list(cache.iterdir()) == []


def test_a_killed_writers_temp_file_goes_when_another_entry_is_written(tmp_path, cache):
    first = tmp_path / "e.txt"
    first.write_text(glove(20))
    # a writer killed inside the write, before its temp is moved into place
    killed = (
        "import os, sys\n"
        "from embshape import embeddings\n"
        "embeddings.np.savez = lambda *args, **kwargs: os._exit(0)\n"
        "embeddings.load_embeddings(sys.argv[1])\n"
        "os._exit(1)\n"
    )
    child = subprocess.Popen([sys.executable, "-c", killed, str(first)])
    assert child.wait() == 0  # reaped: no process has its pid now
    (dead,) = cache.glob(".%d.*.tmp" % child.pid)
    kept = [
        cache / (".%d.x.tmp" % os.getpid()),  # a write of this process in flight
        cache / ".wgo3csz8.tmp",  # no pid to tell whether its writer runs
        cache / (".%d.x.tmp" % 10**20),  # no process has so large a pid
    ]
    for temp in kept:
        temp.write_bytes(b"")
    second = tmp_path / "f.txt"
    second.write_text(glove(20, seed=1))
    load(second)
    assert not dead.exists()
    assert all(temp.exists() for temp in kept)
    assert len(entries(cache)) == 1


@pytest.mark.parametrize("kind", ["garbage", "dangling_link"])
def test_an_entry_that_cannot_be_read_goes_when_another_is_written(tmp_path, cache, kind):
    first = tmp_path / "e.txt"
    first.write_text(glove(20))
    load(first)
    bad = cache / "bad.npz"
    if kind == "garbage":  # np.load raises
        bad.write_bytes(b"PK\x03\x04 not a zip")
    else:  # open raises an OSError
        bad.symlink_to(tmp_path / "gone.npz")
    second = tmp_path / "f.txt"
    second.write_text(glove(20, seed=1))
    load(second)
    assert not bad.is_symlink() and not bad.exists()
    assert len(entries(cache)) == 2
    assert load(first)[1] == load(second)[1] == 1


def test_a_cache_home_that_is_a_file_changes_nothing(tmp_path, monkeypatch):
    home = tmp_path / "not-a-dir"
    home.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    path = tmp_path / "e.txt"
    path.write_text(glove(20))
    assert same_space(load(path)[0], embeddings.parse_embeddings(path))


def test_a_relative_cache_home_is_not_used(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    monkeypatch.setenv("XDG_CACHE_HOME", "relative-cache")
    path = tmp_path / "e.txt"
    path.write_text(glove(20))
    load(path)
    assert len(entries(tmp_path / "home" / ".cache" / "embshape")) == 1
    assert not (tmp_path / "relative-cache").exists()


def test_stdin_writes_no_entry(cache, monkeypatch):
    data = glove(30).encode()
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
    space, hit = load("-")
    assert hit == 0 and same_space(space, embeddings.parse_embeddings(data))
    assert not cache.exists()


def test_a_gzip_copy_is_served_on_its_second_load(tmp_path, cache):
    path = tmp_path / "e.txt.gz"
    path.write_bytes(gzip.compress(glove(80).encode()))
    first, first_hit = load(path)
    second, second_hit = load(path)
    assert (first_hit, second_hit) == (0, 1)
    assert same_space(first, second)
    (entry,) = entries(cache)
    with np.load(entry, allow_pickle=False) as npz:
        meta = json.loads(npz["meta"].tobytes())
    assert meta["length"] == path.stat().st_size  # the compressed bytes


def test_a_hit_is_normalized_after_it_is_built(tmp_path, cache):
    path = tmp_path / "e.txt"
    path.write_text(glove(40))
    plain, _ = load(path)
    unit, hit = load(path, normalize=True)
    assert hit == 1
    assert unit.vectors.tobytes() == normalized(plain).vectors.tobytes()


def test_entries_of_gone_sources_go_and_at_most_eight_are_kept(tmp_path, cache):
    paths = [tmp_path / ("e%d.txt" % i) for i in range(10)]
    for i, path in enumerate(paths):
        path.write_text(glove(10, seed=i))
    load(paths[0])
    paths[0].unlink()
    load(paths[1])
    assert len(entries(cache)) == 1  # the entry of e0 went with its source
    for path in paths[2:]:
        load(path)
    assert len(entries(cache)) == 8
    # e1 was used least recently, so it went; a hit counts as a use
    assert load(paths[2])[1] == 1
    assert load(paths[1])[1] == 0
    assert load(paths[3])[1] == 0
    assert load(paths[2])[1] == 1


def test_the_entries_kept_fit_in_the_byte_cap(tmp_path, cache, monkeypatch):
    paths = [tmp_path / ("e%d.txt" % i) for i in range(4)]
    for i, path in enumerate(paths):
        path.write_text(glove(10, seed=i))
    load(paths[0])
    (entry,) = entries(cache)
    monkeypatch.setattr(embeddings, "_CACHE_BYTES", int(entry.stat().st_size * 2.5))
    for path in paths[1:]:
        load(path)
    assert len(entries(cache)) == 2  # the two used last
    assert [load(path)[1] for path in paths[2:]] == [1, 1]
    assert load(paths[1])[1] == 0


def test_an_entry_larger_than_the_cache_is_not_written(tmp_path, cache, monkeypatch):
    path = tmp_path / "e.txt"
    path.write_text(glove(10))
    load(path)
    path.write_text(glove(40))
    monkeypatch.setattr(embeddings, "_CACHE_BYTES", 40 * 4 * 8)
    first, first_hit = load(path)
    second, second_hit = load(path)
    assert (first_hit, second_hit) == (0, 0)
    assert same_space(first, second) and len(first) == 40
    assert entries(cache) == []  # the stale entry of the key went too


def test_an_entry_of_another_parser_is_a_miss(tmp_path, cache, monkeypatch):
    path = tmp_path / "e.txt"
    path.write_text(glove(20))
    load(path)
    monkeypatch.setattr(embeddings, "_parser_identity", lambda: "another parser")
    assert [load(path)[1] for _ in range(2)] == [0, 1]
    assert len(entries(cache)) == 2


def test_the_parser_identity_follows_the_module_source(tmp_path, monkeypatch):
    identity = embeddings._parser_identity.__wrapped__
    copy = tmp_path / "embeddings.py"
    copy.write_bytes(Path(embeddings.__file__).read_bytes())
    monkeypatch.setattr(embeddings, "__file__", str(copy))
    assert identity() == embeddings._parser_identity()
    copy.write_bytes(copy.read_bytes() + b"\n")
    assert identity() != embeddings._parser_identity()
    copy.unlink()
    assert identity() is None


def test_nothing_is_cached_when_the_parser_source_cannot_be_read(tmp_path, cache, monkeypatch):
    monkeypatch.setattr(embeddings, "_parser_identity", lambda: None)
    path = tmp_path / "e.txt"
    path.write_text(glove(20))
    assert [load(path)[1] for _ in range(2)] == [0, 0]
    assert entries(cache) == []


def duplicated_text():
    text = glove(30)
    lines = text.splitlines(keepends=True)
    return "".join(lines[:10] + [lines[3]] + lines[10:20] + [lines[15]] + lines[20:])


def test_a_hit_logs_the_duplicate_warnings_of_the_parse(tmp_path, cache, caplog):
    path = tmp_path / "e.txt"
    path.write_text(duplicated_text())
    logged = []
    for _ in range(2):
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            space, hit = load(path)
        logged.append((hit, [(r.levelname, r.getMessage()) for r in caplog.records]))
    assert logged[0][1] == logged[1][1]
    assert [hit for hit, _ in logged] == [0, 1]
    assert logged[0][1] == [
        ("WARNING", "line 11: duplicate token 'w3', keeping first occurrence"),
        ("WARNING", "line 22: duplicate token 'w15', keeping first occurrence"),
    ]


def test_an_entry_parsed_with_warnings_off_replays_them_on_a_hit(tmp_path, cache, caplog):
    path = tmp_path / "e.txt"
    path.write_text(duplicated_text())
    log = logging.getLogger("embshape.embeddings")
    level = log.level
    log.setLevel(logging.ERROR)
    try:
        assert load(path)[1] == 0
    finally:
        log.setLevel(level)
    with caplog.at_level(logging.WARNING):
        assert load(path)[1] == 1
    assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
        ("WARNING", "line 11: duplicate token 'w3', keeping first occurrence"),
        ("WARNING", "line 22: duplicate token 'w15', keeping first occurrence"),
    ]


@pytest.fixture(scope="module")
def cloud_text():
    cloud = generate_simplex_cloud(dim=8, num_vertices=5, num_points=600, alpha=1.5, sigma=0.0, seed=3)
    lines = format_glove_text(cloud.space).splitlines(keepends=True)
    # a duplicate row, so each command warns
    corners = [cloud.space.words[i] for i in cloud.true_vertices]
    return "".join(lines[:100] + [lines[40]] + lines[100:]), corners


@pytest.mark.parametrize(
    "command",
    [
        ["analyze", "--triple-samples", "10"],
        ["analyze", "--triple-samples", "10", "--format", "text", "--normalize"],
        ["project", "--words", "{0}", "{1}", "{2}"],
        ["project", "--words", "{0}", "{1}", "{2}", "--format", "svg"],
        ["stats", "--words", "{0},{1},{2},{3}", "--triple-samples", "10"],
    ],
)
def test_a_command_writes_the_same_bytes_and_warnings_on_a_miss_and_a_hit(
    tmp_path, cache, caplog, cloud_text, command
):
    text, corners = cloud_text
    path = tmp_path / "cloud.txt"
    path.write_text(text)
    argv = [command[0], str(path)] + [arg.format(*corners) for arg in command[1:]]
    outputs, logged, inodes = [], [], []
    for run in range(2):
        out = tmp_path / ("out%d" % run)
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            assert main(argv + ["-o", str(out)]) == 0
        outputs.append(out.read_bytes())
        logged.append([r.getMessage() for r in caplog.records])
        (entry,) = entries(cache)
        inodes.append(entry.stat().st_ino)
    assert inodes[0] == inodes[1]  # a miss would have replaced the entry
    assert outputs[0] == outputs[1]
    assert logged[0] == logged[1]
    assert "line 101: duplicate token" in logged[0][0]


def test_timings_count_the_hit_and_no_parse_blocks(tmp_path, cache, cloud_text):
    path = tmp_path / "cloud.txt"
    path.write_text(cloud_text[0])
    parses = []
    for run in range(2):
        timings = tmp_path / ("t%d.json" % run)
        argv = ["analyze", str(path), "--triple-samples", "5", "-o", str(tmp_path / "r")]
        assert main(argv + ["--timings", str(timings)]) == 0
        parses.append(json.loads(timings.read_text())["stages"]["parse"])
    assert (parses[0]["cache_hits"], parses[1]["cache_hits"]) == (0, 1)
    assert parses[0]["blocks"] > 0
    assert (parses[1]["blocks"], parses[1]["row_fallbacks"]) == (0, 0)


@pytest.fixture
def segment(monkeypatch):
    """Segments of 64 bytes, so a small file has many; their size."""
    monkeypatch.setattr(embeddings, "_SEGMENT", 64)
    return 64


def read_meta(cache):
    (entry,) = entries(cache)
    with np.load(entry, allow_pickle=False) as npz:
        return json.loads(npz["meta"].tobytes())


@pytest.mark.parametrize("pad", ["none", "to_a_whole_segment"])
def test_an_unchanged_file_of_many_segments_is_a_hit(tmp_path, cache, segment, pad):
    text = glove(30)
    if pad == "to_a_whole_segment":
        text += "\n" * (-len(text) % segment)  # blank lines parse to nothing
    path = tmp_path / "e.txt"
    path.write_text(text)
    first, _ = load(path)
    meta = read_meta(cache)
    assert (len(text) % segment == 0) == (pad != "none")
    assert len(meta["segments"]) == -(-len(text) // segment) > 2
    second, hit = load(path)
    assert hit == 1 and same_space(first, second)


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_a_same_size_edit_in_any_segment_is_a_miss(tmp_path, cache, segment, where):
    text = glove(30)
    path = tmp_path / "e.txt"
    path.write_text(text)
    load(path)
    count = len(read_meta(cache)["segments"])
    index = {"first": 0, "middle": count // 2, "last": count - 1}[where]
    at = next(  # the first digit of the segment's bytes, made another digit
        i for i in range(index * segment, len(text)) if text[i] in "123456789"
    )
    assert at // segment == index
    new = text[:at] + str(int(text[at]) % 9 + 1) + text[at + 1 :]
    path.write_text(new)
    space, hit = load(path)
    assert hit == 0 and same_space(space, embeddings.parse_embeddings(new.encode()))


@pytest.mark.parametrize("cut", ["inside_a_segment", "at_a_segment_end"])
def test_a_source_cut_short_of_a_segment_is_a_miss(tmp_path, cache, segment, cut):
    text = glove(60)
    path = tmp_path / "e.txt"
    path.write_text(text)
    load(path, max_words=30)
    meta = read_meta(cache)
    assert not meta["eof"] and meta["length"] == len(text)  # the size tells nothing
    end = len(text) - len(text) % segment - segment
    short = text[: end + (segment // 2 if cut == "inside_a_segment" else 0)]
    path.write_text(short)
    space, hit = load(path, max_words=30)
    assert hit == 0
    assert same_space(space, embeddings.parse_embeddings(short.encode(), max_words=30))
