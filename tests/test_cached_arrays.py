"""The arrays a parse-cache entry keeps beside the matrix: the mean, the
row norms and the covariance. A hit serves them with the bits a fresh
space computes, an entry that lacks one is a miss, and the reports are
the same on a miss and a hit, across BLAS thread counts too."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from embshape import EmbeddingSpace, fit_pca, generate_simplex_cloud, write_glove_text
from embshape import cache as parse_cache
from embshape import embeddings
from embshape.cli import main
from embshape.stages import StageTimer

DERIVED = ("mean", "row_norms", "covariance")


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


def load(path, **kwargs):
    """The loaded space and whether the load was a cache hit."""
    timer = StageTimer()
    with timer.stage("parse"):
        space = parse_cache.load_embeddings(path, **kwargs)
    return space, timer.stages["parse"]["cache_hits"]


def read_entry(cache) -> dict:
    (entry,) = cache.glob("*.npz")
    with np.load(entry, allow_pickle=False) as npz:
        return {name: npz[name] for name in npz.files}


def test_a_hit_serves_the_bits_of_a_fresh_space_read_only(path, cache):
    first, first_hit = load(path)
    second, second_hit = load(path)
    assert (first_hit, second_hit) == (0, 1)
    assert all(name in vars(second) for name in DERIVED)  # set, not computed
    fresh = EmbeddingSpace(list(second.words), np.array(second.vectors))
    for name in DERIVED:
        served = getattr(second, name)
        assert served.dtype == np.float64
        assert served.tobytes() == getattr(fresh, name).tobytes()
        assert served.tobytes() == getattr(first, name).tobytes()
        assert not served.flags.writeable
        with pytest.raises(ValueError):
            served[0] = 1.0


def test_a_hit_does_not_compute_the_covariance(path, cache, monkeypatch):
    fit_pca(load(path)[0], 3)

    def no_covariance(*args):
        raise AssertionError("the covariance was computed")

    monkeypatch.setattr(embeddings, "_covariance", no_covariance)
    space, hit = load(path)
    assert hit == 1
    assert fit_pca(space, 3).eigenvalues.shape == (3,)
    with pytest.raises(AssertionError, match="computed"):
        fit_pca(EmbeddingSpace(list(space.words), np.array(space.vectors)), 3)


@pytest.mark.parametrize(
    "damage", ["no_covariance", "short_row_norms", "float32_mean", "square_mean"]
)
def test_an_entry_without_whole_arrays_is_a_miss_and_is_rewritten(path, cache, damage):
    first, _ = load(path)
    arrays = read_entry(cache)
    if damage == "no_covariance":
        del arrays["covariance"]
    elif damage == "short_row_norms":
        arrays["row_norms"] = arrays["row_norms"][:-1]
    elif damage == "float32_mean":
        arrays["mean"] = arrays["mean"].astype(np.float32)
    else:
        arrays["mean"] = np.outer(arrays["mean"], arrays["mean"])
    (entry,) = cache.glob("*.npz")
    with open(entry, "wb") as fh:  # the same key and source facts
        np.savez(fh, **arrays)
    second, hit = load(path)
    assert hit == 0
    full = read_entry(cache)
    assert set(full) == {"meta", "words", "vectors", *DERIVED}
    for name in DERIVED:
        assert full[name].tobytes() == getattr(first, name).tobytes()
    third, hit = load(path)
    assert hit == 1
    assert third.covariance.tobytes() == first.covariance.tobytes()


def test_the_finite_check_reads_every_row_block(cloud):
    vectors = np.tile(cloud.space.vectors, (3, 1))  # more than one block
    assert len(vectors) > embeddings._MATRIX_BLOCK_ROWS
    vectors[-1, -1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        EmbeddingSpace(["w%d" % i for i in range(len(vectors))], vectors)


def test_a_hit_checks_the_entry_matrix_for_non_finite_values(path, cache):
    first, _ = load(path)
    arrays = read_entry(cache)
    arrays["vectors"] = arrays["vectors"].copy()
    arrays["vectors"][-1, 0] = np.inf
    (entry,) = cache.glob("*.npz")
    with open(entry, "wb") as fh:
        np.savez(fh, **arrays)
    second, hit = load(path)
    assert hit == 0 and second.vectors.tobytes() == first.vectors.tobytes()


def test_the_byte_cap_counts_the_derived_arrays(path, cache, monkeypatch, cloud):
    n, d = cloud.space.vectors.shape
    words = len("\n".join(cloud.space.words).encode())
    whole = words + (n * d + n + d * d + d) * 8
    monkeypatch.setattr(parse_cache, "_CACHE_BYTES", whole - 1)
    space, _ = load(path)
    assert not cache.exists() or not list(cache.glob("*.npz"))
    assert not any(name in vars(space) for name in DERIVED)  # left to first use
    monkeypatch.setattr(parse_cache, "_CACHE_BYTES", whole)
    load(path)
    assert set(read_entry(cache)) == {"meta", "words", "vectors", *DERIVED}


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--normalize", "--trials", "4", "--triple-samples", "10"],
        ["stats", "--words", "PLACEHOLDER", "--triple-samples", "10", "--seed", "2"],
    ],
    ids=["analyze-normalize", "stats"],
)
def test_a_report_has_the_same_bytes_on_a_miss_and_a_hit(path, cache, cloud, argv):
    argv = [a if a != "PLACEHOLDER" else ",".join(cloud.space.words[:4]) for a in argv]
    outputs = []
    for run in ("miss", "hit"):
        out = path.parent / (run + ".out")
        assert main([argv[0], str(path), *argv[1:], "-o", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert len(list(cache.glob("*.npz"))) == 1
    assert outputs[0] == outputs[1]


def _analyze(path, threads: str, cache_home):
    """The report of one ``analyze`` child under ``threads`` BLAS threads
    and the parse cache at ``cache_home``, and whether its load was a hit."""
    env = dict(
        os.environ,
        XDG_CACHE_HOME=str(cache_home),
        OMP_NUM_THREADS=threads,
        OPENBLAS_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
    )
    timings = cache_home / "timings.json"
    args = ["analyze", str(path), "--seed", "5", "--trials", "4", "--triple-samples", "20"]
    result = subprocess.run(
        [sys.executable, "-m", "embshape", *args, "--timings", str(timings)],
        env=env,
        check=True,
        capture_output=True,
    )
    hits = json.loads(timings.read_text())["stages"]["parse"]["cache_hits"]
    return result.stdout, hits


def test_reports_match_across_thread_counts_on_misses_and_crossed_hits(tmp_path):
    # At 300 dims OpenBLAS rounds the covariance by its thread count, so an
    # entry written under one count and read under another serves a
    # covariance that the reader would have rounded otherwise.
    cloud = generate_simplex_cloud(
        dim=300, num_vertices=10, num_points=4000, alpha=1.5, sigma=0.01, seed=4
    )
    path = tmp_path / "cloud.txt"
    write_glove_text(cloud.space, path)
    reports = {}
    for writer, reader in (("1", "2"), ("2", "1")):
        home = tmp_path / ("written-under-" + writer)
        home.mkdir()
        reports["miss", writer], miss = _analyze(path, writer, home)
        reports["hit", reader], hit = _analyze(path, reader, home)
        assert (miss, hit) == (0, 1)
    assert len(set(reports.values())) == 1
    json.loads(reports["miss", "1"])
