"""The row-blocked kernels give the bits of the expressions they replace:
``row_products`` (glue's queries and the direct projection) those of
whole-matrix mat-vecs, and the centered products and the covariance, which
reuse one block buffer, those of a fresh array per block. The centered
products, ``row_products`` and the ranking of a fresh ``topk_neighbors``
query also have the same bits under every BLAS thread count, and the
products with a sub-pool of directions are the whole pool's rows.
``row_products`` split between two threads, forced by setting its split
size to 0, has the bits of the serial pass and of one-thread whole-matrix
mat-vecs.

A BLAS may round a row by how it splits the work, so the comparisons run
in child processes, under one BLAS thread and under one per CPU; on a
single CPU there is nothing to compare across thread counts. Run as a
script, this file makes them in its own process.
"""

import contextlib
import dataclasses
import functools
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from embshape import (
    EmbeddingSpace,
    ExtractionParams,
    describe_vertex,
    find_candidates,
    fit_pca,
    glue_candidates,
    topk_neighbors,
    write_glove_text,
)
from embshape import extractor, pca
from embshape.cli import main
from embshape.embeddings import _covariance
from embshape.errors import DegenerateTriangleError
from embshape.geometry import _plane_basis, project_triple
from embshape.parallel import usable_cpus
from embshape.pca import _CACHE_BLOCK_ROWS, _row_blocks, centered_product, row_products
from helpers import reference_project

BLOCK = _CACHE_BLOCK_ROWS
ROWS = (1, 3, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 5)
DIMS = (1, 7, 50)


def cloud(n: int, d: int) -> np.ndarray:
    """An n x d cloud whose row 1 is zero and, from 4 rows on, whose last
    row and middle row repeat row 0."""
    vectors = np.random.default_rng([n, d]).standard_normal((n, d))
    if n >= 3:
        vectors[1] = 0.0
    if n >= 4:
        vectors[n - 1] = vectors[n // 2] = vectors[0]
    return vectors


def padded_centered_product(vectors, mean, directions):
    """``centered_product`` written out: each block of BLOCK rows less the
    mean, the last one padded with zero rows to BLOCK, in a GEMM of its
    own, of which the real columns are copied into the result."""
    n, d = vectors.shape
    out = np.empty((directions.shape[0], n))
    for start in range(0, n, BLOCK):
        rows = vectors[start : start + BLOCK]
        block = np.zeros((BLOCK, d))
        block[: len(rows)] = rows - mean
        out[:, start : start + len(rows)] = (directions @ block.T)[:, : len(rows)]
    return out


def old_covariance(vectors, mean):
    """``_covariance`` as it was: a fresh centered block of 8192 rows each."""
    cov = np.zeros((vectors.shape[1],) * 2)
    for start in range(0, len(vectors), 8192):
        block = vectors[start : start + 8192] - mean
        cov += block.T @ block
    cov /= len(vectors)
    return (cov + cov.T) / 2.0


def same_bits(a, b) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def blocked_kernel_mismatches() -> list:
    """The (kernel, N, D) of every blocked kernel whose bits differ from
    its whole-matrix expression."""
    bad = []
    for n in ROWS:
        for d in DIMS:
            vectors = cloud(n, d)
            space = EmbeddingSpace(["w%d" % i for i in range(n)], vectors)
            vectors = space.vectors
            queries = [vectors[i] for i in sorted({0, 1 % n, n // 2, n - 1})]
            products = row_products(vectors, queries)
            if not all(same_bits(p, vectors @ q) for p, q in zip(products, queries)):
                bad.append(("glue", n, d))

            mean = space.mean
            pool = vectors[: min(n, 4)] - mean
            axes = np.linalg.qr(np.random.default_rng(d).standard_normal((d, d)))[0].T
            for directions in (pool, axes):
                new = centered_product(vectors, mean, directions)
                if not same_bits(new, padded_centered_product(vectors, mean, directions)):
                    bad.append(("centered_product", n, d))

            if n >= 2:
                cov = _covariance(vectors, mean)
                if not same_bits(cov, old_covariance(vectors, mean)):
                    bad.append(("_covariance", n, d))

            corners = (0, 1, 2) if n >= 3 else (0, 0, 0)
            a, b, c = (vectors[i] for i in corners)
            try:
                e1, e2, _ = _plane_basis(a, b, c)
            except DegenerateTriangleError:
                try:
                    project_triple(space, *corners)
                except DegenerateTriangleError:
                    continue
                bad.append(("project_triple raises no error", n, d))
                continue
            coords, _ = project_triple(space, *corners)
            if not same_bits(coords, reference_project(vectors, a, e1, e2)):
                bad.append(("project_triple", n, d))
    for d in DIMS:  # more than one covariance block
        vectors = cloud(2 * 8192 + 5, d)
        mean = vectors.mean(axis=0)
        if not same_bits(_covariance(vectors, mean), old_covariance(vectors, mean)):
            bad.append(("_covariance", len(vectors), d))
    return bad


# Shapes whose blocks a forced split spreads over both threads: at D = 300
# one block, a short last block, a borrowed quarter block and three blocks,
# and at 129 dims, the fewest whose blocks split.
SPLIT_SHAPES = (
    *((n, 300) for n in sorted({*ROWS, BLOCK + BLOCK // 4 + 1})),
    (2 * BLOCK + 5, 129),
)


@contextlib.contextmanager
def forced_split():
    """``row_products`` splits every pass of two or more blocks larger than
    one core's cache."""
    cells, pca._SPLIT_CELLS = pca._SPLIT_CELLS, 0
    try:
        yield
    finally:
        pca._SPLIT_CELLS = cells


def split_digests() -> dict:
    """Digests of ``row_products`` of every split shape, keyed by kind and
    "N x D", with and without an origin: of the serial pass, of the pass
    split between two threads and of whole-matrix mat-vecs."""
    digests = {}
    for n, d in SPLIT_SHAPES:
        vectors = cloud(n, d)
        queries = [vectors[i] for i in sorted({0, n // 3, n // 2, n - 1})]
        for origin in (None, vectors[n // 3]):
            shape = "%d x %d%s" % (n, d, "" if origin is None else " shifted")
            digests["serial " + shape] = digest(row_products(vectors, queries, origin).tobytes())
            with forced_split():
                split = row_products(vectors, queries, origin)
            digests["split " + shape] = digest(split.tobytes())
            shifted = vectors if origin is None else vectors - origin
            whole = np.array([shifted @ q for q in queries])
            digests["whole " + shape] = digest(whole.tobytes())
    return digests


# One block and 0 to 693 rows more, so the last block is short at many
# widths, then clouds of several blocks.
SWEEP_ROWS = (*(BLOCK + 7 * r for r in range(100)), 2 * BLOCK + 5, 9001, 20000)
SWEEP_DIMS = (7, 50, 300)
POOL = 40


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def product_sweep() -> tuple[dict, list]:
    """Digests of each swept cloud's products, keyed by kernel and "N x D":
    of ``centered_product`` with POOL pool words, of ``row_products`` with
    the middle word and of a fresh ``topk_neighbors`` ranking of every word
    by the middle word; and the (N, D) at which every other pool word's
    centered products are not the whole pool's rows."""
    digests, bad = {}, []
    for d in SWEEP_DIMS:
        base = np.random.default_rng(d).standard_normal((max(SWEEP_ROWS), d))
        words = ["w%d" % i for i in range(len(base))]
        for n in SWEEP_ROWS:
            space = EmbeddingSpace(words[:n], base[:n])
            vectors, mean, shape = space.vectors, space.mean, "%d x %d" % (n, d)
            pool = vectors[np.linspace(0, n - 1, POOL).astype(int)] - mean
            whole = centered_product(vectors, mean, pool)
            digests["centered_product " + shape] = digest(whole.tobytes())
            if not same_bits(centered_product(vectors, mean, pool[::2]), whole[::2]):
                bad.append((n, d))
            query = vectors[n // 2]
            products = row_products(vectors, [query])
            digests["row_products " + shape] = digest(products.tobytes())
            with forced_split():
                products = row_products(vectors, [query])
            digests["split row_products " + shape] = digest(products.tobytes())
            ranking = topk_neighbors(space, query, n)
            digests["topk_neighbors " + shape] = digest(repr(ranking).encode())
    return digests, bad


THREADS = sorted({1, usable_cpus()})


@functools.cache
def child(threads: int) -> dict:
    """What this file prints as a script, run under ``threads`` BLAS threads."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    run = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


@pytest.mark.parametrize("threads", THREADS)
def test_blocked_kernels_have_the_whole_matrix_bits(threads):
    assert child(threads)["mismatches"] == []


@pytest.mark.parametrize("threads", THREADS)
def test_split_row_products_have_the_serial_and_the_one_thread_whole_matrix_bits(threads):
    split = child(threads)["split"]
    one_thread = child(1)["split"]
    shapes = [key[len("split ") :] for key in split if key.startswith("split ")]
    assert len(shapes) == 2 * len(SPLIT_SHAPES)
    for shape in shapes:
        assert split["split " + shape] == split["serial " + shape], shape
        assert split["split " + shape] == one_thread["whole " + shape], shape
    digests = child(threads)["digests"]
    sweep = [key for key in digests if key.startswith("row_products ")]
    assert sweep
    for key in sweep:
        assert digests["split " + key] == digests[key], key


@pytest.mark.parametrize("threads", THREADS)
def test_a_sub_pools_products_are_the_whole_pools_rows(threads):
    assert child(threads)["pool_mismatches"] == []


def test_the_centered_products_do_not_depend_on_the_thread_count():
    one, *others = (child(threads)["digests"] for threads in THREADS)
    for digests in others:
        assert [shape for shape in one if digests[shape] != one[shape]] == []


def test_no_block_is_short_and_the_blocks_cover_the_rows_in_order():
    for n in (*ROWS, 5 * BLOCK, 5 * BLOCK + BLOCK // 4, 5 * BLOCK + BLOCK // 4 - 1):
        blocks = _row_blocks(n)
        assert [r for s in blocks for r in range(s.start, s.stop)] == list(range(n))
        sizes = [s.stop - s.start for s in blocks]
        assert max(sizes) <= BLOCK
        assert min(sizes) >= min(n, BLOCK // 4)
        assert all(s.start % (BLOCK // 4) == 0 for s in blocks)


def _small_space():
    vectors = cloud(40, 6)
    return EmbeddingSpace(["w%d" % i for i in range(40)], vectors)


def test_glue_hands_each_word_its_row_of_one_product_array(monkeypatch):
    vectors = cloud(BLOCK + 7, 7)
    space = EmbeddingSpace(["w%d" % i for i in range(len(vectors))], vectors)
    candidates = find_candidates(space, fit_pca(space, 5), 5)
    calls = []
    real = extractor.topk_neighbors

    def recorded(space, query, k, products=None):
        before = None if products is None else products.copy()
        ranked = real(space, query, k, products=products)
        calls.append((query, products, before))
        return ranked

    monkeypatch.setattr(extractor, "topk_neighbors", recorded)
    glue_candidates(space, candidates, ExtractionParams(k=4))
    assert len(calls) == len({c.word_index for c in candidates})
    held = calls[0][1].base
    assert held.shape == (len(calls), space.n_words)
    for j, (query, products, before) in enumerate(calls):
        assert products.base is held
        assert products.ctypes.data == held[j].ctypes.data
        assert same_bits(products, space.vectors @ query)
        assert same_bits(products, before)  # read, never written


def test_describe_queries_afresh_past_the_ranking_glue_stored():
    space = _small_space()
    candidates = find_candidates(space, fit_pca(space, 3), 3)
    vertex = glue_candidates(space, candidates, ExtractionParams(k=2))[0]
    ranked = vertex.neighbor_set[:2], vertex.neighbor_sims[:2]
    vertex = dataclasses.replace(vertex, neighbor_set=ranked[0], neighbor_sims=ranked[1])
    assert len(vertex.neighbor_sims) == 2
    fresh = topk_neighbors(space, space.vectors[vertex.representative], 5)
    assert describe_vertex(space, vertex, k_desc=5) == [
        (space.words[i], sim) for i, sim in fresh
    ]


def test_timings_count_one_neighbor_query_per_unique_candidate_word(tmp_path, small_cloud):
    path = tmp_path / "cloud.txt"
    write_glove_text(small_cloud.space, path)
    report, timings = tmp_path / "report.json", tmp_path / "timings.json"
    argv = ["analyze", str(path), "-o", str(report), "--timings", str(timings)]
    assert main(argv) == 0
    axes = json.loads(report.read_text())["params"]["axes_used"]
    space = small_cloud.space
    candidates = find_candidates(space, fit_pca(space, axes), axes)
    stages = json.loads(timings.read_text())["stages"]
    assert stages["glue"]["neighbor_queries"] == len({c.word_index for c in candidates})


if __name__ == "__main__":
    digests, pool_mismatches = product_sweep()
    print(
        json.dumps(
            {
                "mismatches": blocked_kernel_mismatches(),
                "split": split_digests(),
                "digests": digests,
                "pool_mismatches": pool_mismatches,
            }
        )
    )
