"""Principal axes of the embedding cloud, and the products of the cloud
with directions.

The leading eigenvectors of the cloud covariance are the candidate
directions along which opposite corners of the cloud are expected to sit,
so the decomposition is kept exact and deterministic: covariance is
accumulated over fixed-order row blocks (``EmbeddingSpace.covariance``,
which a hit of ``embshape.cache`` serves from its entry), eigenvectors get
a fixed sign convention, and eigenvalues are clamped at zero.

Both product kernels walk the rows in blocks of ``_CACHE_BLOCK_ROWS``,
each read from memory once and kept in cache while every direction reads
it. A BLAS rounds a row by the kernel it picks for the block's shape and
by how it splits the block between threads, so each kernel fixes its
block shapes. ``centered_product`` takes one GEMM per block and pads the
last block with zero rows to a full one: BLAS rounds a full-width GEMM
alike under every thread count and beside any other directions.
``row_products`` takes one mat-vec per direction and block, on the blocks
of ``_row_blocks``, which borrow instead: a last block shorter than a
quarter block, which BLAS would give another kernel, takes a quarter block
from the one before. Whole quarter blocks split evenly between threads, so
with OpenBLAS each row has the bits of a one-thread mat-vec of the whole
matrix. (Padded mat-vec blocks round some rows otherwise.)

A large ``row_products`` pass whose blocks are larger than one core's
cache runs its blocks on two threads (``parallel.run_halves``) and reads
each block in quarter-block pieces (512 rows, 1.2 MB at 300 dims), which
stay in it; a shorter tail joins the piece before it, so the rows keep the
same bits. A pass whose blocks fit in that cache stays on one thread.
``centered_product`` stays on one thread: its GEMMs already use every BLAS
thread, and split between two threads they were slower.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .embeddings import EmbeddingSpace
from .parallel import run_halves, two_threads

# 2048 rows of 300 float64 are 4.9 MB, which stay in cache while every
# product reads them.
_CACHE_BLOCK_ROWS = 2048

# A row_products pass of at least this many cells (N x D x Q) runs on two
# threads. On 2 vCPUs the split took 0.5-0.9 of the serial time at 2^24
# cells (2800 x 300 with 20 directions, 28000 x 300 with 2) and 0.4-0.6
# at 50000 x 300 with 40; below it a split saves a millisecond at most,
# and the helper thread costs CPU.
_SPLIT_CELLS = 1 << 24
# One core's cache (L2). Only a pass whose blocks are larger splits, and it
# reads them in pieces: split whole blocks of 2048 x 300 took 1.4-1.8 times
# the serial time, pieces 0.4-0.8. At 50 dims split pieces took 1.1-1.5
# times the serial time; no benchmark workload has a split-size pass of
# 128 dims or fewer.
_CORE_CACHE_BYTES = 2 << 20


@dataclass(eq=False)
class PcaModel:
    """Centroid plus the top principal axes of a cloud.

    ``axes`` has orthonormal rows in non-increasing eigenvalue order.
    ``total_variance`` is the trace of the covariance (the sum of all D
    eigenvalues, not just the fitted ones).
    """

    mean: np.ndarray
    axes: np.ndarray
    eigenvalues: np.ndarray
    total_variance: float

    @property
    def num_axes(self) -> int:
        return self.axes.shape[0]


def centered_product(
    vectors: np.ndarray, mean: np.ndarray, directions: np.ndarray
) -> np.ndarray:
    """``directions @ (vectors - mean).T``: row i holds the products of
    every centered cloud point with direction i.

    Each block of rows less the mean goes into one reused buffer, the last
    one padded with zero rows, and the result keeps the real columns. The
    bits depend on neither the BLAS threads nor the other directions: the
    products with two or more of the directions are the matching rows of
    the products with all of them. (numpy takes a mat-vec for one
    direction, which may round otherwise.)
    """
    n, d = vectors.shape
    size = _CACHE_BLOCK_ROWS
    out = np.empty((directions.shape[0], -(-n // size) * size))
    shifted = np.empty((size, d))
    for start in range(0, n, size):
        rows = vectors[start : start + size]
        np.subtract(rows, mean, out=shifted[: len(rows)])
        shifted[len(rows) :] = 0.0
        np.matmul(directions, shifted.T, out=out[:, start : start + size])
    return out[:, :n]


def _row_blocks(n: int) -> list[slice]:
    """Slices of at most ``_CACHE_BLOCK_ROWS`` rows that cover ``n`` rows in
    order, each starting at a multiple of a quarter block and none shorter
    than a quarter block unless ``n`` is."""
    size = _CACHE_BLOCK_ROWS
    starts = list(range(0, n, size))
    if len(starts) > 1 and n - starts[-1] < size // 4:
        starts[-1] -= size // 4
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def _pieces(length: int) -> list[slice]:
    """Slices of a block of ``length`` rows, in order: quarter blocks, the
    last one taking a shorter tail, so none is shorter than a quarter block
    unless the block is."""
    quarter = _CACHE_BLOCK_ROWS // 4
    starts = list(range(0, length, quarter))
    if len(starts) > 1 and length - starts[-1] < quarter:
        del starts[-1]
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [length])]


def row_products(
    vectors: np.ndarray,
    directions: Sequence[np.ndarray],
    origin: np.ndarray | None = None,
) -> np.ndarray:
    """The Q x N products of the cloud with Q directions: row j is
    ``(vectors - origin) @ directions[j]`` (``vectors @ directions[j]``
    without an origin) with the bits that mat-vec has under one BLAS
    thread. Each block's rows less the origin go into one reused buffer.

    Where two CPUs are usable, a pass of ``_SPLIT_CELLS`` or more cells,
    two or more blocks and blocks larger than ``_CORE_CACHE_BYTES`` runs its
    blocks in two halves (``parallel.run_halves``), each with a buffer of
    its own, and every direction reads each of a block's ``_pieces`` in
    turn. Other passes read whole blocks on the calling thread.
    """
    n, d = vectors.shape
    out = np.empty((len(directions), n))
    blocks = _row_blocks(n)
    large = n * d * len(directions) >= _SPLIT_CELLS
    split = two_threads(large and _CACHE_BLOCK_ROWS * d * 8 > _CORE_CACHE_BYTES, len(blocks))

    def products(half: Sequence[slice]) -> None:
        shifted = None if origin is None else np.empty((min(n, _CACHE_BLOCK_ROWS), d))
        for rows in half:
            block = vectors[rows]
            if shifted is not None:
                block = np.subtract(block, origin, out=shifted[: len(block)])
            for piece in _pieces(len(block)) if split else [slice(0, len(block))]:
                cols = slice(rows.start + piece.start, rows.start + piece.stop)
                for direction, row in zip(directions, out):
                    np.matmul(block[piece], direction, out=row[cols])

    run_halves(products, blocks, split)
    return out


def fit_pca(space: EmbeddingSpace, num_axes: int) -> PcaModel:
    """Fit the top ``num_axes`` principal axes of the cloud.

    Each axis is sign-fixed so that its largest-magnitude coordinate is
    positive (ties resolved toward the lower coordinate index), which makes
    the fit reproducible bit for bit.
    """
    n, d = space.vectors.shape
    if n < 2:
        raise ValueError("PCA needs at least 2 points, got %d" % n)
    if not 1 <= num_axes <= d:
        raise ValueError("num_axes must be in [1, %d], got %d" % (d, num_axes))

    cov = space.covariance
    evals, evecs = np.linalg.eigh(cov)  # ascending order
    evals = np.maximum(evals[::-1], 0.0)
    evecs = evecs[:, ::-1]

    axes = np.array(evecs[:, :num_axes].T)
    for row in axes:
        j = int(np.argmax(np.abs(row)))
        if row[j] < 0:
            row *= -1.0

    return PcaModel(
        mean=space.mean,
        axes=axes,
        eigenvalues=evals[:num_axes].copy(),
        total_variance=float(np.trace(cov)),
    )


def informative_axis_count(pca: PcaModel, num_axes: int | None = None) -> int:
    """Number of leading axes whose eigenvalue exceeds the mean eigenvalue
    (Kaiser-Guttman rule).

    Axes at or below the mean carry no more variance than an isotropic
    noise floor would; their extreme points are numerical accidents rather
    than cloud corners. At least one axis is always kept.
    """
    m = pca.num_axes if num_axes is None else min(num_axes, pca.num_axes)
    floor = pca.total_variance / pca.mean.shape[0]
    count = int(np.sum(pca.eigenvalues[:m] > floor))
    return max(1, count)
