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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .embeddings import EmbeddingSpace

# 2048 rows of 300 float64 are 4.9 MB, which stay in cache while every
# product reads them.
_CACHE_BLOCK_ROWS = 2048


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


def row_products(
    vectors: np.ndarray,
    directions: Sequence[np.ndarray],
    origin: np.ndarray | None = None,
) -> np.ndarray:
    """The Q x N products of the cloud with Q directions: row j is
    ``(vectors - origin) @ directions[j]`` (``vectors @ directions[j]``
    without an origin) with the bits that mat-vec has under one BLAS
    thread. Each block's rows less the origin go into one reused buffer.
    """
    n, d = vectors.shape
    out = np.empty((len(directions), n))
    shifted = None if origin is None else np.empty((min(n, _CACHE_BLOCK_ROWS), d))
    for rows in _row_blocks(n):
        block = vectors[rows]
        if shifted is not None:
            block = np.subtract(block, origin, out=shifted[: len(block)])
        for direction, products in zip(directions, out):
            np.matmul(block, direction, out=products[rows])
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
