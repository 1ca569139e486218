"""Principal axes of the embedding cloud.

The leading eigenvectors of the cloud covariance are the candidate
directions along which opposite corners of the cloud are expected to sit,
so the decomposition is kept exact and deterministic: covariance is
accumulated over fixed-order row blocks (``EmbeddingSpace.covariance``,
which a parse-cache hit serves from its entry), eigenvectors get a fixed
sign convention, and eigenvalues are clamped at zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import _CACHE_BLOCK_ROWS, EmbeddingSpace


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

    Every block is one GEMM of ``_CACHE_BLOCK_ROWS`` columns: the rows of
    the cloud less the mean go into one reused block buffer, the last
    block's rows fill its head and zeros its tail, and the result keeps
    only the real columns. BLAS splits and rounds a GEMM of full width
    alike under every thread count, and each direction's row alike beside
    any other directions, so the bits depend on neither the BLAS threads
    nor the number of directions: the products with two or more of the
    directions are the matching rows of the products with all of them.
    (numpy takes a mat-vec for one direction, which is thread-invariant
    too but may round otherwise.)
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
