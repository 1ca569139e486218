"""Principal axes of the embedding cloud.

The leading eigenvectors of the cloud covariance are the candidate
directions along which opposite corners of the cloud are expected to sit,
so the decomposition is kept exact and deterministic: covariance is
accumulated over fixed-order row blocks, eigenvectors get a fixed sign
convention, and eigenvalues are clamped at zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import _MATRIX_BLOCK_ROWS, EmbeddingSpace


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


def _covariance(vectors: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Population (1/N) covariance, accumulated block by block in a fixed
    order so results do not depend on how the work is scheduled."""
    n, d = vectors.shape
    cov = np.zeros((d, d))
    for start in range(0, n, _MATRIX_BLOCK_ROWS):
        block = vectors[start : start + _MATRIX_BLOCK_ROWS] - mean
        cov += block.T @ block
    cov /= n
    return (cov + cov.T) / 2.0


def centered_product(
    vectors: np.ndarray, mean: np.ndarray, directions: np.ndarray
) -> np.ndarray:
    """``directions @ (vectors - mean).T``: row i holds the products of
    every centered cloud point with direction i.

    Built over the same fixed row blocks as the covariance, so the centered
    cloud is never held whole and the bits do not depend on the thread
    count.
    """
    out = np.empty((directions.shape[0], vectors.shape[0]))
    for start in range(0, vectors.shape[0], _MATRIX_BLOCK_ROWS):
        block = vectors[start : start + _MATRIX_BLOCK_ROWS] - mean
        out[:, start : start + _MATRIX_BLOCK_ROWS] = directions @ block.T
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

    cov = _covariance(space.vectors, space.mean)
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


def project_onto_axis(
    space: EmbeddingSpace, pca: PcaModel, axis_index: int
) -> np.ndarray:
    """Signed projections of the centered cloud onto one principal axis."""
    if not 0 <= axis_index < pca.num_axes:
        raise ValueError(
            "axis_index %d out of range [0, %d)" % (axis_index, pca.num_axes)
        )
    return (space.vectors - pca.mean) @ pca.axes[axis_index]


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
