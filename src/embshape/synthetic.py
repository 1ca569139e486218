"""Ground-truth simplex clouds for end-to-end verification.

The generator plants an exactly known answer: the first V rows of the
cloud are the corners of a rotated regular simplex with unit edges, and
every other row is a Dirichlet-weighted convex combination of them (plus
optional Gaussian noise). Recovery can then be judged against the corner
rows directly.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .embeddings import EmbeddingSpace


@dataclass(frozen=True)
class GenParams:
    dim: int
    num_vertices: int
    num_points: int
    alpha: float
    sigma: float
    seed: int
    regular: bool = True


@dataclass(eq=False)
class SyntheticCloud:
    space: EmbeddingSpace
    true_vertices: list[int]
    gen_params: GenParams

    @property
    def corner_vectors(self) -> np.ndarray:
        return self.space.vectors[self.true_vertices]

    def ground_truth_dict(self) -> dict:
        return {
            "vertex_tokens": [self.space.words[i] for i in self.true_vertices],
            "gen_params": asdict(self.gen_params),
        }


# Interior rows whose noise is drawn at a time.
_NOISE_ROWS = 8192


def _helmert_basis(v: int) -> np.ndarray:
    """(v-1) x v orthonormal rows spanning the sum-zero subspace."""
    basis = np.zeros((v - 1, v))
    for k in range(1, v):
        basis[k - 1, :k] = 1.0
        basis[k - 1, k] = -k
        basis[k - 1] /= np.sqrt(k * (k + 1.0))
    return basis


def _regular_corners(dim: int, num_vertices: int) -> np.ndarray:
    """Corners of a regular simplex with unit edges, centered at the
    origin, embedded in the first num_vertices-1 coordinates."""
    v = num_vertices
    identity = np.eye(v)
    centered = identity - 1.0 / v
    coords = centered @ _helmert_basis(v).T  # v x (v-1), edge length sqrt(2)
    coords /= np.sqrt(2.0)
    corners = np.zeros((v, dim))
    corners[:, : v - 1] = coords
    return corners


def _random_rotation(rng: np.random.Generator, dim: int) -> np.ndarray:
    gauss = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(gauss)
    return q * np.sign(np.diag(r))


def generate_simplex_cloud(
    dim: int,
    num_vertices: int,
    num_points: int,
    alpha: float = 1.5,
    sigma: float = 0.0,
    seed: int = 0,
    regular: bool = True,
) -> SyntheticCloud:
    """Generate a simplex-shaped cloud with known corner rows.

    Regular mode places a rotated, randomly translated standard simplex
    scaled to edge length 1; irregular mode draws arbitrary Gaussian
    corners instead (no equal-edge or exact-projection guarantees). The
    first ``num_vertices`` rows are always the exact corners; noise, when
    requested, is applied only to the interior points.
    """
    if not 3 <= num_vertices <= dim + 1:
        raise ValueError(
            "num_vertices must be in [3, dim+1], got %d with dim %d"
            % (num_vertices, dim)
        )
    if num_points < num_vertices:
        raise ValueError("num_points must be >= num_vertices")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")

    rng = np.random.default_rng(seed)
    if regular:
        rotation = _random_rotation(rng, dim)
        # translation of expected length 1/2, comparable to the simplex size,
        # so cosine neighborhoods stay meaningful on the raw vectors
        translation = rng.standard_normal(dim) / (2.0 * np.sqrt(dim))
        corners = _regular_corners(dim, num_vertices) @ rotation.T + translation
    else:
        corners = rng.standard_normal((num_vertices, dim))

    weights = rng.dirichlet(np.full(num_vertices, alpha), size=num_points - num_vertices)
    # The matrix is allocated once and filled in place. The interior is one
    # GEMM, as a row-blocked product would round differently; its noise is
    # drawn and added in row chunks, which give the same draws.
    vectors = np.empty((num_points, dim))
    vectors[:num_vertices] = corners
    interior = vectors[num_vertices:]
    np.matmul(weights, corners, out=interior)
    del weights
    for start in range(0, len(interior), _NOISE_ROWS):
        rows = interior[start : start + _NOISE_ROWS]
        rows += sigma * rng.standard_normal(rows.shape)

    words = ["w%06d" % (i + 1) for i in range(num_points)]
    return SyntheticCloud(
        space=EmbeddingSpace(words=words, vectors=vectors),
        true_vertices=list(range(num_vertices)),
        gen_params=GenParams(
            dim=dim,
            num_vertices=num_vertices,
            num_points=num_points,
            alpha=alpha,
            sigma=sigma,
            seed=seed,
            regular=regular,
        ),
    )


def write_ground_truth(cloud: SyntheticCloud, path: Union[str, Path]) -> None:
    """Write the vertex tokens and generator parameters as a JSON sidecar."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(cloud.ground_truth_dict(), fh, indent=2)
        fh.write("\n")
