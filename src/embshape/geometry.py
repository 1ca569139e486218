"""Projection of the cloud onto vertex-triple planes and containment stats.

Everything here is plain affine geometry: build an orthonormal 2-d frame
through three cloud points, drop the whole cloud onto it, and count how
much of the vocabulary lands inside the triangle and its incircle.

The frame of a triangle lies in the span of its corners, so a word's two
coordinates are combinations of its products with the corners. When many
triangles share a pool of corner words, ``PoolProduct`` takes those
products once, as one N x V matrix of the centered cloud against the V
pool words; each triangle then costs O(N) rather than a pass over the
N x D cloud. ``project_triple`` is the direct projection, for a single
triangle. Both build the frame and the 3 x 2 triangle from the corner
vectors themselves, so they raise the same ``DegenerateTriangleError``s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .embeddings import EmbeddingSpace
from .errors import DegenerateTriangleError
from .pca import centered_product

# A point counts as inside the triangle when all barycentric coordinates
# are >= -BARYCENTRIC_INSIDE_TOL, so boundaries and vertices are inside.
BARYCENTRIC_INSIDE_TOL = 1e-9

_DEGENERACY_REL_TOL = 1e-12


@dataclass
class TripleStats:
    """Containment statistics of the cloud for one vertex triple."""

    inside_triangle_fraction: float
    outside_incircle_fraction: float
    incenter: tuple[float, float]
    inradius: float


def _plane_basis(
    a: np.ndarray, b: np.ndarray, c: np.ndarray
) -> tuple[np.ndarray, np.ndarray, tuple[float, float, float]]:
    """Orthonormal directions e1, e2 of the plane through a, b and c.

    e1 points along u = b-a; e2 is the Gram-Schmidt residual r of w = c-a.
    Also returns (|u|, w.e1, |r|): a point p has coordinates
    x = <p-a, u> / |u| and y = (<p-a, w> - (w.e1) x) / |r|.
    """
    u = b - a
    nu = np.linalg.norm(u)
    if nu < 1e-12:
        raise DegenerateTriangleError("first two points coincide")
    e1 = u / nu
    w = c - a
    nw = np.linalg.norm(w)
    if nw < 1e-12:
        raise DegenerateTriangleError("the third point coincides with the first")
    t = w @ e1
    r = w - t * e1
    nr = np.linalg.norm(r)
    if nr < 1e-9 * nw:
        raise DegenerateTriangleError("the three points are nearly collinear")
    return e1, r / nr, (nu, t, nr)


def _project(points: np.ndarray, a: np.ndarray, e1: np.ndarray, e2: np.ndarray):
    shifted = points - a
    return np.column_stack((shifted @ e1, shifted @ e2))


def project_triple(
    space: EmbeddingSpace, ia: int, ib: int, ic: int
) -> tuple[np.ndarray, np.ndarray]:
    """Project the whole cloud onto the plane through three of its words.

    The plane's origin is word ``ia``. Returns the N x 2 coordinates of
    every word and the 3 x 2 triangle of words ``ia``, ``ib``, ``ic``.
    The triangle is projected from its own 3 x D stack rather than read
    from the cloud's rows: the mat-vec kernels round differently on the
    two shapes, and the reports are pinned to this arithmetic.
    """
    a, b, c = space.vectors[ia], space.vectors[ib], space.vectors[ic]
    e1, e2, _ = _plane_basis(a, b, c)
    tri2d = _project(np.vstack((a, b, c)), a, e1, e2)
    return _project(space.vectors, a, e1, e2), tri2d


class PoolProduct:
    """The centered cloud's products with a pool of its own words, for
    projecting the cloud onto many triangles over that pool.

    Holds G = (R - mu) (X - mu)^T for the V distinct pool words R, the
    cloud X and its mean mu. For x in X and corners a, b of a pool
    triangle, <x-a, b-a> = g_b(x) - g_a(x) - (g_b(a) - g_a(a)), so the
    frame coordinates of every word follow from three rows of G. Centering
    keeps the products near the scale of the coordinates, so the
    cancellation costs little precision.
    """

    def __init__(self, space: EmbeddingSpace, pool: Sequence[int]):
        self.space = space
        words = list(dict.fromkeys(int(w) for w in pool))
        self._row = {w: j for j, w in enumerate(words)}
        mean = space.vectors.mean(axis=0)
        self._products = centered_product(
            space.vectors, mean, space.vectors[words] - mean
        )

    def project(self, ia: int, ib: int, ic: int) -> tuple[np.ndarray, np.ndarray]:
        """``project_triple`` for three pool words, from the products.

        The frame and the triangle come from the corner vectors exactly as
        in ``project_triple``; the words' coordinates agree with its to
        rounding.
        """
        a, b, c = (self.space.vectors[i] for i in (ia, ib, ic))
        e1, e2, (nu, t, nr) = _plane_basis(a, b, c)
        ga, gb, gc = (self._products[self._row[i]] for i in (ia, ib, ic))
        du = gb - ga
        du -= du[ia]
        dw = gc - ga
        dw -= dw[ia]
        x = du / nu
        coords = np.column_stack((x, (dw - t * x) / nr))
        return coords, _project(np.vstack((a, b, c)), a, e1, e2)

    def triangle_stats(self, ia: int, ib: int, ic: int) -> TripleStats:
        """``triangle_stats`` for three pool words, from the products."""
        return _stats(*self.project(ia, ib, ic))


def _signed_double_area(tri2d: np.ndarray) -> float:
    (x1, y1), (x2, y2), (x3, y3) = tri2d
    return (x1 - x3) * (y2 - y3) - (x2 - x3) * (y1 - y3)


def _check_nondegenerate(tri2d: np.ndarray) -> float:
    det = _signed_double_area(tri2d)
    scale2 = max(
        float(np.sum((tri2d[i] - tri2d[j]) ** 2))
        for i, j in ((0, 1), (0, 2), (1, 2))
    )
    if abs(det) <= _DEGENERACY_REL_TOL * scale2:
        raise DegenerateTriangleError("triangle is degenerate (area ~ 0)")
    return det


def _barycentric_weights(
    points: np.ndarray, tri2d: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three barycentric weights of a batch of 2-d points, as 1-d
    arrays (one point of shape (2,) counts as a batch of one)."""
    tri2d = np.asarray(tri2d, dtype=np.float64)
    det = _check_nondegenerate(tri2d)
    p = np.atleast_2d(np.asarray(points, dtype=np.float64))
    (x1, y1), (x2, y2), (x3, y3) = tri2d
    dx = p[:, 0] - x3
    dy = p[:, 1] - y3
    l1 = ((y2 - y3) * dx + (x3 - x2) * dy) / det
    l2 = ((y3 - y1) * dx + (x1 - x3) * dy) / det
    return l1, l2, 1.0 - l1 - l2


def barycentric(points: np.ndarray, tri2d: np.ndarray) -> np.ndarray:
    """Barycentric coordinates of 2-d point(s) w.r.t. a triangle.

    Accepts one point of shape (2,) or a batch of shape (n, 2); the result
    has a matching shape with 3 weights summing to 1 per point.
    """
    lam = np.column_stack(_barycentric_weights(points, tri2d))
    return lam[0] if np.ndim(points) == 1 else lam


def inside_triangle(points: np.ndarray, tri2d: np.ndarray) -> np.ndarray:
    """Boolean mask of points inside the triangle (boundary counts)."""
    l1, l2, l3 = _barycentric_weights(points, tri2d)
    floor = -BARYCENTRIC_INSIDE_TOL
    return (l1 >= floor) & (l2 >= floor) & (l3 >= floor)


def incircle(tri2d: np.ndarray) -> tuple[np.ndarray, float]:
    """Incenter and inradius of a 2-d triangle.

    The incenter is the side-length weighted average of the corners; the
    inradius is area over semiperimeter.
    """
    tri2d = np.asarray(tri2d, dtype=np.float64)
    det = _check_nondegenerate(tri2d)
    a_len = float(np.linalg.norm(tri2d[1] - tri2d[2]))  # opposite corner 0
    b_len = float(np.linalg.norm(tri2d[0] - tri2d[2]))  # opposite corner 1
    c_len = float(np.linalg.norm(tri2d[0] - tri2d[1]))  # opposite corner 2
    perimeter = a_len + b_len + c_len
    center = (a_len * tri2d[0] + b_len * tri2d[1] + c_len * tri2d[2]) / perimeter
    radius = abs(det) / perimeter  # area / semiperimeter
    return center, radius


def containment(
    coords: np.ndarray, tri2d: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """Which projected points fall inside the triangle and its incircle.

    Returns the inside-triangle mask, the incenter, the inradius and the
    inside-incircle mask; boundaries count as inside for both masks.
    """
    in_tri = inside_triangle(coords, tri2d)
    center, radius = incircle(tri2d)
    d2 = (coords[:, 0] - center[0]) ** 2 + (coords[:, 1] - center[1]) ** 2
    return in_tri, center, radius, d2 <= radius * radius


def _stats(coords: np.ndarray, tri2d: np.ndarray) -> TripleStats:
    in_tri, center, radius, in_circ = containment(coords, tri2d)
    n = coords.shape[0]
    return TripleStats(
        inside_triangle_fraction=float(np.count_nonzero(in_tri)) / n,
        outside_incircle_fraction=1.0 - float(np.count_nonzero(in_circ)) / n,
        incenter=(float(center[0]), float(center[1])),
        inradius=float(radius),
    )


def triangle_stats(space: EmbeddingSpace, va: int, vb: int, vc: int) -> TripleStats:
    """Containment statistics of the whole cloud for one vertex triple.

    Fractions are over all N words, vertices included.
    """
    return _stats(*project_triple(space, va, vb, vc))
