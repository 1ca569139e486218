"""Projection of the cloud onto vertex-triple planes and containment stats.

Everything here is plain affine geometry: build an orthonormal 2-d frame
through three cloud points, drop the whole cloud onto it, and count how
much of the vocabulary lands inside the triangle and its incircle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingSpace
from .errors import DegenerateTriangleError

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
) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal directions e1, e2 of the plane through a, b and c.

    e1 points along b-a; e2 is the Gram-Schmidt residual of c-a.
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
    r = w - (w @ e1) * e1
    nr = np.linalg.norm(r)
    if nr < 1e-9 * nw:
        raise DegenerateTriangleError("the three points are nearly collinear")
    return e1, r / nr


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
    e1, e2 = _plane_basis(a, b, c)

    def project(points: np.ndarray) -> np.ndarray:
        shifted = points - a
        return np.column_stack((shifted @ e1, shifted @ e2))

    return project(space.vectors), project(np.vstack((a, b, c)))


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


def barycentric(points: np.ndarray, tri2d: np.ndarray) -> np.ndarray:
    """Barycentric coordinates of 2-d point(s) w.r.t. a triangle.

    Accepts one point of shape (2,) or a batch of shape (n, 2); the result
    has a matching shape with 3 weights summing to 1 per point.
    """
    tri2d = np.asarray(tri2d, dtype=np.float64)
    det = _check_nondegenerate(tri2d)
    p = np.asarray(points, dtype=np.float64)
    single = p.ndim == 1
    p = np.atleast_2d(p)
    (x1, y1), (x2, y2), (x3, y3) = tri2d
    dx = p[:, 0] - x3
    dy = p[:, 1] - y3
    l1 = ((y2 - y3) * dx + (x3 - x2) * dy) / det
    l2 = ((y3 - y1) * dx + (x1 - x3) * dy) / det
    lam = np.column_stack((l1, l2, 1.0 - l1 - l2))
    return lam[0] if single else lam


def inside_triangle(points: np.ndarray, tri2d: np.ndarray) -> np.ndarray:
    """Boolean mask of points inside the triangle (boundary counts)."""
    lam = np.atleast_2d(barycentric(points, tri2d))
    return lam.min(axis=1) >= -BARYCENTRIC_INSIDE_TOL


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


def triangle_stats(space: EmbeddingSpace, va: int, vb: int, vc: int) -> TripleStats:
    """Containment statistics of the whole cloud for one vertex triple.

    Fractions are over all N words, vertices included.
    """
    coords, tri2d = project_triple(space, va, vb, vc)
    in_tri, center, radius, in_circ = containment(coords, tri2d)
    n = space.n_words
    return TripleStats(
        inside_triangle_fraction=float(np.count_nonzero(in_tri)) / n,
        outside_incircle_fraction=1.0 - float(np.count_nonzero(in_circ)) / n,
        incenter=(float(center[0]), float(center[1])),
        inradius=float(radius),
    )
