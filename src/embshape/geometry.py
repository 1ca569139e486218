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

Whether a triangle is degenerate is thus known before any word is
projected: samplers draw their triangles with ``PoolProduct.triangle``
first and then count them all with one ``PoolProduct.count``.
"""

from __future__ import annotations

import itertools
import math
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
    # sqrt(v.dot(v)) is np.linalg.norm(v) for a vector, without its checks
    u = b - a
    nu = math.sqrt(u.dot(u))
    if nu < 1e-12:
        raise DegenerateTriangleError("first two points coincide")
    e1 = u / nu
    w = c - a
    nw = math.sqrt(w.dot(w))
    if nw < 1e-12:
        raise DegenerateTriangleError("the third point coincides with the first")
    t = w @ e1
    r = w - t * e1
    nr = math.sqrt(r.dot(r))
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


@dataclass(frozen=True, eq=False)
class PoolTriangle:
    """A triangle of three pool words that projection and containment
    accept: its corners, the frame's (|u|, w.e1, |r|) from ``_plane_basis``,
    its 3 x 2 triangle and that triangle's signed double area."""

    corners: tuple[int, int, int]
    scale: tuple[float, float, float]
    tri2d: np.ndarray
    det: float


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
        self._products = centered_product(
            space.vectors, space.mean, space.vectors[words] - space.mean
        )

    def _frame(self, ia: int, ib: int, ic: int) -> tuple[tuple, np.ndarray]:
        """The frame's (|u|, w.e1, |r|) and the 3 x 2 triangle, from the
        corner vectors exactly as in ``project_triple``."""
        a, b, c = (self.space.vectors[i] for i in (ia, ib, ic))
        e1, e2, scale = _plane_basis(a, b, c)
        return scale, _project(np.vstack((a, b, c)), a, e1, e2)

    def _coordinates(self, corners, scale, x, y, scratch) -> None:
        """Write every word's frame coordinates into the N-length buffers
        ``x`` and ``y``: x = du / |u| and y = (dw - (w.e1) x) / |r|, where
        du = g_b - g_a and dw = g_c - g_a, each shifted to 0 at corner a."""
        nu, t, nr = scale
        ga, gb, gc = (self._products[self._row[i]] for i in corners)
        np.subtract(gb, ga, out=x)
        x -= x[corners[0]]
        x /= nu
        np.subtract(gc, ga, out=y)
        y -= y[corners[0]]
        np.multiply(x, t, out=scratch)
        y -= scratch
        y /= nr

    def project(self, ia: int, ib: int, ic: int) -> tuple[np.ndarray, np.ndarray]:
        """``project_triple`` for three pool words, from the products.

        The frame and the triangle come from the corner vectors exactly as
        in ``project_triple``; the words' coordinates agree with its to
        rounding.
        """
        scale, tri2d = self._frame(ia, ib, ic)
        x, y, scratch = np.empty((3, self.space.n_words))
        self._coordinates((ia, ib, ic), scale, x, y, scratch)
        return np.column_stack((x, y)), tri2d

    def triangle_stats(self, ia: int, ib: int, ic: int) -> TripleStats:
        """``triangle_stats`` for three pool words, from the products."""
        return _stats(*self.project(ia, ib, ic))

    def triangle(self, ia: int, ib: int, ic: int) -> PoolTriangle:
        """The triangle of three pool words, for ``count``. It is built
        from the corner vectors alone, and raises ``DegenerateTriangleError``
        where ``project`` or ``containment`` would."""
        scale, tri2d = self._frame(ia, ib, ic)
        return PoolTriangle((ia, ib, ic), scale, tri2d, _check_nondegenerate(tri2d))

    def count(self, triangles: Sequence[PoolTriangle], incircle: bool = False) -> np.ndarray:
        """Per triangle, the fraction of the N words inside it and, with
        ``incircle``, the fraction outside its incircle (NaN without): the
        fractions of ``triangle_stats``, bit for bit, as a T x 2 array.

        Without the incircle the inside mask is counted from the
        expressions of ``_barycentric_weights``, evaluated in the same order
        into five preallocated N-length buffers; with it the coordinates go
        to ``containment``.
        """
        n = self.space.n_words
        fractions = np.full((len(triangles), 2), np.nan)
        x, y, scratch, l1, l2 = np.empty((5, n))
        inside, other = np.empty((2, n), dtype=bool)
        floor = -BARYCENTRIC_INSIDE_TOL
        for row, tri in zip(fractions, triangles):
            self._coordinates(tri.corners, tri.scale, x, y, scratch)
            if incircle:
                stats = _stats(np.column_stack((x, y)), tri.tri2d)
                row[:] = stats.inside_triangle_fraction, stats.outside_incircle_fraction
                continue
            (x1, y1), (x2, y2), (x3, y3) = tri.tri2d
            x -= x3  # dx
            y -= y3  # dy
            np.multiply(x, y2 - y3, out=l1)
            np.multiply(y, x3 - x2, out=scratch)
            l1 += scratch
            l1 /= tri.det
            np.multiply(x, y3 - y1, out=l2)
            np.multiply(y, x1 - x3, out=scratch)
            l2 += scratch
            l2 /= tri.det
            np.subtract(1.0, l1, out=scratch)
            scratch -= l2  # l3
            np.greater_equal(l1, floor, out=inside)
            inside &= np.greater_equal(l2, floor, out=other)
            inside &= np.greater_equal(scratch, floor, out=other)
            row[0] = float(np.count_nonzero(inside)) / n
        return fractions


def _check_nondegenerate(tri2d: np.ndarray) -> float:
    """The triangle's signed double area; raises when it is ~0 against the
    squared length of its longest side. Computed on Python floats, which
    round each operation as numpy's float64 does."""
    (x1, y1), (x2, y2), (x3, y3) = corners = tri2d.tolist()
    det = (x1 - x3) * (y2 - y3) - (x2 - x3) * (y1 - y3)
    scale2 = max(
        (p[0] - q[0]) * (p[0] - q[0]) + (p[1] - q[1]) * (p[1] - q[1])
        for p, q in itertools.combinations(corners, 2)
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
