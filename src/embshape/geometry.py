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
triangle: the ``pca.row_products`` of the cloud with the frame's two
directions. Both build the frame and the 3 x 2 triangle from the corner
vectors with ``_frame``, so they raise the same ``DegenerateTriangleError``s.

Whether a triangle is degenerate is thus known before any word is
projected: samplers draw their triangles with ``PoolProduct.triangle``
first and then count them all with one ``PoolProduct.count``.

The triangle test is written once, as three kernels on N-length buffers:
``_weights`` (the barycentric weights), ``_inside_mask`` and
``_incircle_mask``. ``PoolProduct.count`` runs them on one set of buffers
for all its triangles, or one per half when it splits them between two
threads; ``barycentric``, ``inside_triangle`` and ``containment`` run them
on fresh ones. Where a C compiler is installed, ``PoolProduct.count`` runs
the same operations, with ``_coordinates``, as one compiled loop per
triangle instead (``kernel``), with the same bits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernel
from .embeddings import EmbeddingSpace
from .errors import DegenerateTriangleError
from .parallel import run_halves, two_threads
from .pca import centered_product, row_products

# A point counts as inside the triangle when all barycentric coordinates
# are >= -BARYCENTRIC_INSIDE_TOL, so boundaries and vertices are inside.
BARYCENTRIC_INSIDE_TOL = 1e-9

_DEGENERACY_REL_TOL = 1e-12

# PoolProduct.count splits its triangles between two threads from this many
# words on. On 2 vCPUs the split took 0.6-0.8 of the serial time at 30000
# to 50000 words and 0.8-1.1 at 20000, where it gains little for its CPU.
_SPLIT_WORDS = 1 << 15


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


def _frame(vectors: np.ndarray, ia: int, ib: int, ic: int):
    """The frame of rows ``ia``, ``ib``, ``ic`` of ``vectors``: its origin
    a, its directions e1 and e2, its (|u|, w.e1, |r|) from ``_plane_basis``
    and the 3 x 2 triangle.

    The triangle is the ``row_products`` of its own 3 x D stack rather
    than rows read from the cloud's projection: a mat-vec of three rows
    takes another BLAS kernel than one of a cloud block, and the reports
    are pinned to this arithmetic.
    """
    a, b, c = vectors[ia], vectors[ib], vectors[ic]
    e1, e2, scale = _plane_basis(a, b, c)
    tri2d = row_products(np.vstack((a, b, c)), (e1, e2), a).T.copy()
    return a, e1, e2, scale, tri2d


def project_triple(
    space: EmbeddingSpace, ia: int, ib: int, ic: int
) -> tuple[np.ndarray, np.ndarray]:
    """Project the whole cloud onto the plane through three of its words.

    The plane's origin is word ``ia``. Returns the N x 2 coordinates of
    every word, the ``row_products`` of the cloud with the plane's two
    directions, and the 3 x 2 triangle of words ``ia``, ``ib``, ``ic``
    (see ``_frame``).
    """
    a, e1, e2, _, tri2d = _frame(space.vectors, ia, ib, ic)
    return row_products(space.vectors, (e1, e2), a).T.copy(), tri2d


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

    def triangle(self, ia: int, ib: int, ic: int) -> PoolTriangle:
        """The triangle of three pool words, for ``count``. It is built
        from the corner vectors alone, and raises ``DegenerateTriangleError``
        where ``project_triple`` or ``containment`` would."""
        *_, scale, tri2d = _frame(self.space.vectors, ia, ib, ic)
        return PoolTriangle((ia, ib, ic), scale, tri2d, _check_nondegenerate(tri2d))

    def count(self, triangles: Sequence[PoolTriangle], incircle: bool = False) -> np.ndarray:
        """Per triangle, the fraction of the N words inside it and, with
        ``incircle``, the fraction outside its incircle (NaN without), as a
        T x 2 array: the fractions ``containment`` gives on the words' frame
        coordinates, bit for bit.

        The count runs in ``kernel.count_kernel``, the compiled loop, or,
        when there is none, in the numpy kernels (see ``_count_part``). A
        cloud of ``_SPLIT_WORDS`` or more words is counted in two halves of
        the triangles (``parallel.run_halves``).
        """
        fractions = np.full((len(triangles), 2), np.nan)
        compiled = kernel.count_kernel()

        def count_part(part: range) -> None:
            part = slice(part.start, part.stop)
            self._count_part(compiled, triangles[part], incircle, fractions[part])

        n = self._products.shape[1]
        split = two_threads(n >= _SPLIT_WORDS, len(triangles))
        run_halves(count_part, range(len(triangles)), split)
        return fractions

    def _count_part(self, compiled, triangles, circle: bool, out: np.ndarray) -> None:
        """``count`` of ``triangles`` into their rows ``out``, with the
        incircle when ``circle``, through the ``compiled`` kernel or, when
        that is None, the numpy kernels.

        The numpy loop shares five N-length buffers among the triangles:
        ``_incircle_mask`` reads the frame coordinates before ``_weights``
        shifts them in place. The compiled loop takes the same operations
        per word, and its numbers per triangle are computed here as the
        numpy kernels compute them. It reads the float64 rows of
        ``_products``, whose words lie at unit stride, and writes ``out``,
        rows of the C-ordered fractions, through their pointers.
        """
        g = self._products
        n = g.shape[1]
        if compiled is not None:
            rows, params = [], []
            for tri in triangles:
                rows.append([self._row[i] for i in tri.corners] + [tri.corners[0]])
                (x1, y1), (x2, y2), (x3, y3) = tri.tri2d.tolist()
                cx = cy = rr = 0.0
                if circle:
                    (cx, cy), radius = incircle(tri.tri2d)
                    rr = radius * radius
                params.append(
                    (*tri.scale, x3, y3, y2 - y3, x3 - x2, y3 - y1, x1 - x3, tri.det, cx, cy, rr)
                )
            rows = np.array(rows, dtype=np.int64)
            params = np.array(params, dtype=np.float64)
            compiled(
                g.ctypes.data, g.strides[0] // g.itemsize, n, len(triangles),
                rows.ctypes.data, params.ctypes.data, circle,
                -BARYCENTRIC_INSIDE_TOL, out.ctypes.data,
            )
            return
        x, y, l1, l2, l3 = np.empty((5, n))
        mask, scratch = np.empty((2, n), dtype=bool)
        for row, tri in zip(out, triangles):
            self._coordinates(tri.corners, tri.scale, x, y, l3)
            if circle:
                _incircle_mask(x, y, tri.tri2d, mask, l1, l2)
                row[1] = 1.0 - float(np.count_nonzero(mask)) / n
            _weights(x, y, tri.tri2d, tri.det, l1, l2, l3)
            _inside_mask(l1, l2, l3, mask, scratch)
            row[0] = float(np.count_nonzero(mask)) / n


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


def _weights(x, y, tri2d, det, l1, l2, l3) -> None:
    """Write the barycentric weights of the points (x, y) against
    ``tri2d``, whose signed double area is ``det``, into ``l1``, ``l2`` and
    ``l3``; ``x`` and ``y`` are shifted to the third corner in place."""
    (x1, y1), (x2, y2), (x3, y3) = tri2d
    x -= x3  # dx
    y -= y3  # dy
    np.multiply(x, y2 - y3, out=l1)
    np.multiply(y, x3 - x2, out=l3)
    l1 += l3
    l1 /= det
    np.multiply(x, y3 - y1, out=l2)
    np.multiply(y, x1 - x3, out=l3)
    l2 += l3
    l2 /= det
    np.subtract(1.0, l1, out=l3)
    l3 -= l2


def _inside_mask(l1, l2, l3, out, scratch) -> None:
    """Write into the boolean ``out`` whether all three weights are
    >= -BARYCENTRIC_INSIDE_TOL; ``scratch`` is a second boolean buffer."""
    floor = -BARYCENTRIC_INSIDE_TOL
    np.greater_equal(l1, floor, out=out)
    out &= np.greater_equal(l2, floor, out=scratch)
    out &= np.greater_equal(l3, floor, out=scratch)


def _incircle_mask(x, y, tri2d, out, dx, dy) -> tuple[np.ndarray, float]:
    """Write into the boolean ``out`` whether each point (x, y) lies in the
    incircle of ``tri2d``, (x - cx)^2 + (y - cy)^2 <= r * r, with ``dx``
    and ``dy`` as scratch. Returns the incenter and the inradius."""
    center, radius = incircle(tri2d)
    np.square(np.subtract(x, center[0], out=dx), out=dx)
    np.square(np.subtract(y, center[1], out=dy), out=dy)
    dx += dy
    np.less_equal(dx, radius * radius, out=out)
    return center, radius


def _barycentric_weights(points: np.ndarray, tri2d: np.ndarray) -> np.ndarray:
    """The three barycentric weights of a batch of 2-d points, as the rows
    of a 3 x n array (one point of shape (2,) counts as a batch of one)."""
    tri2d = np.asarray(tri2d, dtype=np.float64)
    det = _check_nondegenerate(tri2d)
    p = np.atleast_2d(np.asarray(points, dtype=np.float64))
    weights = np.empty((3, len(p)))
    _weights(p[:, 0].copy(), p[:, 1].copy(), tri2d, det, *weights)
    return weights


def barycentric(points: np.ndarray, tri2d: np.ndarray) -> np.ndarray:
    """Barycentric coordinates of 2-d point(s) w.r.t. a triangle.

    Accepts one point of shape (2,) or a batch of shape (n, 2); the result
    has a matching shape with 3 weights summing to 1 per point.
    """
    lam = np.column_stack(_barycentric_weights(points, tri2d))
    return lam[0] if np.ndim(points) == 1 else lam


def inside_triangle(points: np.ndarray, tri2d: np.ndarray) -> np.ndarray:
    """Boolean mask of points inside the triangle (boundary counts)."""
    weights = _barycentric_weights(points, tri2d)
    mask, scratch = np.empty((2, weights.shape[1]), dtype=bool)
    _inside_mask(*weights, mask, scratch)
    return mask


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
    in_circ = np.empty(len(coords), dtype=bool)
    dx, dy = np.empty((2, len(coords)))
    center, radius = _incircle_mask(coords[:, 0], coords[:, 1], tri2d, in_circ, dx, dy)
    return in_tri, center, radius, in_circ


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
