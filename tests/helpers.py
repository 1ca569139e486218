"""Code that only the tests call.

``reference_containment`` is the triangle test written out independently
of the package's containment kernels; the others were package members
that no command used, kept here for the tests that check against them.
"""

import io

import numpy as np

from embshape import geometry
from embshape.embeddings import EmbeddingSpace, write_glove_text
from embshape.geometry import BARYCENTRIC_INSIDE_TOL, PoolProduct, TripleStats, incircle
from embshape.pca import PcaModel


def reference_containment(coords, tri2d):
    """``geometry.containment`` with the stacked N x 3 weights and their
    row minimum."""
    tri2d = np.asarray(tri2d, dtype=np.float64)
    (x1, y1), (x2, y2), (x3, y3) = tri2d
    det = (x1 - x3) * (y2 - y3) - (x2 - x3) * (y1 - y3)
    dx = coords[:, 0] - x3
    dy = coords[:, 1] - y3
    l1 = ((y2 - y3) * dx + (x3 - x2) * dy) / det
    l2 = ((y3 - y1) * dx + (x1 - x3) * dy) / det
    lam = np.column_stack((l1, l2, 1.0 - l1 - l2))
    in_tri = lam.min(axis=1) >= -BARYCENTRIC_INSIDE_TOL
    center, radius = incircle(tri2d)
    d2 = (coords[:, 0] - center[0]) ** 2 + (coords[:, 1] - center[1]) ** 2
    return in_tri, center, radius, d2 <= radius * radius


def reference_project(points, a, e1, e2):
    """The N x 2 coordinates of ``points`` in the plane through ``a`` with
    directions ``e1`` and ``e2``, each a mat-vec of the whole shifted
    stack."""
    shifted = points - a
    return np.column_stack((shifted @ e1, shifted @ e2))


def pool_project(product: PoolProduct, ia: int, ib: int, ic: int):
    """``project_triple`` for three pool words, from the products.

    The frame and the triangle are ``project_triple``'s (``_frame``);
    the words' coordinates agree with its to rounding.
    """
    *_, scale, tri2d = geometry._frame(product.space.vectors, ia, ib, ic)
    x, y, scratch = np.empty((3, product.space.n_words))
    product._coordinates((ia, ib, ic), scale, x, y, scratch)
    return np.column_stack((x, y)), tri2d


def pool_triangle_stats(product: PoolProduct, ia: int, ib: int, ic: int) -> TripleStats:
    """``triangle_stats`` for three pool words, from the products."""
    return geometry._stats(*pool_project(product, ia, ib, ic))


def project_onto_axis(space: EmbeddingSpace, pca: PcaModel, axis_index: int) -> np.ndarray:
    """Signed projections of the centered cloud onto one principal axis."""
    if not 0 <= axis_index < pca.num_axes:
        raise ValueError(
            "axis_index %d out of range [0, %d)" % (axis_index, pca.num_axes)
        )
    return (space.vectors - pca.mean) @ pca.axes[axis_index]


def format_glove_text(space: EmbeddingSpace) -> str:
    """The GloVe text of a space, as ``write_glove_text`` writes it."""
    buf = io.StringIO()
    write_glove_text(space, buf)
    return buf.getvalue()
