"""The fast kernels against the ones they replaced.

The references below are the triangle count, neighbor ranking and vertex
description as they were computed before the buffered containment kernels,
the partial top-k sort and the stored glue ranking. The kernels must agree
with them bit for bit, and so must whole reports built on them.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embshape import (
    AnalysisConfig,
    EmbeddingSpace,
    analyze_space,
    emit_report,
    generate_simplex_cloud,
    topk_neighbors,
)
from embshape import extractor, geometry, report
from helpers import reference_containment


def _space(vectors):
    vectors = np.asarray(vectors, dtype=np.float64)
    return EmbeddingSpace(
        words=["w%d" % i for i in range(len(vectors))], vectors=vectors
    )


def _bits(ranked):
    """(index, similarity) pairs with the similarity's exact bits."""
    return [(i, float(s).hex()) for i, s in ranked]


def reference_count(product, triangles, incircle=False):
    """``PoolProduct.count`` with each triangle's coordinates stacked and
    handed to ``reference_containment``."""
    n = product.space.n_words
    fractions = np.full((len(triangles), 2), np.nan)
    x, y, scratch = np.empty((3, n))
    for row, tri in zip(fractions, triangles):
        product._coordinates(tri.corners, tri.scale, x, y, scratch)
        in_tri, _, _, in_circ = reference_containment(np.column_stack((x, y)), tri.tri2d)
        row[0] = float(np.count_nonzero(in_tri)) / n
        if incircle:
            row[1] = 1.0 - float(np.count_nonzero(in_circ)) / n
    return fractions


# topk_neighbors as it was before the partial sort: the same mat-vec, then
# one lexsort of all N words. Kept as the reference. It takes ``products``
# only to stand in for glue's call and ignores it: its own mat-vec checks
# the products glue hands over.
def reference_topk_neighbors(space, query, k, products=None):
    query = np.asarray(query, dtype=np.float64)
    qnorm = np.linalg.norm(query)
    norms = space.row_norms
    zero = norms == 0.0
    sims = (space.vectors @ query) / (np.where(zero, 1.0, norms) * qnorm)
    sims[zero] = 0.0
    order = np.lexsort((np.arange(space.n_words), -sims, zero))
    return [(int(i), float(sims[i])) for i in order[:k]]


def reference_describe_vertex(space, vertex, k_desc=5):
    """``describe_vertex`` by a fresh query, ignoring the stored ranking."""
    k = min(k_desc, space.n_words)
    query = space.vectors[vertex.representative]
    return [(space.words[i], s) for i, s in reference_topk_neighbors(space, query, k)]


class TestTopkAgainstFullSort:
    """The partial sort returns the full lexsort's prefix, bit for bit."""

    def _assert_every_k_matches(self, space, query):
        held = space.vectors @ query
        for k in range(1, space.n_words + 1):
            reference = _bits(reference_topk_neighbors(space, query, k))
            assert _bits(topk_neighbors(space, query, k)) == reference, k
            assert _bits(topk_neighbors(space, query, k, products=held)) == reference, k

    def test_duplicates_zero_rows_and_negative_similarities(self):
        rng = np.random.default_rng(3)
        distinct = rng.standard_normal((6, 4))
        # exact copies of each distinct row (scaling by a power of two keeps
        # the similarity's bits) straddle every k-th place; zero rows and
        # rows pointing away from the query sit in between
        rows = [distinct[i % 6] * 2.0 ** (i // 6) for i in range(30)]
        rows[4:4] = [np.zeros(4)] * 3
        rows += [-distinct[0], np.zeros(4), -distinct[0]]
        space = _space(rows)
        for query in (distinct[0], distinct[3], -distinct[1]):
            self._assert_every_k_matches(space, query)

    def test_k_equal_to_the_nonzero_rows_and_to_n(self):
        space = _space([(1.0, 0.0), (0.0, 0.0), (1.0, 1.0), (0.0, 0.0), (-1.0, 2.0)])
        query = np.array([1.0, 0.5])
        assert _bits(topk_neighbors(space, query, 3)) == _bits(
            reference_topk_neighbors(space, query, 3)
        )
        ranked = topk_neighbors(space, query, 5)
        assert [i for i, _ in ranked] == [2, 0, 4, 1, 3]
        assert _bits(ranked) == _bits(reference_topk_neighbors(space, query, 5))

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.lists(
            st.lists(st.integers(min_value=-2, max_value=2), min_size=3, max_size=3),
            min_size=1,
            max_size=25,
        ),
        query=st.lists(st.integers(min_value=-2, max_value=2), min_size=3, max_size=3),
    )
    def test_small_integer_clouds_full_of_ties(self, rows, query):
        query = np.array(query, dtype=np.float64)
        if not query.any():
            query[0] = 1.0
        self._assert_every_k_matches(_space(rows), query)


class TestReportsWithReferenceKernels:
    @pytest.mark.parametrize("sigma", [0.0, 0.01])
    def test_json_and_text_bytes_are_identical(self, sigma, monkeypatch):
        cloud = generate_simplex_cloud(
            dim=20, num_vertices=8, num_points=3000, alpha=1.5, sigma=sigma, seed=5
        )
        config = AnalysisConfig(input_path="<memory>", seed=3)

        def reports():
            rep = analyze_space(cloud.space, config, source="<memory>")
            return emit_report(rep, "json"), emit_report(rep, "text")

        fast = reports()
        calls = {"count": 0, "topk": 0, "describe": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        # the filter's counts and the triple sample's both go through count
        monkeypatch.setattr(geometry.PoolProduct, "count", counted("count", reference_count))
        monkeypatch.setattr(
            extractor, "topk_neighbors", counted("topk", reference_topk_neighbors)
        )
        monkeypatch.setattr(
            report, "describe_vertex", counted("describe", reference_describe_vertex)
        )
        reference = reports()
        assert min(calls.values()) > 0, calls
        assert b'"similarity"' in fast[0]
        assert fast == reference
