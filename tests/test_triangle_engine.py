"""The triangle engine: triangles drawn first, then counted at once by
``PoolProduct.count``.

The counts must be those of ``triangle_stats`` on the pool product's
coordinates, and of an independent containment reference, bit for bit; the
draws must redraw and fail where the one-by-one sampler did, and the triple
sample may reuse the filter's product only where that changes no bit.
"""

import itertools

import numpy as np
import pytest

from embshape import (
    DegenerateSamplingError,
    DegenerateTriangleError,
    ExtractionParams,
    Vertex,
    generate_simplex_cloud,
    triangle_stats,
)
from embshape import embeddings, extractor, geometry, report
from embshape.geometry import PoolProduct
from helpers import (
    pool_project,
    pool_triangle_stats,
    reference_containment,
    reference_project,
)

SYNTH = dict(dim=50, num_vertices=12, num_points=20_000, alpha=1.5, seed=1)


def _assert_counts_match_triangle_stats(product, triples):
    triangles = [product.triangle(*t) for t in triples]
    inside = product.count(triangles)
    both = product.count(triangles, incircle=True)
    for triple, (fraction, blank), pair in zip(triples, inside, both.tolist()):
        stats = pool_triangle_stats(product, *triple)
        assert fraction == stats.inside_triangle_fraction
        assert np.isnan(blank)
        assert pair == [stats.inside_triangle_fraction, stats.outside_incircle_fraction]
        # the same fractions from arithmetic that shares no kernel with count
        coords, tri2d = pool_project(product, *triple)
        in_tri, _, _, in_circ = reference_containment(coords, tri2d)
        n = len(coords)
        assert pair == [np.count_nonzero(in_tri) / n, 1.0 - np.count_nonzero(in_circ) / n]


class TestCount:
    def test_all_220_true_triples_of_the_reference_cloud(self):
        cloud = generate_simplex_cloud(sigma=0.0, **SYNTH)
        triples = list(itertools.combinations(cloud.true_vertices, 3))
        assert len(triples) == 220
        product = PoolProduct(cloud.space, cloud.true_vertices)
        _assert_counts_match_triangle_stats(product, triples)

    def test_random_triples_of_a_noisy_cloud(self):
        cloud = generate_simplex_cloud(sigma=0.01, **SYNTH)
        rng = np.random.default_rng(21)
        others = rng.choice(cloud.space.n_words, size=20, replace=False)
        pool = list(cloud.true_vertices) + [int(w) for w in others]
        triples = [
            tuple(pool[int(p)] for p in rng.choice(len(pool), 3, replace=False))
            for _ in range(200)
        ]
        _assert_counts_match_triangle_stats(PoolProduct(cloud.space, pool), triples)

    def test_no_triangles(self, small_cloud):
        product = PoolProduct(small_cloud.space, small_cloud.true_vertices)
        assert product.count([]).shape == (0, 2)

    def test_a_triangle_containment_rejects_is_rejected_when_drawn(self):
        # corners far apart along one axis and barely off it: the frame is
        # built, but the projected triangle has no area
        space = embeddings.EmbeddingSpace(
            words=["a", "b", "c"],
            vectors=np.array([[0.0, 0.0], [1e-4, 0.0], [1.0, 2e-9]]),
        )
        product = PoolProduct(space, [0, 1, 2])
        pool_project(product, 0, 1, 2)
        with pytest.raises(DegenerateTriangleError, match="area"):
            triangle_stats(space, 0, 1, 2)
        with pytest.raises(DegenerateTriangleError, match="area"):
            product.triangle(0, 1, 2)


def reference_frame(a, b, c):
    """``_plane_basis`` with np.linalg.norm, as it was written before."""
    u = b - a
    nu = np.linalg.norm(u)
    e1 = u / nu
    w = c - a
    t = w @ e1
    r = w - t * e1
    nr = np.linalg.norm(r)
    return e1, r / nr, (nu, t, nr)


def reference_area_and_scale(tri2d):
    """The signed double area and squared longest side on numpy scalars, as
    ``_check_nondegenerate`` computed them before."""
    (x1, y1), (x2, y2), (x3, y3) = tri2d
    det = (x1 - x3) * (y2 - y3) - (x2 - x3) * (y1 - y3)
    scale2 = max(
        float(np.sum((tri2d[i] - tri2d[j]) ** 2)) for i, j in ((0, 1), (0, 2), (1, 2))
    )
    return det, scale2


def test_the_frame_and_the_degeneracy_test_keep_their_bits():
    rng = np.random.default_rng(9)
    checked = rejected = 0
    for _ in range(3000):
        dim = int(rng.integers(2, 60))
        a, b, c = rng.standard_normal((3, dim)) * 10.0 ** rng.uniform(-6, 6)
        if rng.random() < 0.3:  # near a line through a and b
            c = a + rng.uniform(-3, 3) * (b - a) + rng.standard_normal(dim) * 1e-10
        try:
            e1, e2, scale = geometry._plane_basis(a, b, c)
        except DegenerateTriangleError:
            continue
        ref_e1, ref_e2, ref_scale = reference_frame(a, b, c)
        assert e1.tobytes() == ref_e1.tobytes() and e2.tobytes() == ref_e2.tobytes()
        assert [float(v).hex() for v in scale] == [float(v).hex() for v in ref_scale]
        stack = np.vstack((a, b, c))
        tri2d = reference_project(stack, a, e1, e2)
        assert geometry._frame(stack, 0, 1, 2)[-1].tobytes() == tri2d.tobytes()
        tri2d[2] = tri2d[2] * rng.choice([1.0, 1e-12])  # some flat triangles
        det, scale2 = reference_area_and_scale(tri2d)
        if abs(det) <= geometry._DEGENERACY_REL_TOL * scale2:
            rejected += 1
            with pytest.raises(DegenerateTriangleError, match="area"):
                geometry._check_nondegenerate(tri2d)
        else:
            checked += 1
            assert float(geometry._check_nondegenerate(tri2d)).hex() == float(det).hex()
    assert checked > 1000 and rejected > 100


def _vertex(word: int) -> Vertex:
    return Vertex(representative=word, members=(), neighbor_set=())


class TestSharedProduct:
    def _analyze(self, cloud, monkeypatch, **config):
        built = []
        real = geometry.PoolProduct.__init__

        def counted(self, space, pool):
            built.append(list(pool))
            real(self, space, pool)

        monkeypatch.setattr(geometry.PoolProduct, "__init__", counted)
        rep = report.analyze_space(
            cloud.space, report.AnalysisConfig(input_path="<memory>", **config), "<memory>"
        )
        return rep, built

    def test_the_triples_reuse_the_filters_product(self, small_cloud, monkeypatch):
        rep, built = self._analyze(small_cloud, monkeypatch, triple_samples=30)
        assert not rep.rejected and len(rep.triple_sample) == 30
        assert len(built) == 1

    def test_after_a_rejection_the_triples_count_over_the_survivors(
        self, small_cloud, monkeypatch
    ):
        space = small_cloud.space
        center = space.vectors.mean(axis=0)
        centroid = int(np.argmin(np.linalg.norm(space.vectors - center, axis=1)))
        glue = report.glue_candidates
        monkeypatch.setattr(
            report, "glue_candidates", lambda *args: glue(*args) + [_vertex(centroid)]
        )
        # the corners leave 0.23-0.40 of the cloud outside, the centroid 0.78
        rep, built = self._analyze(small_cloud, monkeypatch, triple_samples=30, tau=0.5)
        assert [v["token"] for v in rep.rejected] == [space.words[centroid]]
        survivors = [space.index[v["token"]] for v in rep.vertices]
        assert len(built) == 1 and len(survivors) < len(built[0])
        fresh = report.sample_triple_stats(small_cloud.space, survivors, 30, 0)
        assert rep.triple_sample == fresh


def test_a_degenerate_sampling_error_names_the_first_vertex_without_triangles():
    # vertices 2-11 share one point and 0 and 1 lie off it: a draw is a
    # triangle only when it holds 0, 1 and one shared point, which a rank of
    # a shared point draws far less often than ranks 0 and 1, so some ranks
    # run out of draws and others do not
    rng = np.random.default_rng(8)
    point, a, b = rng.standard_normal((3, 6))
    filler = rng.standard_normal((40, 6))
    vectors = np.vstack([a, b] + [point] * 10 + [filler])
    space = embeddings.EmbeddingSpace(["w%d" % i for i in range(len(vectors))], vectors)
    vertices = [_vertex(i) for i in range(12)]
    params = ExtractionParams(num_axes=1, k=3, trials=1, tau=1.0, seed=2)

    # the reference: the ranks' own streams and triangle_stats, one by one
    reps = list(range(12))
    empty = []
    for rank in reps:
        others = reps[:rank] + reps[rank + 1 :]
        draws = np.random.default_rng([params.seed, 0, rank])
        for _ in range(10 * params.trials):
            picks = draws.choice(len(others), size=2, replace=False)
            try:
                triangle_stats(space, rank, *(others[int(p)] for p in picks))
                break
            except DegenerateTriangleError:
                continue
        else:
            empty.append(rank)
    assert len(empty) > 1 and empty[0] > 0

    with pytest.raises(DegenerateSamplingError, match="'w%d'$" % empty[0]):
        extractor.filter_false_vertices(space, vertices, params)
