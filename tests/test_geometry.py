import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embshape import (
    DegenerateTriangleError,
    EmbeddingSpace,
    barycentric,
    generate_simplex_cloud,
    incircle,
    inside_triangle,
    project_triple,
    triangle_stats,
)
from embshape.geometry import BARYCENTRIC_INSIDE_TOL, PoolProduct, containment
from helpers import pool_project, pool_triangle_stats


def _space(vectors):
    vectors = np.asarray(vectors, dtype=np.float64)
    return EmbeddingSpace(
        words=["w%d" % i for i in range(len(vectors))], vectors=vectors
    )


def half_plane_inside(point, tri2d, eps=0.0):
    """Orientation oracle: the point is inside iff it is on the same side
    of all three (consistently oriented) edges."""
    signs = []
    for i in range(3):
        a, b = tri2d[i], tri2d[(i + 1) % 3]
        cross = (b[0] - a[0]) * (point[1] - a[1]) - (b[1] - a[1]) * (point[0] - a[0])
        signs.append(cross)
    return all(s >= -eps for s in signs) or all(s <= eps for s in signs)


def _in_plane_points(rng, a, b, c, n):
    """n random affine combinations a + s (b - a) + t (c - a)."""
    weights = rng.uniform(-2, 2, size=(n, 2))
    return weights, a + weights[:, :1] * (b - a) + weights[:, 1:] * (c - a)


def _plane_normal(rng, a, b, c):
    """A random nonzero direction orthogonal to b - a and c - a."""
    q, _ = np.linalg.qr(np.column_stack((b - a, c - a)))
    r = rng.standard_normal(len(a))
    return r - q @ (q.T @ r)


def _assert_plane_isometry(a, b, c, rng, tol):
    """project_triple's frame is an orthonormal basis of the plane through
    a, b, c: in-plane points keep their pairwise distances and their
    distance to a (so each one reconstructs from its 2-d coordinates), and
    a shift along the plane's normal leaves a point's coordinates as they
    are."""
    _, pts = _in_plane_points(rng, a, b, c, 10)
    n = _plane_normal(rng, a, b, c)
    on_plane = np.vstack([a, b, c, pts])
    coords, _ = project_triple(_space(np.vstack([on_plane, on_plane + n])), 0, 1, 2)
    k = len(on_plane)
    for i in range(k):
        for j in range(i + 1, k):
            d2 = np.linalg.norm(coords[i] - coords[j])
            dd = np.linalg.norm(on_plane[i] - on_plane[j])
            assert abs(d2 - dd) < tol * max(dd, 1.0)
    for i in range(k):
        r = np.linalg.norm(on_plane[i] - a)
        assert abs(np.linalg.norm(coords[i]) - r) < tol * max(r, 1.0)
        assert np.linalg.norm(coords[k + i] - coords[i]) < tol * max(r, 1.0)


class TestPlaneBasis:
    def test_already_orthonormal(self):
        # e1 = x and e2 = y: points of the xy plane keep their coordinates
        space = _space([(0.0, 0, 0), (1, 0, 0), (0, 1, 0), (3, -2, 0), (0.5, 4, 0)])
        coords, tri2d = project_triple(space, 0, 1, 2)
        assert np.array_equal(coords, space.vectors[:, :2])
        assert np.array_equal(tri2d, [[0, 0], [1, 0], [0, 1]])

    def test_gram_schmidt_removes_e1_component(self):
        space = _space([(0.0, 0, 0), (2, 0, 0), (1, 1, 0), (3, -2, 0), (0.5, 4, 0)])
        coords, _ = project_triple(space, 0, 1, 2)
        assert np.allclose(coords, space.vectors[:, :2])
        _assert_plane_isometry(*space.vectors[:3], np.random.default_rng(1), 1e-12)

    def test_random_high_dim_triples(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a, b, c = rng.standard_normal((3, 300))
            _assert_plane_isometry(a, b, c, rng, 1e-9)

    def test_coincident_points_fail(self):
        space = _space([(0.0, 0, 0), (0, 0, 0), (1, 0, 0)])
        with pytest.raises(DegenerateTriangleError, match="first two points coincide"):
            project_triple(space, 0, 1, 2)

    def test_collinear_points_fail(self):
        space = _space([(0.0, 0, 0), (1, 0, 0), (2, 1e-12, 0)])
        with pytest.raises(DegenerateTriangleError, match="nearly collinear"):
            project_triple(space, 0, 1, 2)

    def test_third_point_coincident_with_first_fails(self):
        space = _space([(0.0, 0, 0), (1, 0, 0), (0, 0, 0)])
        with pytest.raises(DegenerateTriangleError, match="coincides with the first"):
            project_triple(space, 0, 1, 2)


class TestProjectToPlane:
    def test_origin_maps_to_zero(self):
        space = _space([(0.5, 2, -1), (1, 0, 0), (0, 1, 0)])
        coords, tri2d = project_triple(space, 0, 1, 2)
        assert np.array_equal(coords[0], [0.0, 0.0])
        assert np.array_equal(tri2d[0], [0.0, 0.0])

    def test_in_plane_points_reconstruct(self):
        # an in-plane point p projects to (x, y) with |(x, y)| = |p - a|,
        # so p = a + x e1 + y e2; a point off the plane lands on the
        # coordinates of its foot
        rng = np.random.default_rng(8)
        a, b, c = rng.standard_normal((3, 10))
        _, pts = _in_plane_points(rng, a, b, c, 10)
        n = _plane_normal(rng, a, b, c)
        coords, _ = project_triple(_space(np.vstack([a, b, c, pts, pts + n])), 0, 1, 2)
        for i, p in enumerate(pts):
            assert abs(np.linalg.norm(coords[3 + i]) - np.linalg.norm(p - a)) < 1e-9
            assert np.linalg.norm(coords[13 + i] - coords[3 + i]) < 1e-9

    def test_projection_is_1_lipschitz(self):
        rng = np.random.default_rng(9)
        space = _space(rng.standard_normal((200, 40)))
        coords, _ = project_triple(space, 0, 1, 2)
        for _ in range(200):
            i, j = rng.integers(0, 200, 2)
            d2 = np.linalg.norm(coords[i] - coords[j])
            dd = np.linalg.norm(space.vectors[i] - space.vectors[j])
            assert d2 <= dd + 1e-12

    def test_tri2d_distances_match_high_dim(self):
        rng = np.random.default_rng(10)
        space = _space(rng.standard_normal((5, 60)))
        _, tri2d = project_triple(space, 0, 1, 2)
        pts = space.vectors[[0, 1, 2]]
        for i in range(3):
            for j in range(i + 1, 3):
                d2 = np.linalg.norm(tri2d[i] - tri2d[j])
                dd = np.linalg.norm(pts[i] - pts[j])
                assert d2 == pytest.approx(dd, rel=1e-6)


class TestBarycentric:
    def test_centroid(self):
        tri = np.array([[0.0, 0.0], [4.0, 0.0], [1.0, 3.0]])
        lam = barycentric(tri.mean(axis=0), tri)
        assert np.allclose(lam, [1 / 3, 1 / 3, 1 / 3], atol=1e-12)

    def test_vertex(self):
        tri = np.array([[0.0, 0.0], [4.0, 0.0], [1.0, 3.0]])
        assert np.allclose(barycentric(tri[0], tri), [1, 0, 0], atol=1e-12)
        assert np.allclose(barycentric(tri[1], tri), [0, 1, 0], atol=1e-12)
        assert np.allclose(barycentric(tri[2], tri), [0, 0, 1], atol=1e-12)

    def test_weights_sum_to_one_batch(self):
        rng = np.random.default_rng(2)
        tri = np.array([[0.0, 0.0], [2.0, 0.5], [0.5, 3.0]])
        pts = rng.uniform(-5, 5, size=(500, 2))
        lam = barycentric(pts, tri)
        assert np.max(np.abs(lam.sum(axis=1) - 1.0)) < 1e-9

    @settings(max_examples=100, deadline=None)
    @given(
        px=st.floats(min_value=-50, max_value=50),
        py=st.floats(min_value=-50, max_value=50),
    )
    def test_sum_to_one_property(self, px, py):
        tri = np.array([[-1.0, -1.0], [3.0, 0.0], [0.0, 2.0]])
        lam = barycentric(np.array([px, py]), tri)
        assert abs(lam.sum() - 1.0) < 1e-9

    def test_agrees_with_half_plane_oracle(self):
        rng = np.random.default_rng(4)
        agree = checked = 0
        for _ in range(2000):
            tri = rng.uniform(-10, 10, size=(3, 2))
            try:
                p = rng.uniform(-12, 12, size=2)
                lam = barycentric(p, tri)
            except DegenerateTriangleError:
                continue
            if abs(lam.min()) < 1e-7:  # skip the boundary band
                continue
            checked += 1
            mine = bool(lam.min() >= -1e-9)
            oracle = half_plane_inside(p, tri)
            agree += mine == oracle
        assert checked > 1500
        assert agree == checked

    def test_degenerate_triangle_raises(self):
        tri = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        with pytest.raises(DegenerateTriangleError):
            barycentric(np.array([0.5, 0.5]), tri)


# Weights at, and just either side of, the inside tolerance and the edges.
_edge_weight = st.sampled_from(
    [0.0, -0.0, 1e-9, -1e-9, -1e-9 * (1 + 2**-30), -1e-9 * (1 - 2**-30), -2e-9]
)
_coordinate = st.floats(min_value=-100, max_value=100)


@st.composite
def _triangle_and_points(draw):
    tri = np.array(draw(st.lists(_coordinate, min_size=6, max_size=6))).reshape(3, 2)
    n = draw(st.integers(min_value=1, max_value=30))
    points = []
    for _ in range(n):
        weights = draw(
            st.lists(
                st.one_of(_edge_weight, st.floats(min_value=-0.5, max_value=1.5)),
                min_size=2,
                max_size=2,
            )
        )
        corner = draw(st.permutations([0, 1, 2]))
        w = np.zeros(3)
        w[corner[0]], w[corner[1]] = weights
        w[corner[2]] = 1.0 - weights[0] - weights[1]
        points.append(w @ tri)
    return tri, np.array(points)


class TestInsideTriangleMask:
    """The 1-d weight masks equal the min over the stacked weights."""

    @staticmethod
    def _reference(points, tri):
        return barycentric(points, tri).min(axis=1) >= -BARYCENTRIC_INSIDE_TOL

    @settings(max_examples=300, deadline=None)
    @given(case=_triangle_and_points())
    def test_masks_equal_the_stacked_minimum(self, case):
        tri, points = case
        try:
            expected = self._reference(points, tri)
        except DegenerateTriangleError:
            with pytest.raises(DegenerateTriangleError):
                inside_triangle(points, tri)
            return
        mask = inside_triangle(points, tri)
        assert mask.dtype == np.bool_
        assert np.array_equal(mask, expected)
        assert np.array_equal(containment(points, tri)[0], expected)

    def test_points_either_side_of_the_tolerance(self):
        tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        # below the edge y = 0 by about 1e-9, i.e. weight l3 = y near -1e-9
        ys = -1e-9 * np.array([0.5, 1 - 2**-20, 1.0, 1 + 2**-20, 2.0])
        points = np.column_stack((np.full_like(ys, 0.25), ys))
        expected = self._reference(points, tri)
        assert expected.any() and not expected.all()
        assert np.array_equal(inside_triangle(points, tri), expected)

    def test_a_single_point_gives_a_mask_of_one(self):
        tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert inside_triangle(np.array([0.2, 0.2]), tri).tolist() == [True]
        assert inside_triangle(np.array([0.9, 0.9]), tri).tolist() == [False]


class TestIncircle:
    def test_right_triangle(self):
        center, radius = incircle(np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]]))
        assert np.allclose(center, [1.0, 1.0], atol=1e-12)
        assert radius == pytest.approx(1.0, abs=1e-12)

    def test_equilateral(self):
        tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
        center, radius = incircle(tri)
        assert np.allclose(center, [0.5, np.sqrt(3) / 6], atol=1e-12)
        assert radius == pytest.approx(np.sqrt(3) / 6, abs=1e-12)

    def test_tangent_to_all_sides(self):
        # oracle: distance from the incenter to each side line equals the radius
        rng = np.random.default_rng(6)
        done = 0
        while done < 200:
            tri = rng.uniform(-10, 10, size=(3, 2))
            try:
                center, radius = incircle(tri)
            except DegenerateTriangleError:
                continue
            done += 1
            for i in range(3):
                a, b = tri[i], tri[(i + 1) % 3]
                edge = b - a
                rel = center - a
                cross = edge[0] * rel[1] - edge[1] * rel[0]
                dist = abs(cross) / np.linalg.norm(edge)
                assert abs(dist - radius) < 1e-9


class TestTriangleStats:
    def test_three_point_cloud(self):
        space = _space([(0.0, 0.0, 0.0), (4.0, 0.0, 0.0), (0.0, 3.0, 0.0)])
        stats = triangle_stats(space, 0, 1, 2)
        assert stats.inside_triangle_fraction == 1.0
        # the corners of a triangle lie outside its incircle
        assert stats.outside_incircle_fraction == 1.0

    def test_incircle_subset_invariant(self):
        rng = np.random.default_rng(12)
        space = _space(rng.standard_normal((500, 8)))
        for _ in range(20):
            i, j, k = rng.choice(500, size=3, replace=False)
            stats = triangle_stats(space, int(i), int(j), int(k))
            assert stats.outside_incircle_fraction >= 1 - stats.inside_triangle_fraction

    def test_permutation_invariance(self):
        rng = np.random.default_rng(13)
        space = _space(rng.standard_normal((300, 10)))
        base = triangle_stats(space, 3, 7, 11)
        import itertools

        for perm in itertools.permutations((3, 7, 11)):
            stats = triangle_stats(space, *perm)
            assert stats.inside_triangle_fraction == pytest.approx(
                base.inside_triangle_fraction, abs=1e-12
            )
            assert stats.outside_incircle_fraction == pytest.approx(
                base.outside_incircle_fraction, abs=1e-12
            )

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(14)
        vectors = rng.standard_normal((200, 6))
        space = _space(vectors)
        q, r = np.linalg.qr(rng.standard_normal((6, 6)))
        q = q * np.sign(np.diag(r))
        moved = _space(vectors @ q.T + rng.standard_normal(6))
        a = triangle_stats(space, 0, 1, 2)
        b = triangle_stats(moved, 0, 1, 2)
        assert a.inside_triangle_fraction == pytest.approx(
            b.inside_triangle_fraction, abs=1e-12
        )
        assert a.outside_incircle_fraction == pytest.approx(
            b.outside_incircle_fraction, abs=1e-12
        )

    def test_degenerate_triple_raises(self):
        space = _space([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0), (0.5, 0.5)])
        with pytest.raises(DegenerateTriangleError):
            triangle_stats(space, 0, 1, 2)

    def test_boundary_counts_as_inside(self):
        tri = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
        edge_mid = np.array([1.0, 1.0])  # on the hypotenuse
        assert inside_triangle(edge_mid, tri)[0]


def _assert_engine_matches_direct(product, triple):
    """PoolProduct gives the triangle of project_triple bit for bit and the
    same inside-triangle and inside-incircle counts; its word coordinates
    agree to rounding."""
    coords, tri2d = project_triple(product.space, *triple)
    mine, mine_tri = pool_project(product, *triple)
    assert np.array_equal(mine_tri, tri2d)
    assert np.abs(mine - coords).max() <= 1e-12 * np.abs(coords).max()
    in_tri, _, _, in_circ = containment(coords, tri2d)
    my_in_tri, _, _, my_in_circ = containment(mine, mine_tri)
    assert np.count_nonzero(my_in_tri) == np.count_nonzero(in_tri)
    assert np.count_nonzero(my_in_circ) == np.count_nonzero(in_circ)


class TestPoolProduct:
    SYNTH = dict(dim=50, num_vertices=12, num_points=20_000, alpha=1.5, seed=1)

    def test_all_220_true_triples_of_the_reference_cloud(self):
        cloud = generate_simplex_cloud(sigma=0.0, **self.SYNTH)
        corners = cloud.true_vertices
        product = PoolProduct(cloud.space, corners)
        triples = list(itertools.combinations(corners, 3))
        assert len(triples) == 220
        for triple in triples:
            _assert_engine_matches_direct(product, triple)

    def test_random_triples_of_a_noisy_cloud(self):
        cloud = generate_simplex_cloud(sigma=0.01, **self.SYNTH)
        rng = np.random.default_rng(21)
        others = rng.choice(cloud.space.n_words, size=20, replace=False)
        pool = list(cloud.true_vertices) + [int(w) for w in others]
        product = PoolProduct(cloud.space, pool)
        for _ in range(200):
            triple = [pool[int(p)] for p in rng.choice(len(pool), 3, replace=False)]
            _assert_engine_matches_direct(product, triple)

    def test_repeated_pool_words_share_one_row(self):
        rng = np.random.default_rng(22)
        space = _space(rng.standard_normal((300, 8)))
        product = PoolProduct(space, [5, 9, 5, 40, 9])
        assert product._products.shape == (3, 300)
        _assert_engine_matches_direct(product, (40, 5, 9))
        assert pool_triangle_stats(product, 40, 5, 9) == triangle_stats(space, 40, 5, 9)

    @pytest.mark.parametrize(
        "vectors,match",
        [
            ([(0.0, 0, 0), (0, 0, 0), (1, 0, 0)], "first two points coincide"),
            ([(0.0, 0, 0), (1, 0, 0), (0, 0, 0)], "coincides with the first"),
            ([(0.0, 0, 0), (1, 0, 0), (2, 1e-12, 0)], "nearly collinear"),
        ],
    )
    def test_degenerate_triangles_raise_as_in_project_triple(self, vectors, match):
        product = PoolProduct(_space(vectors), [0, 1, 2])
        with pytest.raises(DegenerateTriangleError, match=match):
            pool_project(product, 0, 1, 2)
