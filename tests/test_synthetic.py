import itertools
import json

import numpy as np
import pytest

from embshape import generate_simplex_cloud, synthetic, triangle_stats, write_ground_truth


class TestGeneration:
    def test_tetrahedron_corners_only(self):
        cloud = generate_simplex_cloud(dim=3, num_vertices=4, num_points=4, sigma=0.0, seed=1)
        v = cloud.space.vectors
        assert v.shape == (4, 3)
        for i, j in itertools.combinations(range(4), 2):
            assert np.linalg.norm(v[i] - v[j]) == pytest.approx(1.0, abs=1e-9)

    def test_corner_rows_come_first_and_are_exact(self):
        cloud = generate_simplex_cloud(dim=8, num_vertices=5, num_points=100, seed=2)
        assert cloud.true_vertices == [0, 1, 2, 3, 4]
        assert np.array_equal(cloud.corner_vectors, cloud.space.vectors[:5])

    def test_tokens(self):
        cloud = generate_simplex_cloud(dim=5, num_vertices=3, num_points=12, seed=0)
        assert cloud.space.words[0] == "w000001"
        assert cloud.space.words[-1] == "w000012"

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(dim=3, num_vertices=2, num_points=10),  # V < 3
            dict(dim=3, num_vertices=5, num_points=10),  # V > D+1
            dict(dim=5, num_vertices=4, num_points=3),  # N < V
            dict(dim=5, num_vertices=4, num_points=10, alpha=0.0),
            dict(dim=5, num_vertices=4, num_points=10, sigma=-0.1),
        ],
    )
    def test_parameter_validation(self, kwargs):
        with pytest.raises(ValueError):
            generate_simplex_cloud(seed=0, **kwargs)

    def test_full_dimensional_simplex_allowed(self):
        # V = D + 1 is the regular simplex filling the whole space
        cloud = generate_simplex_cloud(dim=4, num_vertices=5, num_points=50, seed=3)
        v = cloud.corner_vectors
        for i, j in itertools.combinations(range(5), 2):
            assert np.linalg.norm(v[i] - v[j]) == pytest.approx(1.0, abs=1e-9)


class TestCloudShape:
    def test_noiseless_points_inside_circumball(self):
        cloud = generate_simplex_cloud(
            dim=10, num_vertices=6, num_points=2000, alpha=0.7, sigma=0.0, seed=4
        )
        centroid = cloud.corner_vectors.mean(axis=0)
        v = cloud.gen_params.num_vertices
        circumradius = np.sqrt((v - 1) / (2.0 * v))  # unit-edge regular simplex
        dists = np.linalg.norm(cloud.space.vectors - centroid, axis=1)
        assert np.all(dists <= circumradius + 1e-9)

    def test_sample_mean_near_corner_centroid(self):
        cloud = generate_simplex_cloud(
            dim=50, num_vertices=12, num_points=20000, alpha=1.5, sigma=0.0, seed=5
        )
        # oracle: symmetric Dirichlet weights have mean 1/V, so the cloud
        # mean converges to the corner centroid
        centroid = cloud.corner_vectors.mean(axis=0)
        x = cloud.space.vectors
        n = x.shape[0]
        tol = 3.0 * x.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(x.mean(axis=0) - centroid) <= tol)

    def test_noiseless_points_are_convex_combinations(self):
        cloud = generate_simplex_cloud(
            dim=9, num_vertices=5, num_points=300, alpha=1.0, sigma=0.0, seed=6
        )
        # oracle: recover barycentric weights by least squares against the
        # corners; they must be nonnegative and sum to 1
        corners = cloud.corner_vectors
        basis = np.vstack([corners.T, np.ones(5)])  # affine system
        for row in cloud.space.vectors[5:50]:
            target = np.concatenate([row, [1.0]])
            w, *_ = np.linalg.lstsq(basis, target, rcond=None)
            assert np.all(w >= -1e-9)
            assert w.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.linalg.norm(basis @ w - target) < 1e-9

    def test_brute_force_extremes_hit_corners(self):
        cloud = generate_simplex_cloud(
            dim=12, num_vertices=7, num_points=4000, alpha=1.2, sigma=0.0, seed=7
        )
        rng = np.random.default_rng(0)
        x = cloud.space.vectors
        for _ in range(25):
            direction = rng.standard_normal(12)
            scores = x @ direction
            assert int(np.argmax(scores)) in cloud.true_vertices
            assert int(np.argmin(scores)) in cloud.true_vertices

    def test_true_triples_contain_whole_projection(self):
        cloud = generate_simplex_cloud(
            dim=12, num_vertices=6, num_points=2500, alpha=1.5, sigma=0.0, seed=8
        )
        for triple in itertools.combinations(cloud.true_vertices, 3):
            stats = triangle_stats(cloud.space, *triple)
            assert stats.inside_triangle_fraction == pytest.approx(1.0, abs=1e-12)


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        a = generate_simplex_cloud(dim=7, num_vertices=4, num_points=200, seed=9)
        b = generate_simplex_cloud(dim=7, num_vertices=4, num_points=200, seed=9)
        assert a.space.words == b.space.words
        assert np.array_equal(a.space.vectors, b.space.vectors)

    def test_sigma_only_perturbs_interior_coordinates(self):
        base = generate_simplex_cloud(dim=7, num_vertices=4, num_points=200, sigma=0.0, seed=10)
        noisy = generate_simplex_cloud(dim=7, num_vertices=4, num_points=200, sigma=0.05, seed=10)
        assert base.space.words == noisy.space.words
        # corners stay exact, interior points move
        assert np.array_equal(base.space.vectors[:4], noisy.space.vectors[:4])
        assert not np.array_equal(base.space.vectors[4:], noisy.space.vectors[4:])

    def test_irregular_mode(self):
        cloud = generate_simplex_cloud(
            dim=6, num_vertices=4, num_points=100, seed=11, regular=False
        )
        v = cloud.corner_vectors
        edges = [np.linalg.norm(v[i] - v[j]) for i, j in itertools.combinations(range(4), 2)]
        assert len(set(np.round(edges, 6))) > 1  # not a regular simplex
        assert np.array_equal(v, cloud.space.vectors[:4])


class TestGroundTruth:
    def test_sidecar_contents(self, tmp_path):
        cloud = generate_simplex_cloud(dim=5, num_vertices=3, num_points=10, seed=12)
        path = tmp_path / "truth.json"
        write_ground_truth(cloud, path)
        data = json.loads(path.read_text())
        assert data["vertex_tokens"] == ["w000001", "w000002", "w000003"]
        assert data["gen_params"]["dim"] == 5
        assert data["gen_params"]["seed"] == 12


def _whole_array_vectors(dim, num_vertices, num_points, alpha, sigma, seed, regular):
    """The cloud's matrix from whole-array expressions: one interior GEMM,
    all the noise in one draw, then one stacked copy."""
    rng = np.random.default_rng(seed)
    if regular:
        rotation = synthetic._random_rotation(rng, dim)
        translation = rng.standard_normal(dim) / (2.0 * np.sqrt(dim))
        corners = synthetic._regular_corners(dim, num_vertices) @ rotation.T + translation
    else:
        corners = rng.standard_normal((num_vertices, dim))
    n_interior = num_points - num_vertices
    weights = rng.dirichlet(np.full(num_vertices, alpha), size=n_interior)
    interior = weights @ corners
    interior = interior + sigma * rng.standard_normal((n_interior, dim))
    return np.vstack((corners, interior))


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(dim=16, num_vertices=6, sigma=0.05, regular=True),
        dict(dim=16, num_vertices=9, sigma=0.01, regular=False),
        dict(dim=16, num_vertices=6, sigma=0.0, regular=True),
    ],
    ids=["regular", "irregular", "sigma_0"],
)
def test_matrix_is_the_whole_array_expression_bit_for_bit(kwargs):
    # over two noise chunks, and a last one that is short
    params = dict(num_points=2 * synthetic._NOISE_ROWS + 500, alpha=1.5, seed=11, **kwargs)
    cloud = generate_simplex_cloud(**params)
    assert cloud.space.vectors.tobytes() == _whole_array_vectors(**params).tobytes()
