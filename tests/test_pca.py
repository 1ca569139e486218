import numpy as np
import pytest

from embshape import EmbeddingSpace, fit_pca, informative_axis_count, project_onto_axis
from embshape.pca import PcaModel


def _space(vectors):
    vectors = np.asarray(vectors, dtype=np.float64)
    return EmbeddingSpace(
        words=["w%d" % i for i in range(len(vectors))], vectors=vectors
    )


class TestFitPca:
    def test_collinear_cloud(self):
        space = _space([(1, 1), (-1, -1), (2, 2), (-2, -2)])
        model = fit_pca(space, 2)
        assert np.allclose(model.axes[0], np.array([1.0, 1.0]) / np.sqrt(2), atol=1e-12)
        assert model.eigenvalues[0] == pytest.approx(5.0, rel=1e-12)
        assert model.eigenvalues[1] == pytest.approx(0.0, abs=1e-12)

    def test_rotated_gaussian_recovers_axis(self):
        # oracle: the population covariance diag(9, 1) rotated by 30 degrees
        # has top eigenvector exactly (cos 30, sin 30)
        rng = np.random.default_rng(5)
        theta = np.pi / 6
        rot = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        samples = rng.standard_normal((100_000, 2)) * np.array([3.0, 1.0])
        space = _space(samples @ rot.T)
        model = fit_pca(space, 2)
        truth = rot @ np.array([1.0, 0.0])
        angle = np.degrees(np.arccos(min(1.0, abs(model.axes[0] @ truth))))
        assert angle < 1.0

    def test_centering_identity(self, random_space):
        model = fit_pca(random_space, 4)
        centered = random_space.vectors - model.mean
        assert np.all(np.abs(centered.mean(axis=0)) < 1e-9)

    def test_orthonormal_axes(self, random_space):
        model = fit_pca(random_space, 10)
        gram = model.axes @ model.axes.T
        assert np.max(np.abs(gram - np.eye(10))) < 1e-6

    def test_eigenvalues_sorted_nonnegative(self, random_space):
        model = fit_pca(random_space, 16)
        assert np.all(np.diff(model.eigenvalues) <= 0)
        assert np.all(model.eigenvalues >= 0)

    def test_eigenvalue_sum_matches_total_variance(self, random_space):
        model = fit_pca(random_space, 16)  # m = D
        centered = random_space.vectors - random_space.vectors.mean(axis=0)
        total = float(np.mean(np.sum(centered**2, axis=1)))
        assert model.eigenvalues.sum() == pytest.approx(total, rel=1e-6)
        assert model.total_variance == pytest.approx(total, rel=1e-6)

    def test_covariance_reconstruction_small_d(self):
        rng = np.random.default_rng(11)
        space = _space(rng.standard_normal((500, 7)) @ rng.standard_normal((7, 7)))
        model = fit_pca(space, 7)
        centered = space.vectors - model.mean
        cov = centered.T @ centered / len(centered)
        rebuilt = model.axes.T @ np.diag(model.eigenvalues) @ model.axes
        assert np.max(np.abs(rebuilt - cov)) < 1e-6

    def test_deterministic_sign_convention(self, random_space):
        a = fit_pca(random_space, 8)
        b = fit_pca(random_space, 8)
        assert np.array_equal(a.axes, b.axes)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        for row in a.axes:
            j = int(np.argmax(np.abs(row)))
            assert row[j] > 0

    def test_argument_validation(self, random_space):
        with pytest.raises(ValueError):
            fit_pca(random_space, 17)  # m > D
        with pytest.raises(ValueError):
            fit_pca(random_space, 0)
        with pytest.raises(ValueError):
            fit_pca(_space([[1.0, 2.0]]), 1)  # N < 2


class TestProjection:
    def test_basis_vector_projection(self):
        model = PcaModel(
            mean=np.zeros(2),
            axes=np.array([[1.0, 0.0]]),
            eigenvalues=np.array([1.0]),
            total_variance=1.0,
        )
        space = _space([(3.0, 4.0), (0.0, 0.0)])
        scores = project_onto_axis(space, model, 0)
        assert scores[0] == 3.0

    def test_scores_sum_to_zero(self, random_space):
        model = fit_pca(random_space, 5)
        for i in range(5):
            scores = project_onto_axis(random_space, model, i)
            assert abs(scores.sum()) < 1e-6 * len(scores)

    def test_score_variance_equals_eigenvalue(self, random_space):
        # oracle: direct variance of the projections
        model = fit_pca(random_space, 6)
        for i in range(6):
            scores = project_onto_axis(random_space, model, i)
            assert np.mean(scores**2) == pytest.approx(
                model.eigenvalues[i], rel=1e-6
            )

    def test_index_validation(self, random_space):
        model = fit_pca(random_space, 3)
        with pytest.raises(ValueError):
            project_onto_axis(random_space, model, 3)
        with pytest.raises(ValueError):
            project_onto_axis(random_space, model, -1)

    def test_projection_is_repeatable(self, random_space):
        model = fit_pca(random_space, 4)
        for i in range(4):
            a = project_onto_axis(random_space, model, i)
            b = project_onto_axis(random_space, model, i)
            assert np.array_equal(a, b)


class TestInformativeAxisCount:
    def test_rank_deficient_simplex_cloud(self, small_cloud):
        # 6 corners span a 5-dim subspace; the remaining axes are noise floor
        model = fit_pca(small_cloud.space, small_cloud.space.dim)
        assert informative_axis_count(model) == 5

    def test_capped_by_requested_axes(self, small_cloud):
        model = fit_pca(small_cloud.space, small_cloud.space.dim)
        assert informative_axis_count(model, 3) == 3

    def test_at_least_one_axis(self):
        # near-isotropic cloud: no eigenvalue clearly beats the mean
        space = _space(np.eye(4))
        model = fit_pca(space, 4)
        assert informative_axis_count(model) >= 1
