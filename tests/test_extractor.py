import math

import numpy as np
import pytest

from embshape import (
    DegenerateSamplingError,
    EmbeddingSpace,
    ExtractionParams,
    describe_vertex,
    filter_false_vertices,
    find_candidates,
    fit_pca,
    generate_simplex_cloud,
    glue_candidates,
    topk_neighbors,
)
from embshape.extractor import VertexCandidate, glue_by_neighbor_sets


def _space(vectors):
    vectors = np.asarray(vectors, dtype=np.float64)
    return EmbeddingSpace(
        words=["w%d" % i for i in range(len(vectors))], vectors=vectors
    )


def brute_force_extremes(space, pca, num_axes):
    """Independent oracle: python-level scan for per-axis argmin/argmax."""
    out = []
    for i in range(num_axes):
        axis = pca.axes[i]
        scores = [float((space.vectors[j] - pca.mean) @ axis) for j in range(len(space))]
        lo = min(range(len(scores)), key=lambda j: (scores[j], j))
        hi = max(range(len(scores)), key=lambda j: (scores[j], -j))
        out.append((lo, hi))
    return out


class TestFindCandidates:
    def test_rotated_square_finds_opposite_corners(self):
        # square rotated 45 degrees: corners sit on the coordinate axes and
        # the axis extremes are an opposite corner pair
        space = _space([(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)])
        pca = fit_pca(space, 2)
        cands = find_candidates(space, pca, 1)
        pair = space.vectors[cands[0].word_index] + space.vectors[cands[1].word_index]
        assert np.allclose(pair, 0.0, atol=1e-12)  # opposite corners

    def test_two_candidates_per_axis(self, random_space):
        pca = fit_pca(random_space, 16)
        assert len(find_candidates(random_space, pca, 16)) == 32

    def test_25_axes_give_50_candidates(self):
        rng = np.random.default_rng(0)
        space = _space(rng.standard_normal((200, 30)))
        pca = fit_pca(space, 25)
        assert len(find_candidates(space, pca, 25)) == 50

    def test_candidate_order(self, random_space):
        pca = fit_pca(random_space, 3)
        cands = find_candidates(random_space, pca, 3)
        assert [(c.axis_index, c.end) for c in cands] == [
            (0, "min"), (0, "max"), (1, "min"), (1, "max"), (2, "min"), (2, "max"),
        ]

    def test_ties_break_to_lowest_word_index(self):
        space = _space([(1.0, 0.0), (-1.0, 0.0), (1.0, 0.0), (-1.0, 0.0), (0.0, 0.1)])
        pca = fit_pca(space, 1)
        cands = find_candidates(space, pca, 1)
        ends = {c.end: c.word_index for c in cands}
        assert ends["max"] in (0, 1) and ends["min"] in (0, 1)  # indices 2,3 lose ties

    def test_matches_brute_force_oracle(self, random_space):
        pca = fit_pca(random_space, 8)
        cands = find_candidates(random_space, pca, 8)
        oracle = brute_force_extremes(random_space, pca, 8)
        for i, (lo, hi) in enumerate(oracle):
            assert cands[2 * i].word_index == lo
            assert cands[2 * i + 1].word_index == hi

    def test_simplex_candidates_are_corners(self):
        cloud = generate_simplex_cloud(
            dim=12, num_vertices=8, num_points=3000, alpha=1.5, sigma=0.0, seed=3
        )
        pca = fit_pca(cloud.space, 12)
        first = math.ceil(8 / 2)
        cands = find_candidates(cloud.space, pca, first)
        corners = set(cloud.true_vertices)
        assert all(c.word_index in corners for c in cands)

    def test_scores_are_the_extreme_projections(self, random_space):
        pca = fit_pca(random_space, 2)
        cands = find_candidates(random_space, pca, 2)
        centered = random_space.vectors - pca.mean
        scores = centered @ pca.axes[0]
        assert cands[0].score == pytest.approx(scores.min())
        assert cands[1].score == pytest.approx(scores.max())


class TestTopkNeighbors:
    def test_self_query_ranks_first(self, random_space):
        result = topk_neighbors(random_space, random_space.vectors[17], 1)
        assert result[0][0] == 17
        assert result[0][1] == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_vocabulary(self):
        space = _space([(1.0, 0.0), (0.0, 1.0)])
        result = topk_neighbors(space, np.array([1.0, 0.0]), 2)
        assert result == [(0, pytest.approx(1.0)), (1, pytest.approx(0.0))]

    def test_matches_full_sort_oracle(self, random_space):
        # oracle: cosine for every row, full python sort
        query = random_space.vectors[5] + 0.1
        sims = []
        for row in random_space.vectors:
            sims.append(
                float(row @ query)
                / (float(np.linalg.norm(row)) * float(np.linalg.norm(query)))
            )
        oracle = sorted(range(len(sims)), key=lambda i: (-sims[i], i))[:20]
        mine = [i for i, _ in topk_neighbors(random_space, query, 20)]
        assert mine == oracle

    def test_zero_rows_rank_last_with_zero_similarity(self):
        space = _space([(0.0, 0.0), (1.0, 0.0), (-1.0, 0.0)])
        result = topk_neighbors(space, np.array([1.0, 0.0]), 3)
        assert [i for i, _ in result] == [1, 2, 0]
        assert result[2][1] == 0.0

    def test_zero_query_rejected(self, random_space):
        with pytest.raises(ValueError, match="zero norm"):
            topk_neighbors(random_space, np.zeros(16), 5)

    def test_k_validation(self, random_space):
        with pytest.raises(ValueError):
            topk_neighbors(random_space, random_space.vectors[0], 1001)


class TestGlue:
    def _params(self, **kw):
        defaults = dict(num_axes=4, k=5, glue_threshold=0.3, trials=5, tau=0.1, seed=0)
        defaults.update(kw)
        return ExtractionParams(**defaults)

    def test_same_word_candidates_merge(self, random_space):
        cands = [
            VertexCandidate(word_index=4, axis_index=0, end="min", score=-1.0),
            VertexCandidate(word_index=4, axis_index=2, end="max", score=2.0),
        ]
        vertices = glue_candidates(random_space, cands, self._params())
        assert len(vertices) == 1
        assert len(vertices[0].members) == 2
        assert vertices[0].representative == 4

    def test_disjoint_neighborhoods_stay_separate(self):
        # two tight, far-apart clusters: neighborhoods never cross
        rng = np.random.default_rng(1)
        left = rng.normal(0, 0.01, size=(20, 3)) + np.array([10.0, 0, 0])
        right = rng.normal(0, 0.01, size=(20, 3)) + np.array([-10.0, 5, 0])
        space = _space(np.vstack([left, right]))
        cands = [
            VertexCandidate(word_index=0, axis_index=0, end="min", score=0.0),
            VertexCandidate(word_index=20, axis_index=0, end="max", score=0.0),
        ]
        vertices = glue_candidates(space, cands, self._params(k=10))
        assert len(vertices) == 2

    def test_chain_merges_transitively(self):
        # oracle: union-find over the explicit pairwise Jaccard matrix
        sets = [frozenset({1, 2, 3}), frozenset({2, 3, 4}), frozenset({3, 4, 5})]

        def jac(a, b):
            return len(a & b) / len(a | b)

        assert jac(sets[0], sets[1]) == 0.5
        assert jac(sets[1], sets[2]) == 0.5
        assert jac(sets[0], sets[2]) == 0.2  # below threshold
        components = glue_by_neighbor_sets(sets, 0.3)
        assert components == [[0, 1, 2]]

    def test_gluing_never_increases_count(self, small_cloud):
        space = small_cloud.space
        pca = fit_pca(space, 5)
        cands = find_candidates(space, pca, 5)
        vertices = glue_candidates(space, cands, self._params(k=50))
        assert len(vertices) <= len(cands)

    def test_order_invariance(self, small_cloud):
        space = small_cloud.space
        pca = fit_pca(space, 5)
        cands = find_candidates(space, pca, 5)
        params = self._params(k=50)
        base = glue_candidates(space, cands, params)
        shuffled = list(cands)
        np.random.default_rng(0).shuffle(shuffled)
        other = glue_candidates(space, shuffled, params)
        key = lambda vs: sorted(
            (v.representative, tuple(sorted(m.word_index for m in v.members)))
            for v in vs
        )
        assert key(base) == key(other)

    def test_representative_is_lowest_axis_min_first(self, random_space):
        cands = [
            VertexCandidate(word_index=7, axis_index=3, end="max", score=1.0),
            VertexCandidate(word_index=7, axis_index=3, end="min", score=-1.0),
            VertexCandidate(word_index=7, axis_index=1, end="max", score=0.5),
        ]
        vertices = glue_candidates(random_space, cands, self._params())
        members = vertices[0].members
        assert (members[0].axis_index, members[0].end) == (1, "max")

    def test_neighbor_set_has_k_entries_with_rep_first(self, small_cloud):
        space = small_cloud.space
        pca = fit_pca(space, 5)
        cands = find_candidates(space, pca, 5)
        params = self._params(k=9)
        for v in glue_candidates(space, cands, params):
            assert len(v.neighbor_set) == 9
            assert v.neighbor_set[0] == v.representative

    def test_empty_candidates_rejected(self, random_space):
        with pytest.raises(ValueError):
            glue_candidates(random_space, [], self._params())


def _pipeline_vertices(cloud, **param_overrides):
    space = cloud.space
    rank = cloud.gen_params.num_vertices - 1
    pca = fit_pca(space, rank)
    params = ExtractionParams(
        num_axes=rank, k=min(100, len(space)), glue_threshold=0.3,
        trials=20, tau=0.1, seed=0,
    )
    if param_overrides:
        from dataclasses import replace

        params = replace(params, **param_overrides)
    cands = find_candidates(space, pca, rank)
    return space, params, glue_candidates(space, cands, params)


class TestFilter:
    def test_true_vertices_survive_with_zero_fraction(self, small_cloud):
        space, params, vertices = _pipeline_vertices(small_cloud)
        survivors = filter_false_vertices(space, vertices, params)
        assert len(survivors) == len(vertices)
        for v in survivors:
            assert v.outside_fraction == pytest.approx(0.0, abs=1e-12)

    def test_injected_centroid_word_is_rejected(self, small_cloud):
        space, params, vertices = _pipeline_vertices(small_cloud)
        centroid = space.vectors.mean(axis=0)
        fake_word = int(np.argmin(np.linalg.norm(space.vectors - centroid, axis=1)))
        fake = VertexCandidate(word_index=fake_word, axis_index=99, end="max", score=0.0)
        cands = [m for v in vertices for m in v.members] + [fake]
        all_vertices = glue_candidates(space, cands, params)
        assert len(all_vertices) == len(vertices) + 1
        survivors = filter_false_vertices(space, all_vertices, params)
        fake_vertex = next(v for v in all_vertices if v.representative == fake_word)
        assert fake_vertex.outside_fraction > params.tau
        assert fake_vertex not in survivors
        # the interior fake leaves far more of the cloud outside its
        # triangles than any of the genuine corners
        worst_true = max(
            v.outside_fraction for v in all_vertices if v is not fake_vertex
        )
        assert fake_vertex.outside_fraction > worst_true

    def test_fewer_than_three_pass_through(self, small_cloud, caplog):
        space, params, vertices = _pipeline_vertices(small_cloud)
        two = vertices[:2]
        with caplog.at_level("WARNING"):
            out = filter_false_vertices(space, two, params)
        assert out == two
        assert all(math.isnan(v.outside_fraction) for v in out)
        assert "passing all through" in caplog.text

    def test_same_seed_is_deterministic(self, small_cloud):
        space, params, vertices_a = _pipeline_vertices(small_cloud)
        _, _, vertices_b = _pipeline_vertices(small_cloud)
        filter_false_vertices(space, vertices_a, params)
        filter_false_vertices(space, vertices_b, params)
        fracs_a = [v.outside_fraction for v in vertices_a]
        fracs_b = [v.outside_fraction for v in vertices_b]
        assert fracs_a == fracs_b

    def test_monotone_in_tau(self, small_cloud):
        space, params, vertices = _pipeline_vertices(small_cloud)
        centroid = space.vectors.mean(axis=0)
        fake_word = int(np.argmin(np.linalg.norm(space.vectors - centroid, axis=1)))
        cands = [m for v in vertices for m in v.members] + [
            VertexCandidate(word_index=fake_word, axis_index=99, end="max", score=0.0)
        ]
        taus = [0.0, 0.05, 0.2, 0.8, 1.0]
        survivor_sets = []
        for tau in taus:
            _, p, vs = _pipeline_vertices(small_cloud, tau=tau)
            vs = glue_candidates(space, cands, p)
            survivors = filter_false_vertices(space, vs, p)
            survivor_sets.append({v.representative for v in survivors})
        for lo, hi in zip(survivor_sets, survivor_sets[1:]):
            assert lo <= hi

    def test_all_degenerate_triples_raise(self):
        # vertices on one line: every sampled triangle is degenerate
        rng = np.random.default_rng(5)
        line = np.array([[t, 1.0, 0.0] for t in (1.0, 2.0, 3.0, 4.0)])
        filler = rng.standard_normal((50, 3)) + 10.0
        space = _space(np.vstack([line, filler]))
        params = ExtractionParams(num_axes=1, k=4, trials=3, tau=0.5, seed=0)
        vertices = [
            glue_candidates(
                space,
                [VertexCandidate(word_index=i, axis_index=0, end="max", score=0.0)],
                params,
            )[0]
            for i in range(4)
        ]
        with pytest.raises(DegenerateSamplingError, match="w0"):
            filter_false_vertices(space, vertices, params)


class TestDescribe:
    def test_first_word_is_the_representative(self, small_cloud):
        space, params, vertices = _pipeline_vertices(small_cloud)
        for v in vertices:
            desc = describe_vertex(space, v)
            assert desc[0][0] == space.words[v.representative]
            assert desc[0][1] == pytest.approx(1.0, abs=1e-12)
            assert len(desc) == 5

    def test_matches_brute_force_ranking(self, random_space):
        v = glue_candidates(
            random_space,
            [VertexCandidate(word_index=3, axis_index=0, end="max", score=1.0)],
            ExtractionParams(num_axes=1, k=5),
        )[0]
        desc = describe_vertex(random_space, v, 10)
        query = random_space.vectors[3]
        sims = [
            float(row @ query) / (np.linalg.norm(row) * np.linalg.norm(query))
            for row in random_space.vectors
        ]
        oracle = sorted(range(len(sims)), key=lambda i: (-sims[i], i))[:10]
        assert [random_space.words[i] for i in oracle] == [t for t, _ in desc]


class TestExtractionParams:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("num_axes", 0),
            ("k", 0),
            ("glue_threshold", -0.1),
            ("glue_threshold", 1.1),
            ("trials", 0),
            ("tau", -0.01),
            ("tau", 1.01),
            ("seed", -1),
        ],
    )
    def test_validation(self, field, value):
        with pytest.raises(ValueError):
            ExtractionParams(**{field: value})
