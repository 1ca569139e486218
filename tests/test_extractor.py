import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    project_onto_axis,
    topk_neighbors,
    triangle_stats,
)
from embshape import extractor
from embshape.errors import DegenerateTriangleError
from embshape.extractor import Vertex, VertexCandidate, glue_by_neighbor_sets


def _space(vectors):
    vectors = np.asarray(vectors, dtype=np.float64)
    return EmbeddingSpace(
        words=["w%d" % i for i in range(len(vectors))], vectors=vectors
    )


def _bits(ranked):
    """(index, similarity) pairs with the similarity's exact bits."""
    return [(i, float(s).hex()) for i, s in ranked]


def _bfs_components(sets, threshold):
    """Oracle: breadth-first search over the explicit Jaccard links,
    started from each unvisited item in index order."""
    seen, components = set(), []
    for start in range(len(sets)):
        if start in seen:
            continue
        seen.add(start)
        queue, component = [start], []
        while queue:
            i = queue.pop(0)
            component.append(i)
            for j in range(len(sets)):
                if j not in seen and len(sets[i] & sets[j]) / len(sets[i] | sets[j]) >= threshold:
                    seen.add(j)
                    queue.append(j)
        components.append(sorted(component))
    return components


# Links of a chain of sets {k, k+1} have Jaccard 1/3; shuffled, the chain's
# pieces form as separate components that later links join.
_chains = st.integers(min_value=2, max_value=14).flatmap(
    lambda n: st.permutations([frozenset({k, k + 1}) for k in range(n)])
)
_families = st.lists(
    st.frozensets(st.integers(min_value=0, max_value=7), min_size=1, max_size=5),
    min_size=1,
    max_size=14,
)
_thresholds = st.one_of(
    st.sampled_from([0.0, 0.2, 0.25, 1 / 3, 0.5, 2 / 3, 1.0]),
    st.floats(min_value=0.0, max_value=1.0),
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

    def test_planted_ties_across_row_blocks_go_to_lowest_index(self):
        # copies of one far row straddle the 8192-row block boundary and
        # sit in the last rows; every copy must score the same, so the
        # lowest index wins
        rng = np.random.default_rng(11)
        n = 8192 + 61
        vectors = rng.standard_normal((n, 12)) * np.linspace(3.0, 1.0, 12)
        far = rng.standard_normal(12) + np.eye(12)[0] * 40.0
        near = rng.standard_normal(12) - np.eye(12)[0] * 40.0
        planted = {8191: far, 8192: far, n - 1: far, 8193: near, n - 3: near, n - 2: near}
        for i, row in planted.items():
            vectors[i] = row
        space = _space(vectors)
        pca = fit_pca(space, 6)
        cands = find_candidates(space, pca, 6)
        picked = {cands[0].word_index, cands[1].word_index}
        assert picked == {8191, 8193}
        for i in range(6):
            # reference: one mat-vec per axis; a mat-vec may round copies
            # in its tail rows differently, so it must only land on a copy
            col = project_onto_axis(space, pca, i)
            for cand, ref in zip(cands[2 * i : 2 * i + 2], (np.argmin(col), np.argmax(col))):
                if ref in planted:
                    copies = [j for j in planted if np.array_equal(vectors[j], vectors[ref])]
                    assert cand.word_index == min(copies)
                else:
                    assert cand.word_index == ref
                assert cand.score == pytest.approx(col[ref], rel=1e-12)

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

    @settings(max_examples=300, deadline=None)
    @given(sets=st.one_of(_families, _chains), threshold=_thresholds)
    @example(  # {0, 2} and {1, 3} form first, then the link 2-3 joins them
        sets=[frozenset({0, 1}), frozenset({3, 4}), frozenset({1, 2}), frozenset({2, 3})],
        threshold=0.3,
    )
    def test_components_match_a_breadth_first_search(self, sets, threshold):
        assert glue_by_neighbor_sets(sets, threshold) == _bfs_components(sets, threshold)

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

    def test_redraws_match_a_reference_loop_over_triangle_stats(self, small_cloud):
        # two vertices share a word, so some draws are degenerate triangles
        # and get redrawn; the fractions must equal those of the same
        # seeded draws projected one by one with triangle_stats
        space, params, vertices = _pipeline_vertices(small_cloud, trials=7)
        vertices.append(Vertex(vertices[0].representative, (), ()))
        filter_false_vertices(space, vertices, params)
        reps = [v.representative for v in vertices]
        redraws = 0
        for rank, vertex in enumerate(vertices):
            others = [r for i, r in enumerate(reps) if i != rank]
            rng = np.random.default_rng([params.seed, 0, rank])
            fractions = []
            attempts = 0
            while len(fractions) < params.trials and attempts < 10 * params.trials:
                attempts += 1
                picks = rng.choice(len(others), size=2, replace=False)
                corners = (vertex.representative,) + tuple(others[int(p)] for p in picks)
                try:
                    stats = triangle_stats(space, *corners)
                except DegenerateTriangleError:
                    redraws += 1
                    continue
                fractions.append(1.0 - stats.inside_triangle_fraction)
            assert vertex.outside_fraction == sum(fractions) / len(fractions)
        assert redraws > 0

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

    def test_stored_ranking_gives_the_query_pairs_bit_for_bit(self, small_cloud):
        space, params, vertices = _pipeline_vertices(small_cloud)
        for v in vertices:
            assert len(v.neighbor_sims) == len(v.neighbor_set) == params.k
            queried = dataclasses.replace(v, neighbor_sims=())
            for k_desc in (1, 5, params.k, params.k + 1):
                stored = describe_vertex(space, v, k_desc)
                fresh = describe_vertex(space, queried, k_desc)
                assert _bits(stored) == _bits(fresh)
                assert len(stored) == k_desc

    def test_a_short_stored_ranking_is_not_used(self, random_space, monkeypatch):
        v = glue_candidates(
            random_space,
            [VertexCandidate(word_index=3, axis_index=0, end="max", score=1.0)],
            ExtractionParams(num_axes=1, k=4),
        )[0]
        calls = []
        real = extractor.topk_neighbors
        monkeypatch.setattr(
            extractor, "topk_neighbors", lambda *a: calls.append(a) or real(*a)
        )
        describe_vertex(random_space, v, 4)
        assert calls == []
        assert len(describe_vertex(random_space, v, 5)) == 5
        assert len(calls) == 1


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
