"""Vertex candidate enumeration, gluing, and false-vertex rejection.

Each principal axis contributes its two projection extremes as candidate
corners. Candidates whose top-K cosine neighborhoods overlap strongly are
glued into one vertex, and every glued vertex is then screened by how much
of the cloud falls outside triangles it forms with randomly chosen peers.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .embeddings import EmbeddingSpace
from .errors import DegenerateSamplingError, DegenerateTriangleError
from .geometry import TripleStats, triangle_stats
from .pca import PcaModel, project_onto_axis

log = logging.getLogger(__name__)

END_MIN = "min"
END_MAX = "max"

# Stream tag for per-vertex RNGs; keeps them disjoint from other seeded
# streams derived from the same user seed.
_FILTER_STREAM = 0


@dataclass(frozen=True)
class VertexCandidate:
    """One projection extreme: the word attaining an axis min or max."""

    word_index: int
    axis_index: int
    end: str  # END_MIN or END_MAX
    score: float

    @property
    def end_rank(self) -> int:
        return 0 if self.end == END_MIN else 1


@dataclass(eq=False)
class Vertex:
    """A deduplicated simplex corner.

    ``representative`` is the word of the member coming from the lowest
    axis (min end before max end on ties). ``neighbor_set`` is the ranked
    top-K neighborhood of the representative; ``outside_fraction`` stays
    NaN until the false-vertex filter has run.
    """

    representative: int
    members: tuple[VertexCandidate, ...]
    neighbor_set: tuple[int, ...]
    outside_fraction: float = field(default=math.nan)


@dataclass(frozen=True)
class ExtractionParams:
    """Tunable knobs of the extraction pipeline.

    The field defaults are the pipeline defaults; ``AnalysisConfig`` and
    the command line read them from here.
    """

    num_axes: int = 50
    k: int = 100
    glue_threshold: float = 0.3
    trials: int = 20
    tau: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.num_axes < 1:
            raise ValueError("num_axes must be >= 1")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not 0.0 <= self.glue_threshold <= 1.0:
            raise ValueError("glue_threshold must be in [0, 1]")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError("tau must be in [0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


class UnionFind:
    """Disjoint sets over 0..n-1 with path compression; roots are the
    smallest member so components come out deterministic."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


def find_candidates(
    space: EmbeddingSpace, pca: PcaModel, num_axes: int
) -> list[VertexCandidate]:
    """The argmin/argmax words of each of the first ``num_axes`` axes.

    Candidates come out in (axis0-min, axis0-max, axis1-min, ...) order;
    ties on the extreme value go to the lowest word index.
    """
    if not 0 < num_axes <= pca.num_axes:
        raise ValueError(
            "num_axes %d out of range [1, %d]" % (num_axes, pca.num_axes)
        )
    out: list[VertexCandidate] = []
    for i in range(num_axes):
        col = project_onto_axis(space, pca, i)
        lo = int(np.argmin(col))
        hi = int(np.argmax(col))
        out.append(VertexCandidate(lo, i, END_MIN, float(col[lo])))
        out.append(VertexCandidate(hi, i, END_MAX, float(col[hi])))
    return out


def topk_neighbors(
    space: EmbeddingSpace, query: np.ndarray, k: int
) -> list[tuple[int, float]]:
    """Exact top-k vocabulary words by cosine similarity to ``query``.

    Descending similarity, ties broken by lower word index; zero-norm rows
    are defined to have similarity 0 and always rank last.
    """
    query = np.asarray(query, dtype=np.float64)
    qnorm = np.linalg.norm(query)
    if qnorm == 0.0:
        raise ValueError("query vector has zero norm")
    if not 1 <= k <= space.n_words:
        raise ValueError("k must be in [1, %d], got %d" % (space.n_words, k))
    norms = np.linalg.norm(space.vectors, axis=1)
    zero = norms == 0.0
    sims = (space.vectors @ query) / (np.where(zero, 1.0, norms) * qnorm)
    sims[zero] = 0.0
    order = np.lexsort((np.arange(space.n_words), -sims, zero))
    top = order[:k]
    return [(int(i), float(sims[i])) for i in top]


def _jaccard(a: frozenset, b: frozenset) -> float:
    return len(a & b) / len(a | b)


def glue_by_neighbor_sets(
    neighbor_sets: list[frozenset], threshold: float
) -> list[list[int]]:
    """Connected components linking items whose sets have Jaccard
    similarity >= threshold. Returns components as sorted index lists."""
    uf = UnionFind(len(neighbor_sets))
    for i in range(len(neighbor_sets)):
        for j in range(i + 1, len(neighbor_sets)):
            if _jaccard(neighbor_sets[i], neighbor_sets[j]) >= threshold:
                uf.union(i, j)
    groups: dict[int, list[int]] = {}
    for i in range(len(neighbor_sets)):
        groups.setdefault(uf.find(i), []).append(i)
    return [groups[root] for root in sorted(groups)]


def glue_candidates(
    space: EmbeddingSpace,
    candidates: list[VertexCandidate],
    params: ExtractionParams,
) -> list[Vertex]:
    """Merge candidates that point at the same corner.

    Two candidates are linked when the Jaccard overlap of their top-K
    neighbor index sets reaches the glue threshold; vertices are the
    connected components, ordered by their representative's source axis.
    """
    if not candidates:
        raise ValueError("no candidates to glue")
    ranked_by_word: dict[int, tuple[int, ...]] = {}
    for cand in candidates:
        if cand.word_index not in ranked_by_word:
            ranked = topk_neighbors(space, space.vectors[cand.word_index], params.k)
            ranked_by_word[cand.word_index] = tuple(i for i, _ in ranked)
    sets = [frozenset(ranked_by_word[c.word_index]) for c in candidates]

    vertices: list[Vertex] = []
    for component in glue_by_neighbor_sets(sets, params.glue_threshold):
        members = tuple(
            sorted(
                (candidates[i] for i in component),
                key=lambda c: (c.axis_index, c.end_rank, c.word_index),
            )
        )
        rep = members[0].word_index
        vertices.append(
            Vertex(
                representative=rep,
                members=members,
                neighbor_set=ranked_by_word[rep],
            )
        )
    vertices.sort(key=lambda v: (v.members[0].axis_index, v.members[0].end_rank))
    return vertices


def sample_triangles(
    space: EmbeddingSpace,
    pool: Sequence[int],
    count: int,
    rng: np.random.Generator,
    apex: int | None = None,
) -> list[tuple[np.ndarray, TripleStats]]:
    """Containment stats for up to ``count`` random triangles over ``pool``.

    Each draw takes 3 distinct pool positions with ``rng.choice``, or 2
    when a fixed ``apex`` word is given, which then is the first corner.
    Degenerate triangles are redrawn, up to 10 x count draws in all, so
    fewer than ``count`` results come back when the draws run out; a pool
    too small for one draw gives none. Returns (drawn positions, stats)
    pairs in draw order.
    """
    if count < 0:
        raise ValueError("triangle sample count must be >= 0, got %d" % count)
    size = 3 if apex is None else 2
    if len(pool) < size:
        return []
    apex_corner = () if apex is None else (apex,)
    drawn: list[tuple[np.ndarray, TripleStats]] = []
    attempts = 0
    while len(drawn) < count and attempts < 10 * count:
        attempts += 1
        picks = rng.choice(len(pool), size=size, replace=False)
        corners = apex_corner + tuple(pool[int(p)] for p in picks)
        try:
            stats = triangle_stats(space, *corners)
        except DegenerateTriangleError:
            continue
        drawn.append((picks, stats))
    return drawn


def filter_false_vertices(
    space: EmbeddingSpace,
    vertices: list[Vertex],
    params: ExtractionParams,
) -> list[Vertex]:
    """Reject vertices that leave too much of the cloud outside their
    random triangles.

    For each vertex, ``trials`` random pairs of other vertices are drawn
    (from a stream seeded by the vertex rank, so results do not depend on
    evaluation order) and the mean outside-triangle fraction is stored on
    the vertex. Vertices with mean above tau are dropped. Degenerate
    triples are redrawn up to 10 x trials times (see ``sample_triangles``).
    """
    if len(vertices) < 3:
        log.warning(
            "only %d vertices; the false-vertex test needs 3, passing all through",
            len(vertices),
        )
        return list(vertices)

    reps = [v.representative for v in vertices]
    for rank, vertex in enumerate(vertices):
        others = [r for i, r in enumerate(reps) if i != rank]
        rng = np.random.default_rng([params.seed, _FILTER_STREAM, rank])
        drawn = sample_triangles(
            space, others, params.trials, rng, apex=vertex.representative
        )
        if not drawn:
            raise DegenerateSamplingError(
                "all sampled triples degenerate for vertex %r"
                % space.words[vertex.representative]
            )
        fractions = [1.0 - stats.inside_triangle_fraction for _, stats in drawn]
        vertex.outside_fraction = float(sum(fractions) / len(fractions))

    return [v for v in vertices if v.outside_fraction <= params.tau]


def describe_vertex(
    space: EmbeddingSpace, vertex: Vertex, k_desc: int = 5
) -> list[tuple[str, float]]:
    """Top words describing a vertex: its nearest neighbors by cosine."""
    if k_desc < 1:
        raise ValueError("k_desc must be >= 1")
    k = min(k_desc, space.n_words)
    ranked = topk_neighbors(space, space.vectors[vertex.representative], k)
    return [(space.words[i], sim) for i, sim in ranked]
