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
from .geometry import PoolProduct, PoolTriangle
from .pca import PcaModel, centered_product, row_products
from . import stages

log = logging.getLogger(__name__)

END_MIN = "min"
END_MAX = "max"

# Stream tag for per-vertex RNGs; keeps them disjoint from other seeded
# streams derived from the same user seed.
_FILTER_STREAM = 0

# The nearest words that describe a vertex in a report.
DESCRIBED_WORDS = 5


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
    neighborhood of the representative that glue stored, its top K words or
    more, and ``neighbor_sims`` their cosine similarities, which
    ``describe_vertex`` reads when it can; ``outside_fraction`` stays NaN
    until the false-vertex filter has run.
    """

    representative: int
    members: tuple[VertexCandidate, ...]
    neighbor_set: tuple[int, ...]
    neighbor_sims: tuple[float, ...] = ()
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


def find_candidates(
    space: EmbeddingSpace, pca: PcaModel, num_axes: int
) -> list[VertexCandidate]:
    """The argmin/argmax words of each of the first ``num_axes`` axes.

    Candidates come out in (axis0-min, axis0-max, axis1-min, ...) order;
    ties on the extreme value go to the lowest word index. All axes are
    scored in one blocked product, which gives identical rows identical
    scores wherever they sit in the matrix.
    """
    if not 0 < num_axes <= pca.num_axes:
        raise ValueError(
            "num_axes %d out of range [1, %d]" % (num_axes, pca.num_axes)
        )
    scores = centered_product(space.vectors, pca.mean, pca.axes[:num_axes])
    out: list[VertexCandidate] = []
    for i, col in enumerate(scores):
        lo = int(np.argmin(col))
        hi = int(np.argmax(col))
        out.append(VertexCandidate(lo, i, END_MIN, float(col[lo])))
        out.append(VertexCandidate(hi, i, END_MAX, float(col[hi])))
    return out


def topk_neighbors(
    space: EmbeddingSpace,
    query: np.ndarray,
    k: int,
    products: np.ndarray | None = None,
) -> list[tuple[int, float]]:
    """Exact top-k vocabulary words by cosine similarity to ``query``.

    Descending similarity, ties broken by lower word index; zero-norm rows
    are defined to have similarity 0 and always rank last. Only the rows
    at or above the k-th similarity are sorted, unless k reaches past the
    nonzero rows. The products of the cloud with the query are
    ``row_products(space.vectors, [query])[0]``: a caller that already
    holds them passes them, bit for bit, as ``products``, which is read,
    never written; otherwise they are taken here.
    """
    query = np.asarray(query, dtype=np.float64)
    qnorm = np.linalg.norm(query)
    if qnorm == 0.0:
        raise ValueError("query vector has zero norm")
    if not 1 <= k <= space.n_words:
        raise ValueError("k must be in [1, %d], got %d" % (space.n_words, k))
    stages.count("neighbor_queries")
    norms = space.row_norms
    zero = norms == 0.0
    if products is None:
        (products,) = row_products(space.vectors, [query])
    sims = products / (np.where(zero, 1.0, norms) * qnorm)
    sims[zero] = 0.0
    nonzero = np.flatnonzero(~zero)
    if k >= len(nonzero):
        top = np.lexsort((np.arange(space.n_words), -sims, zero))[:k]
    else:
        neg = -sims[nonzero]
        kth = np.partition(neg, k - 1)[k - 1]
        # every row tied with the k-th; ~(>) also keeps NaN rows, which
        # sort last, and keeps them all when the k-th itself is NaN
        rows = nonzero[~(neg > kth)]
        top = rows[np.lexsort((rows, -sims[rows]))][:k]
    return [(int(i), float(sims[i])) for i in top]


def _jaccard(a: frozenset, b: frozenset) -> float:
    common = len(a & b)
    return common / (len(a) + len(b) - common)


def glue_by_neighbor_sets(
    neighbor_sets: list[frozenset], threshold: float
) -> list[list[int]]:
    """Connected components linking items whose sets have Jaccard
    similarity >= threshold. Returns components as sorted index lists,
    ordered by their smallest member."""
    # every item is labelled with the smallest member of its component
    n = len(neighbor_sets)
    label = list(range(n))
    for i, a in enumerate(neighbor_sets):
        for j in range(i + 1, n):
            if label[i] != label[j] and _jaccard(a, neighbor_sets[j]) >= threshold:
                keep, drop = sorted((label[i], label[j]))
                label = [keep if x == drop else x for x in label]
    groups: dict[int, list[int]] = {}
    for i, x in enumerate(label):
        groups.setdefault(x, []).append(i)
    return list(groups.values())


def glue_candidates(
    space: EmbeddingSpace,
    candidates: list[VertexCandidate],
    params: ExtractionParams,
) -> list[Vertex]:
    """Merge candidates that point at the same corner.

    Two candidates are linked when the Jaccard overlap of their top-K
    neighbor index sets reaches the glue threshold; vertices are the
    connected components, ordered by their representative's source axis.
    The products of the cloud with every unique candidate word are taken
    in one pass of ``row_products``; each word's row of them goes to
    ``topk_neighbors``, one call per word, which ranks its neighborhood.
    Each word is ranked to max(K, ``DESCRIBED_WORDS``) words and linked on
    the first K of them (a top-K ranking is the prefix of any longer one),
    and each vertex stores its representative's whole ranking, so that
    ``describe_vertex`` reads its ``DESCRIBED_WORDS`` words without a query.
    """
    if not candidates:
        raise ValueError("no candidates to glue")
    words = list(dict.fromkeys(c.word_index for c in candidates))
    queries = [space.vectors[w] for w in words]
    products = row_products(space.vectors, queries)
    depth = max(params.k, min(DESCRIBED_WORDS, space.n_words))
    ranked_by_word = {
        w: topk_neighbors(space, q, depth, products=row)
        for w, q, row in zip(words, queries, products)
    }
    sets = [
        frozenset(i for i, _ in ranked_by_word[c.word_index][: params.k])
        for c in candidates
    ]

    vertices: list[Vertex] = []
    for component in glue_by_neighbor_sets(sets, params.glue_threshold):
        members = tuple(
            sorted(
                (candidates[i] for i in component),
                key=lambda c: (c.axis_index, c.end_rank, c.word_index),
            )
        )
        rep = members[0].word_index
        neighbors, sims = zip(*ranked_by_word[rep])
        vertices.append(
            Vertex(
                representative=rep,
                members=members,
                neighbor_set=neighbors,
                neighbor_sims=sims,
            )
        )
    vertices.sort(key=lambda v: (v.members[0].axis_index, v.members[0].end_rank))
    return vertices


def check_sample_count(count: int) -> None:
    """Reject a negative number of triangles to sample."""
    if count < 0:
        raise ValueError("triangle sample count must be >= 0, got %d" % count)


def draw_triangles(
    product: PoolProduct,
    pool: Sequence[int],
    count: int,
    rng: np.random.Generator,
    apex: int | None = None,
) -> list[PoolTriangle]:
    """Up to ``count`` random triangles over ``pool``, for ``product.count``.

    Each draw takes 3 distinct pool positions with ``rng.choice``, or 2
    when a fixed ``apex`` word is given, which then is the first corner.
    ``product`` must hold every pool word and the apex. Degenerate
    triangles are redrawn, up to 10 x count draws in all, so fewer than
    ``count`` come back when the draws run out; a pool too small for one
    draw gives none. A draw is degenerate or not by its corner vectors
    alone, so every draw, and the ``triangles`` and ``redraws`` counted
    here, is settled before any word is projected. Returns the triangles
    in draw order.
    """
    check_sample_count(count)
    size = 3 if apex is None else 2
    if len(pool) < size:
        return []
    apex_corner = () if apex is None else (apex,)
    drawn: list[PoolTriangle] = []
    attempts = 0
    while len(drawn) < count and attempts < 10 * count:
        attempts += 1
        picks = rng.choice(len(pool), size=size, replace=False)
        corners = apex_corner + tuple(pool[int(p)] for p in picks)
        try:
            triangle = product.triangle(*corners)
        except DegenerateTriangleError:
            stages.count("redraws")
            continue
        stages.count("triangles")
        drawn.append(triangle)
    return drawn


def filter_false_vertices(
    space: EmbeddingSpace,
    vertices: list[Vertex],
    params: ExtractionParams,
    product: PoolProduct | None = None,
) -> list[Vertex]:
    """Reject vertices that leave too much of the cloud outside their
    random triangles.

    For each vertex, ``trials`` random pairs of other vertices are drawn
    (from a stream seeded by the vertex rank, so results do not depend on
    evaluation order) and the mean outside-triangle fraction is stored on
    the vertex. Vertices with mean above tau are dropped. Degenerate
    triples are redrawn up to 10 x trials times (see ``draw_triangles``).
    Every vertex's triangles are drawn first and then counted at once
    through ``product``, a ``PoolProduct`` that holds every representative;
    one is built when none is given.
    """
    if len(vertices) < 3:
        log.warning(
            "only %d vertices; the false-vertex test needs 3, passing all through",
            len(vertices),
        )
        return list(vertices)

    reps = [v.representative for v in vertices]
    if product is None:
        product = PoolProduct(space, reps)
    triangles: list[PoolTriangle] = []
    drawn_per_vertex: list[int] = []
    for rank, vertex in enumerate(vertices):
        others = [r for i, r in enumerate(reps) if i != rank]
        rng = np.random.default_rng([params.seed, _FILTER_STREAM, rank])
        drawn = draw_triangles(
            product, others, params.trials, rng, apex=vertex.representative
        )
        if not drawn:
            raise DegenerateSamplingError(
                "all sampled triples degenerate for vertex %r"
                % space.words[vertex.representative]
            )
        triangles.extend(drawn)
        drawn_per_vertex.append(len(drawn))

    inside = product.count(triangles)[:, 0].tolist()
    start = 0
    for vertex, n in zip(vertices, drawn_per_vertex):
        fractions = [1.0 - f for f in inside[start : start + n]]
        vertex.outside_fraction = float(sum(fractions) / len(fractions))
        start += n

    return [v for v in vertices if v.outside_fraction <= params.tau]


def describe_vertex(
    space: EmbeddingSpace, vertex: Vertex, k_desc: int = DESCRIBED_WORDS
) -> list[tuple[str, float]]:
    """Top words describing a vertex: its nearest neighbors by cosine.

    The first ``k_desc`` entries of the ranking glue stored on the vertex
    are the answer when it holds that many; otherwise the representative
    is queried. Either way the pairs are those of ``topk_neighbors``.
    """
    if k_desc < 1:
        raise ValueError("k_desc must be >= 1")
    k = min(k_desc, space.n_words)
    if len(vertex.neighbor_sims) >= k:
        ranked = zip(vertex.neighbor_set[:k], vertex.neighbor_sims[:k])
    else:
        ranked = topk_neighbors(space, space.vectors[vertex.representative], k)
    return [(space.words[i], sim) for i, sim in ranked]
