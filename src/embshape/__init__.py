"""embshape: simplex-shaped macro structure of word embedding clouds.

Enumerates interpretable corner words of an embedding point cloud from
PCA-axis extremes, deduplicates them by neighborhood overlap, screens
them with a triangle-projection convexity test, and reports containment
statistics and 2-d projections.
"""

import os

# OpenBLAS worker threads spin for about 2^28 cycles after each threaded
# call, on the CPUs that the single-threaded kernels between those calls
# need. 4 is the shortest wait OpenBLAS accepts. It is read when numpy loads
# OpenBLAS, so it is set before the first numpy import; a value the user
# set wins.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

__version__ = "0.1.0"

from .embeddings import (
    EmbeddingSpace,
    detect_format,
    load_embeddings,
    normalized,
    parse_embeddings,
    write_glove_text,
)
from .errors import (
    DegenerateSamplingError,
    DegenerateTriangleError,
    EmbeddingFormatError,
    EmbshapeError,
)
from .extractor import (
    ExtractionParams,
    Vertex,
    VertexCandidate,
    describe_vertex,
    filter_false_vertices,
    find_candidates,
    glue_candidates,
    topk_neighbors,
)
from .geometry import (
    TripleStats,
    barycentric,
    incircle,
    inside_triangle,
    project_triple,
    triangle_stats,
)
from .pca import PcaModel, fit_pca, informative_axis_count
from .report import (
    AnalysisConfig,
    AnalysisReport,
    analyze_space,
    emit_projection,
    emit_report,
    run_analysis,
)
from .synthetic import SyntheticCloud, generate_simplex_cloud, write_ground_truth

__all__ = [
    "AnalysisConfig",
    "AnalysisReport",
    "DegenerateSamplingError",
    "DegenerateTriangleError",
    "EmbeddingFormatError",
    "EmbeddingSpace",
    "EmbshapeError",
    "ExtractionParams",
    "PcaModel",
    "SyntheticCloud",
    "TripleStats",
    "Vertex",
    "VertexCandidate",
    "analyze_space",
    "barycentric",
    "describe_vertex",
    "detect_format",
    "emit_projection",
    "emit_report",
    "filter_false_vertices",
    "find_candidates",
    "fit_pca",
    "generate_simplex_cloud",
    "glue_candidates",
    "incircle",
    "informative_axis_count",
    "inside_triangle",
    "load_embeddings",
    "normalized",
    "parse_embeddings",
    "project_triple",
    "run_analysis",
    "topk_neighbors",
    "triangle_stats",
    "write_glove_text",
    "write_ground_truth",
]
