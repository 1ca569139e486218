"""End-to-end analysis driver and report/projection emitters.

The report is a presentation artifact: every float stored in it is already
rounded to 6 significant digits, so emitting, parsing and re-emitting a
report is byte-stable and the aggregate means can be recomputed exactly
from the emitted per-triple values.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass, field, replace
from typing import Sequence

import numpy as np

from . import __version__
from .embeddings import DEFAULT_MAX_WORDS, EmbeddingSpace, load_embeddings
from .extractor import (
    ExtractionParams,
    check_sample_count,
    describe_vertex,
    filter_false_vertices,
    find_candidates,
    glue_candidates,
    sample_triangles,
)
from .geometry import PoolProduct, containment, project_triple
from .pca import fit_pca, informative_axis_count
from .stages import StageTimer

# Stream tag for the triple sampler (the false-vertex filter uses tag 0).
_TRIPLE_STREAM = 1


def _round6(x: float) -> float:
    """Round to 6 significant digits; the rounding applied to every float
    that enters a report."""
    return float("%.6g" % x)


@dataclass
class AnalysisConfig:
    """Inputs and knobs for one full analysis run.

    The defaults are the pipeline defaults; the command line reads them
    from here. Every knob is checked when the config is built, so a bad
    value fails before the input is read.
    """

    input_path: str
    max_words: int = DEFAULT_MAX_WORDS
    normalize: bool = False
    axes: int = ExtractionParams.num_axes
    k: int = ExtractionParams.k
    glue_threshold: float = ExtractionParams.glue_threshold
    trials: int = ExtractionParams.trials
    tau: float = ExtractionParams.tau
    triple_samples: int = 100
    seed: int = ExtractionParams.seed

    def __post_init__(self):
        check_sample_count(self.triple_samples)
        self._extraction_params()

    def _extraction_params(self) -> ExtractionParams:
        return ExtractionParams(
            num_axes=self.axes,
            k=self.k,
            glue_threshold=self.glue_threshold,
            trials=self.trials,
            tau=self.tau,
            seed=self.seed,
        )


@dataclass
class AnalysisReport:
    """Everything the analyze command reports, JSON-shaped."""

    params: dict
    vertices: list[dict]
    rejected: list[dict]
    triple_sample: list[dict]
    aggregates: dict
    warnings: list[str] = field(default_factory=list)


def sample_triple_stats(
    space: EmbeddingSpace,
    vertex_indices: Sequence[int],
    num_samples: int,
    seed: int,
) -> list[dict]:
    """Containment stats for seeded random triples of the given vertices.

    Degenerate triples are redrawn, up to 10 x num_samples attempts; fewer
    than 3 vertices give no triples. All triples are projected through one
    ``PoolProduct`` over the vertices.
    """
    names = [space.words[i] for i in vertex_indices]
    product = PoolProduct(space, vertex_indices)
    rng = np.random.default_rng([seed, _TRIPLE_STREAM])
    return [
        {
            "vertices": [names[int(p)] for p in picks],
            "inside_triangle_fraction": _round6(stats.inside_triangle_fraction),
            "outside_incircle_fraction": _round6(stats.outside_incircle_fraction),
        }
        for picks, stats in sample_triangles(product, vertex_indices, num_samples, rng)
    ]


def aggregate_triple_stats(entries: list[dict]) -> dict:
    """Plain arithmetic means over the (already rounded) sampled triples."""
    n = len(entries)
    if n == 0:
        return {
            "mean_inside_triangle_fraction": None,
            "mean_outside_incircle_fraction": None,
            "sample_size": 0,
        }
    inside = sum(e["inside_triangle_fraction"] for e in entries) / n
    outside = sum(e["outside_incircle_fraction"] for e in entries) / n
    return {
        "mean_inside_triangle_fraction": _round6(inside),
        "mean_outside_incircle_fraction": _round6(outside),
        "sample_size": n,
    }


def analyze_space(
    space: EmbeddingSpace,
    config: AnalysisConfig,
    source: str,
    timer: StageTimer | None = None,
) -> AnalysisReport:
    """Run the extraction pipeline on an in-memory space, timing its
    stages on ``timer`` (a fresh one by default)."""
    timer = timer or StageTimer()
    warnings: list[str] = []
    m_requested = min(config.axes, space.dim)
    with timer.stage("pca"):
        pca = fit_pca(space, m_requested)
        # Axes whose eigenvalue does not beat the mean eigenvalue are noise
        # floor; their extremes are arbitrary points, not corners.
        m_used = informative_axis_count(pca, m_requested)
    if m_used < m_requested:
        warnings.append(
            "dropped %d of %d axes at or below the mean-eigenvalue noise floor"
            % (m_requested - m_used, m_requested)
        )

    params = replace(
        config._extraction_params(), num_axes=m_used, k=min(config.k, space.n_words)
    )
    with timer.stage("candidates"):
        candidates = find_candidates(space, pca, m_used)
    with timer.stage("glue"):
        vertices = glue_candidates(space, candidates, params)
    if len(vertices) < 3:
        warnings.append("fewer than 3 vertices; false-vertex filter skipped")
    with timer.stage("filter"):
        survivors = filter_false_vertices(space, vertices, params)
    survivor_ids = {id(v) for v in survivors}
    rejected = [v for v in vertices if id(v) not in survivor_ids]

    with timer.stage("describe"):
        descriptions = [describe_vertex(space, v) for v in survivors]
    vertex_entries = []
    for v, described in zip(survivors, descriptions):
        description = [
            {"token": tok, "similarity": _round6(sim)} for tok, sim in described
        ]
        vertex_entries.append(
            {
                "token": space.words[v.representative],
                "members": [space.words[m.word_index] for m in v.members],
                "description": description,
                "outside_fraction": None
                if math.isnan(v.outside_fraction)
                else _round6(v.outside_fraction),
            }
        )
    rejected_entries = [
        {
            "token": space.words[v.representative],
            "outside_fraction": _round6(v.outside_fraction),
        }
        for v in rejected
    ]

    reps = [v.representative for v in survivors]
    with timer.stage("triples"):
        triple_sample = sample_triple_stats(
            space, reps, config.triple_samples, config.seed
        )
    if len(survivors) < 3:
        warnings.append("fewer than 3 surviving vertices; no triples sampled")

    return AnalysisReport(
        params={
            "input": source,
            "num_words": space.n_words,
            "dim": space.dim,
            "normalize": config.normalize,
            "tool_version": __version__,
            "max_words": config.max_words,
            "axes": config.axes,
            "axes_used": m_used,
            "k": params.k,
            "glue_threshold": config.glue_threshold,
            "trials": config.trials,
            "tau": config.tau,
            "triple_samples": config.triple_samples,
            "seed": config.seed,
        },
        vertices=vertex_entries,
        rejected=rejected_entries,
        triple_sample=triple_sample,
        aggregates=aggregate_triple_stats(triple_sample),
        warnings=warnings,
    )


def run_analysis(
    config: AnalysisConfig, timer: StageTimer | None = None
) -> AnalysisReport:
    """Load the input file and run the full pipeline on it. The parse
    stage includes the optional normalization."""
    timer = timer or StageTimer()
    with timer.stage("parse"):
        space = load_embeddings(
            config.input_path, max_words=config.max_words, normalize=config.normalize
        )
    return analyze_space(space, config, source=config.input_path, timer=timer)


def emit_report(report: AnalysisReport, fmt: str = "json") -> bytes:
    """Render a report as UTF-8 bytes (stable JSON or a readable table)."""
    if fmt == "json":
        text = json.dumps(asdict(report), ensure_ascii=False, indent=2)
        return (text + "\n").encode("utf-8")
    if fmt == "text":
        return _format_text_report(report).encode("utf-8")
    raise ValueError("unknown report format %r" % fmt)


def _format_text_report(report: AnalysisReport) -> str:
    lines = []
    p = report.params
    lines.append(
        "analyzed %s: %d words, %d dims (axes used: %d, seed %d)"
        % (p["input"], p["num_words"], p["dim"], p["axes_used"], p["seed"])
    )
    for w in report.warnings:
        lines.append("warning: %s" % w)
    lines.append("")
    lines.append("surviving vertices: %d" % len(report.vertices))
    for i, v in enumerate(report.vertices, 1):
        frac = v["outside_fraction"]
        frac_txt = "n/a" if frac is None else "%.4f" % frac
        lines.append("%3d. %s  (outside fraction %s)" % (i, v["token"], frac_txt))
        desc = ", ".join(
            "%s (%.3f)" % (d["token"], d["similarity"]) for d in v["description"]
        )
        lines.append("     top words: %s" % desc)
    if report.rejected:
        lines.append("")
        lines.append("rejected vertices: %d" % len(report.rejected))
        for v in report.rejected:
            lines.append(
                "     %s  (outside fraction %.4f)" % (v["token"], v["outside_fraction"])
            )
    agg = report.aggregates
    lines.append("")
    if agg["sample_size"]:
        lines.append(
            "over %d sampled triples: %.4f of words inside the triangle, "
            "%.4f outside the incircle"
            % (
                agg["sample_size"],
                agg["mean_inside_triangle_fraction"],
                agg["mean_outside_incircle_fraction"],
            )
        )
    else:
        lines.append("no triples sampled")
    return "\n".join(lines) + "\n"


def emit_projection(
    space: EmbeddingSpace, triple: tuple[int, int, int], fmt: str = "csv"
) -> bytes:
    """Project the cloud onto one vertex-triple plane and render it.

    CSV carries one row per word with exact coordinates and containment
    flags; SVG draws the scatter with the triangle, its incircle, and the
    three vertex labels.
    """
    coords, tri2d = project_triple(space, *triple)
    in_tri, center, radius, in_circ = containment(coords, tri2d)
    if fmt == "csv":
        return _projection_csv(space, coords, in_tri, in_circ)
    if fmt == "svg":
        return _projection_svg(space, triple, coords, tri2d, in_tri, center, radius)
    raise ValueError("unknown projection format %r" % fmt)


def _projection_csv(space, coords, in_tri, in_circ) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["token", "x", "y", "inside_triangle", "inside_incircle"])
    for i, word in enumerate(space.words):
        writer.writerow(
            [
                word,
                repr(float(coords[i, 0])),
                repr(float(coords[i, 1])),
                "true" if in_tri[i] else "false",
                "true" if in_circ[i] else "false",
            ]
        )
    return buf.getvalue().encode("utf-8")


def _xml_escape(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _projection_svg(space, triple, coords, tri2d, in_tri, center, radius) -> bytes:
    size = 800.0
    pad = 40.0
    xmin, ymin = coords.min(axis=0)
    xmax, ymax = coords.max(axis=0)
    span = max(xmax - xmin, ymax - ymin, 1e-12)
    scale = (size - 2 * pad) / span

    def sx(x):
        return pad + (x - xmin) * scale

    def sy(y):
        # flip so larger y is up, as on a plot
        return size - pad - (y - ymin) * scale

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">\n' % (size, size, size, size),
        '<rect width="%d" height="%d" fill="white"/>\n' % (size, size),
    ]
    for i in range(coords.shape[0]):
        color = "#4878a8" if in_tri[i] else "#c44e52"
        parts.append(
            '<circle cx="%.3f" cy="%.3f" r="1.2" fill="%s" fill-opacity="0.45"/>\n'
            % (sx(coords[i, 0]), sy(coords[i, 1]), color)
        )
    tri_pts = " ".join(
        "%.3f,%.3f" % (sx(x), sy(y)) for x, y in tri2d
    )
    parts.append(
        '<polygon points="%s" fill="none" stroke="black" stroke-width="1.5"/>\n'
        % tri_pts
    )
    parts.append(
        '<circle cx="%.3f" cy="%.3f" r="%.3f" fill="none" stroke="black" '
        'stroke-width="1" stroke-dasharray="6 4"/>\n'
        % (sx(center[0]), sy(center[1]), radius * scale)
    )
    for (x, y), word_idx in zip(tri2d, triple):
        parts.append(
            '<text x="%.3f" y="%.3f" font-size="16" font-family="sans-serif">'
            "%s</text>\n" % (sx(x) + 6, sy(y) - 6, _xml_escape(space.words[word_idx]))
        )
    parts.append("</svg>\n")
    return "".join(parts).encode("utf-8")
