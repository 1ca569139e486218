"""Command-line interface.

Subcommands:
  analyze  full pipeline: parse, PCA, candidates, glue, filter, report
  project  project the cloud onto one vertex-triple plane (csv or svg)
  synth    generate a ground-truth simplex cloud plus truth sidecar
  stats    triple containment aggregates for a given vertex word list
"""

from __future__ import annotations

import argparse
import inspect
import json
import logging
import sys

import numpy as np

from . import __version__
from .cache import load_embeddings
from .embeddings import write_glove_text
from .errors import EmbshapeError
from .report import (
    AnalysisConfig,
    aggregate_triple_stats,
    emit_projection,
    emit_report,
    run_analysis,
    sample_triple_stats,
)
from .stages import StageTimer
from .synthetic import generate_simplex_cloud, write_ground_truth


def _add_input_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("input", help="embedding file (GloVe or word2vec text); '-' reads stdin")
    parser.add_argument(
        "--max-words",
        type=int,
        default=AnalysisConfig.max_words,
        metavar="N",
        help="keep only the first N unique tokens (default: %(default)s)",
    )
    parser.add_argument(
        "--normalize",
        action="store_true",
        help="scale vectors to unit length before analysis (default: off)",
    )


def _add_output_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "-o",
        "--out",
        default="-",
        metavar="PATH",
        help="output path ('-' writes stdout, the default)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="embshape",
        description="Detect and describe the simplex-shaped macro structure "
        "of a word embedding cloud.",
    )
    parser.add_argument("--version", action="version", version="embshape " + __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="run the full vertex-extraction pipeline")
    _add_input_options(p)
    _add_output_option(p)
    p.add_argument("--axes", type=int, default=AnalysisConfig.axes, help="PCA axes to scan (default: %(default)s)")
    p.add_argument("--k", type=int, default=AnalysisConfig.k, help="neighbor list size for gluing (default: %(default)s)")
    p.add_argument(
        "--glue-threshold",
        type=float,
        default=AnalysisConfig.glue_threshold,
        help="Jaccard overlap that merges two candidates (default: %(default)s)",
    )
    p.add_argument("--trials", type=int, default=AnalysisConfig.trials, help="random triangles per vertex in the filter (default: %(default)s)")
    p.add_argument("--tau", type=float, default=AnalysisConfig.tau, help="max mean outside-triangle fraction to survive (default: %(default)s)")
    p.add_argument("--triple-samples", type=int, default=AnalysisConfig.triple_samples, help="random triples for the report aggregates (default: %(default)s)")
    p.add_argument("--seed", type=int, default=AnalysisConfig.seed, help="seed for all random draws (default: %(default)s)")
    p.add_argument("--format", choices=["json", "text"], default="json", help="report format (default: %(default)s)")
    p.add_argument(
        "--timings",
        default=None,
        metavar="PATH",
        help="also write the wall seconds and work counts of each stage as JSON to PATH",
    )

    p = sub.add_parser("project", help="project the cloud onto one vertex triple")
    _add_input_options(p)
    _add_output_option(p)
    p.add_argument("--words", nargs=3, required=True, metavar="WORD", help="the three vertex words")
    p.add_argument("--format", choices=["csv", "svg"], default="csv", help="projection format (default: %(default)s)")

    p = sub.add_parser("synth", help="generate a ground-truth simplex cloud")
    _add_output_option(p)
    p.add_argument("--dim", type=int, default=50, help="space dimension (default: %(default)s)")
    p.add_argument("--vertices", type=int, default=12, help="simplex corner count (default: %(default)s)")
    p.add_argument("--points", type=int, default=20_000, help="total cloud size (default: %(default)s)")
    synth_defaults = inspect.signature(generate_simplex_cloud).parameters
    p.add_argument("--alpha", type=float, default=synth_defaults["alpha"].default, help="Dirichlet concentration (default: %(default)s)")
    p.add_argument("--sigma", type=float, default=synth_defaults["sigma"].default, help="Gaussian noise scale (default: %(default)s)")
    p.add_argument("--seed", type=int, default=synth_defaults["seed"].default, help="generator seed (default: %(default)s)")
    p.add_argument(
        "--irregular",
        action="store_true",
        help="draw arbitrary Gaussian corners instead of a regular simplex",
    )
    p.add_argument(
        "--truth",
        default=None,
        metavar="PATH",
        help="ground-truth sidecar path (default: OUT.truth.json; omitted for stdout)",
    )

    p = sub.add_parser("stats", help="triple aggregates for a given vertex list")
    _add_input_options(p)
    _add_output_option(p)
    p.add_argument(
        "--words",
        required=True,
        metavar="W1,W2,...",
        help="comma-separated vertex words (at least 3)",
    )
    p.add_argument("--triple-samples", type=int, default=AnalysisConfig.triple_samples, help="random triples to sample (default: %(default)s)")
    p.add_argument("--seed", type=int, default=AnalysisConfig.seed, help="sampling seed (default: %(default)s)")

    return parser


def _write_bytes(payload: bytes, out: str) -> None:
    if out == "-":
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
    else:
        with open(out, "wb") as fh:
            fh.write(payload)


def _check_distinct(words: list[str]) -> None:
    """Reject a repeated vertex word before the input is read: its triples
    would be degenerate or drawn more often than the others."""
    for i, w in enumerate(words):
        if w in words[:i]:
            raise ValueError("vertex word %r is given more than once" % w)


def _resolve_words(space, words):
    indices = []
    for w in words:
        if w not in space.index:
            raise ValueError("word %r is not in the loaded vocabulary" % w)
        indices.append(space.index[w])
    return indices


def _cmd_analyze(args: argparse.Namespace) -> int:
    config = AnalysisConfig(
        input_path=args.input,
        max_words=args.max_words,
        normalize=args.normalize,
        axes=args.axes,
        k=args.k,
        glue_threshold=args.glue_threshold,
        trials=args.trials,
        tau=args.tau,
        triple_samples=args.triple_samples,
        seed=args.seed,
    )
    timer = StageTimer()
    report = run_analysis(config, timer)
    with timer.stage("emit"):
        _write_bytes(emit_report(report, args.format), args.out)
    if args.timings:
        timer.write(args.timings)
    return 0


def _cmd_project(args: argparse.Namespace) -> int:
    _check_distinct(args.words)
    space = load_embeddings(args.input, max_words=args.max_words, normalize=args.normalize)
    ia, ib, ic = _resolve_words(space, args.words)
    _write_bytes(emit_projection(space, (ia, ib, ic), args.format), args.out)
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    cloud = generate_simplex_cloud(
        dim=args.dim,
        num_vertices=args.vertices,
        num_points=args.points,
        alpha=args.alpha,
        sigma=args.sigma,
        seed=args.seed,
        regular=not args.irregular,
    )
    write_glove_text(cloud.space, sys.stdout if args.out == "-" else args.out)
    truth_path = args.truth or (None if args.out == "-" else args.out + ".truth.json")
    if truth_path:
        write_ground_truth(cloud, truth_path)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    # checks the sample count and the seed as analyze does, before the parse
    AnalysisConfig(args.input, triple_samples=args.triple_samples, seed=args.seed)
    words = [w for w in args.words.split(",") if w]
    if len(words) < 3:
        raise ValueError("stats needs at least 3 vertex words, got %d" % len(words))
    _check_distinct(words)
    space = load_embeddings(args.input, max_words=args.max_words, normalize=args.normalize)
    indices = _resolve_words(space, words)
    triples = sample_triple_stats(space, indices, args.triple_samples, args.seed)
    payload = {
        "params": {
            "input": args.input,
            "vertex_words": words,
            "triple_samples": args.triple_samples,
            "seed": args.seed,
        },
        "triple_sample": triples,
        "aggregates": aggregate_triple_stats(triples),
    }
    text = json.dumps(payload, ensure_ascii=False, indent=2) + "\n"
    _write_bytes(text.encode("utf-8"), args.out)
    return 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "project": _cmd_project,
    "synth": _cmd_synth,
    "stats": _cmd_stats,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (EmbshapeError, ValueError, OSError, np.linalg.LinAlgError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
