"""Run one embshape CLI command in-process, with timing spans around the
calls into each module.

Usage:
    python3 perfbench/trace_child.py SPANS.json embshape-arg...

The package must be importable (run.py puts the checkout's ``src`` on
PYTHONPATH). Wrappers are installed on the module attributes the pipeline
calls through, so the package itself is not modified; then ``cli.main``
runs with the given arguments, exactly as ``python -m embshape`` would.
Spans are kept in memory and written to SPANS.json when the command ends.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import types

# (module, attribute, span name, required). A required wrapper whose
# attribute is gone fails the run; an optional one may disappear in a
# refactor, and its counters then read zero.
ANALYZE_WRAPPERS = [
    ("report", "load_embeddings", "embeddings.load", True),
    ("report", "fit_pca", "pca.fit", True),
    ("report", "find_candidates", "extractor.candidates", True),
    ("report", "glue_candidates", "extractor.glue", True),
    ("report", "filter_false_vertices", "extractor.filter", True),
    ("report", "describe_vertex", "extractor.describe", True),
    ("report", "sample_triple_stats", "report.triples", True),
    ("cli", "emit_report", "report.emit", True),
    ("extractor", "topk_neighbors", "extractor.topk", False),
    ("extractor", "triangle_stats", "geometry.triangle", False),
    ("report", "triangle_stats", "geometry.triangle", False),
]
PROJECT_WRAPPERS = [
    ("cli", "load_embeddings", "embeddings.load", True),
    ("cli", "emit_projection", "report.projection", True),
    ("report", "project_triple", "geometry.triangle", False),
]


def _attrs(name: str, args: tuple, result) -> dict:
    """Counts recorded on a span when its call returns."""
    if name == "embeddings.load":
        return {
            "words": result.n_words,
            "input_bytes": os.path.getsize(args[0]),
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }
    if name == "pca.fit":
        return {"axes_requested": args[1]}
    if name == "extractor.candidates":
        return {
            "axes_used": args[2],
            "candidates": len(result),
            "unique_candidates": len({c.word_index for c in result}),
        }
    if name == "extractor.glue":
        return {"glued_vertices": len(result)}
    if name == "extractor.filter":
        return {"survivors": len(result), "rejected": len(args[1]) - len(result)}
    if name == "report.triples":
        return {"triples": len(result)}
    if name in ("report.emit", "report.projection"):
        return {"bytes": len(result)}
    if name == "geometry.triangle":
        return {"n": args[0].n_words, "d": args[0].dim}
    return {}


class Tracer:
    """Records spans (name, start, end, parent) for wrapped calls."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def span(self, name: str, fn, args=(), kwargs=None):
        record = {"name": name, "parent": self._stack[-1] if self._stack else None}
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record["start"] = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        except Exception as exc:
            record["error"] = type(exc).__name__
            raise
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
        record.update(_attrs(name, args, result))
        return result

    def wrap(self, module, attr: str, name: str) -> None:
        fn = getattr(module, attr)

        def wrapper(*args, **kwargs):
            return self.span(name, fn, args, kwargs)

        setattr(module, attr, wrapper)


def _per_span_overhead(calls: int = 20_000) -> float:
    """Seconds a wrapper adds to one call, measured on a no-op function."""
    ns = types.SimpleNamespace(noop=lambda: None)
    start = time.perf_counter()
    for _ in range(calls):
        ns.noop()
    bare = time.perf_counter() - start
    Tracer().wrap(ns, "noop", "noop")
    start = time.perf_counter()
    for _ in range(calls):
        ns.noop()
    wrapped = time.perf_counter() - start
    return max(wrapped - bare, 0.0) / calls


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    import embshape.cli
    import embshape.extractor
    import embshape.report

    modules = {
        "cli": embshape.cli,
        "report": embshape.report,
        "extractor": embshape.extractor,
    }
    table = ANALYZE_WRAPPERS if cli_args[0] == "analyze" else PROJECT_WRAPPERS
    tracer = Tracer()
    for module_name, attr, name, required in table:
        module = modules[module_name]
        if not hasattr(module, attr):
            if required:
                print(
                    "trace: embshape.%s.%s is gone; the %s wrapper cannot be installed"
                    % (module_name, attr, name),
                    file=sys.stderr,
                )
                return 3
            continue
        tracer.wrap(module, attr, name)

    code = tracer.span("cli.main", embshape.cli.main, (cli_args,))
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "exit_code": code,
                "per_span_overhead_s": _per_span_overhead(),
                "spans": tracer.spans,
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
