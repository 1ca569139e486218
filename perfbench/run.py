#!/usr/bin/env python3
"""Stage-by-stage benchmark for embshape.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Each run builds its inputs from the workload seed (timed as set-up), then
drives the checkout's ``embshape`` CLI in fresh child processes, one at a
time, for ``--seconds`` seconds. ``--trace 0`` reports the end-to-end
metrics from each child's own rusage; ``--trace 1`` runs the same requests
through ``trace_child.py``, which times the calls into each module, and
reports the per-layer metrics. Every output is checked; the last stdout
line is one JSON object with the keys correct, attempted, failed, metrics.
See perfbench/README.md for the workloads and what each metric predicts.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import xml.etree.ElementTree as ET
import zlib
from dataclasses import dataclass, field
from pathlib import Path

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Inputs are generated in this process: pin its BLAS to one thread so the
# same seed writes the same bytes on any machine. Children get their own
# thread setting.
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

# Every child is killed, and counted as failed, once the run is this old.
DEADLINE_S = 170.0
STARTUP_SAMPLES = 5
NPROC = len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "analyze" or "project"
    points: int
    dim: int
    corners: int
    sigmas: tuple  # one synthetic cloud per entry
    float_format: str  # coordinate format of the input text
    header: bool = False  # word2vec "N D" first line
    mixed_tokens: bool = False  # ASCII and non-ASCII tokens
    analyze_args: tuple = ()
    setup_reps: int = 1
    min_requests: int = 2


WORKLOADS = {
    w.name: w
    for w in (
        # 120 MB matrix, larger than L3: each triangle is a memory-bound
        # N x D pass, and the filter plus triple sample dominate. Trials and
        # samples are cut from the defaults (20, 100) so one request fits a
        # run; every triangle still makes the same full pass.
        Workload(
            name="simplex-large",
            command="analyze",
            points=50_000,
            dim=300,
            corners=40,
            sigmas=(0.01,),
            float_format="%.17g",
            analyze_args=("--trials", "4", "--triple-samples", "20"),
            min_requests=3,
        ),
        # 8 MB matrices that stay in cache: per-triangle Python overhead,
        # process start-up and BLAS threads set the cost.
        Workload(
            name="seed-sweep",
            command="analyze",
            points=20_000,
            dim=50,
            corners=12,
            sigmas=(0.0, 0.01, 0.0, 0.01),
            float_format="%.17g",
            setup_reps=3,
            min_requests=4,
        ),
        # Parse-dominated: GloVe-precision word2vec text with mixed tokens,
        # one projection, every word's coordinates emitted as CSV and SVG.
        Workload(
            name="glove-project",
            command="project",
            points=50_000,
            dim=300,
            corners=40,
            sigmas=(0.01,),
            float_format="%.6g",
            header=True,
            mixed_tokens=True,
        ),
    )
}

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

LAYER_UNITS = {
    "cli.startup_s": "s",
    "embeddings.load_s": "s",
    "embeddings.input_mb": "MB",
    "embeddings.mb_per_s": "MB/s",
    "embeddings.words": "count",
    "embeddings.peak_rss_mb": "MB",
    "pca.fit_s": "s",
    "pca.axes_requested": "count",
    "pca.axes_used": "count",
    "extractor.candidates_s": "s",
    "extractor.candidates": "count",
    "extractor.unique_candidates": "count",
    "extractor.glue_s": "s",
    "extractor.describe_s": "s",
    "extractor.neighbor_queries": "count",
    "extractor.glued_vertices": "count",
    "extractor.filter_s": "s",
    "extractor.filter_self_s": "s",
    "extractor.survivors": "count",
    "extractor.rejected": "count",
    "geometry.triangles": "count",
    "geometry.degenerate": "count",
    "geometry.triangle_s": "s",
    "geometry.gb_computed": "GB",
    "geometry.gb_per_s": "GB/s",
    "report.triples_s": "s",
    "report.triples_self_s": "s",
    "report.triples": "count",
    "report.emit_s": "s",
    "report.emit_bytes": "bytes",
    "report.projection_s": "s",
    "report.projection_bytes": "bytes",
    "trace.overhead_s": "s",
    "trace.uncovered_s": "s",
}

# Stage spans that every traced request of a command must contain.
REQUIRED_SPANS = {
    "analyze": (
        "embeddings.load",
        "pca.fit",
        "extractor.candidates",
        "extractor.glue",
        "extractor.filter",
        "extractor.describe",
        "report.triples",
        "report.emit",
    ),
    "project": ("embeddings.load", "report.projection"),
}

TOKEN_STEMS = (
    "the", "of", "x-ray", "o'clock", "u.s.", "café", "naïve", "straße",
    "mañana", "день", "слово", "東京", "日本語", "κόσμος", "ἀρχή", "🙂",
)


# ---------------------------------------------------------------- inputs


@dataclass
class Input:
    path: Path
    corner_tokens: list  # planted corners, in row order
    projected: tuple = ()  # the three --words of a project request


def write_text(path, tokens, vectors, float_format, header):
    row_format = " ".join([float_format] * vectors.shape[1])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if header:
            fh.write("%d %d\n" % vectors.shape)
        fh.writelines(
            "%s %s\n" % (tok, row_format % tuple(row))
            for tok, row in zip(tokens, vectors.tolist())
        )


def make_inputs(wl: Workload, seed: int, workdir: Path) -> list:
    """Write the workload's input files; the same seed writes the same bytes."""
    # the checkout's own package, imported once main() has checked it is there
    from embshape.synthetic import generate_simplex_cloud

    rng = np.random.default_rng([seed, zlib.crc32(wl.name.encode())])
    inputs = []
    for i, sigma in enumerate(wl.sigmas):
        cloud = generate_simplex_cloud(
            dim=wl.dim,
            num_vertices=wl.corners,
            num_points=wl.points,
            alpha=1.5,
            sigma=sigma,
            seed=int(rng.integers(2**31)),
        )
        tokens = list(cloud.space.words)
        projected = ()
        if wl.mixed_tokens:
            stems = rng.integers(len(TOKEN_STEMS), size=wl.points)
            tokens = ["%s_%d" % (TOKEN_STEMS[s], j) for j, s in enumerate(stems)]
        if wl.command == "project":
            # ASCII names, so the words pass through argv under any locale
            picks = rng.choice(wl.corners, size=3, replace=False)
            for p in picks:
                tokens[p] = "corner_%d" % p
            projected = tuple(tokens[p] for p in picks)
        path = workdir / ("cloud%d.txt" % i)
        write_text(path, tokens, cloud.space.vectors, wl.float_format, wl.header)
        inputs.append(Input(path, tokens[: wl.corners], projected))
    return inputs


def requests_for(wl: Workload, inputs: list, seed: int) -> list:
    """One request per input: a list of (key, embshape argv, output kind).

    ``key`` names one output; every child with the same key must write the
    same bytes. Children run in ``workdir``, so paths are relative and the
    reports do not depend on where the checkout is.
    """
    analyze_seed = str(seed % 1000)
    out = []
    for i, inp in enumerate(inputs):
        if wl.command == "analyze":
            key = "cloud%d.json" % i
            argv = ["analyze", inp.path.name, "--seed", analyze_seed, *wl.analyze_args]
            out.append([(key, argv + ["-o", key], "json")])
        else:
            request = []
            for fmt in ("csv", "svg"):
                key = "cloud%d.%s" % (i, fmt)
                argv = ["project", inp.path.name, "--words", *inp.projected, "--format", fmt]
                request.append((key, argv + ["-o", key], fmt))
            out.append(request)
    return out


# ---------------------------------------------------------------- children


@dataclass
class Child:
    ok: bool
    wall: float
    cpu: float
    rss_mb: float
    error: str = ""


@dataclass
class Runner:
    """Starts children one at a time and keeps the run's tallies."""

    deadline: float
    workdir: Path
    attempted: int = 0
    errors: list = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.errors.append(message)
        print("perfbench: FAIL %s" % message, file=sys.stderr)

    def spawn(self, cmd: list, threads: int) -> Child:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
        )
        for var in BLAS_VARS:
            env[var] = str(threads)
        self.attempted += 1
        log = self.workdir / "child.log"
        with open(log, "wb") as sink:
            start = time.perf_counter()
            proc = subprocess.Popen(
                cmd, cwd=self.workdir, env=env, stdin=subprocess.DEVNULL, stdout=sink, stderr=sink
            )
            timer = threading.Timer(max(self.deadline - time.monotonic(), 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        child = Child(
            ok=proc.returncode == 0,
            wall=wall,
            cpu=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss * 1024 / 1e6,
        )
        if not child.ok:
            tail = log.read_bytes()[-400:].decode("utf-8", "replace").strip()
            child.error = "exit %d: %s" % (proc.returncode, tail)
        return child

    def embshape(self, argv: list, threads: int = NPROC) -> Child:
        return self.spawn([sys.executable, "-m", "embshape", *argv], threads)

    def traced(self, argv: list, spans: Path) -> Child:
        return self.spawn([sys.executable, str(HERE / "trace_child.py"), str(spans), *argv], NPROC)


def check_output(kind: str, data: bytes, wl: Workload, inp: Input):
    """Raise ValueError unless ``data`` is a well-formed output of ``kind``;
    return the parsed JSON report for analyze outputs."""
    if kind == "json":
        report = json.loads(data)
        if report["params"]["num_words"] != wl.points or "aggregates" not in report:
            raise ValueError("report does not describe the input")
        return report
    if kind == "csv":
        rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
        if rows[0] != ["token", "x", "y", "inside_triangle", "inside_incircle"]:
            raise ValueError("unexpected CSV header %r" % rows[0])
        if len(rows) != wl.points + 1:
            raise ValueError("CSV has %d rows for %d words" % (len(rows) - 1, wl.points))
        inside = {r[0] for r in rows[1:] if r[3] == "true"}
        if not set(inp.projected) <= inside:
            raise ValueError("a projected corner is not inside its own triangle")
        return None
    if kind == "svg":
        root = ET.fromstring(data)
        circles = sum(1 for e in root.iter() if e.tag.endswith("circle"))
        if circles != wl.points + 1:  # one dot per word plus the incircle
            raise ValueError("SVG has %d circles for %d words" % (circles, wl.points))
        return None
    raise ValueError("unknown output kind %r" % kind)


@dataclass
class Outputs:
    """Digest of each output key, checked equal across every child."""

    digests: dict = field(default_factory=dict)
    reports: dict = field(default_factory=dict)

    def accept(self, runner, key, kind, path, wl, inp, label) -> bool:
        try:
            data = path.read_bytes()
            parsed = check_output(kind, data, wl, inp)
        except (OSError, ValueError, KeyError, IndexError, TypeError, ET.ParseError) as exc:
            runner.fail("%s %s: unreadable output (%s)" % (label, key, exc))
            return False
        digest = hashlib.sha256(data).hexdigest()
        first = self.digests.setdefault(key, digest)
        if digest != first:
            runner.fail("%s %s: bytes differ from an earlier run of the same input" % (label, key))
            return False
        if parsed is not None:
            self.reports.setdefault(key, parsed)
        return True


def run_request(runner, outputs, request, wl, inp, label, threads=NPROC, spans_dir=None):
    """Run every child of one request; return (children, span documents),
    or None when any child or check failed."""
    children, docs = [], []
    for key, argv, kind in request:
        path = runner.workdir / key
        path.unlink(missing_ok=True)
        if spans_dir is None:
            child = runner.embshape(argv, threads)
        else:
            spans = spans_dir / (key + ".spans.json")
            child = runner.traced(argv, spans)
        if not child.ok:
            runner.fail("%s %s: %s" % (label, key, child.error))
            return None
        if not outputs.accept(runner, key, kind, path, wl, inp, label):
            return None
        if spans_dir is not None:
            docs.append(json.loads(spans.read_text(encoding="utf-8")))
        children.append(child)
    return children, docs


# ---------------------------------------------------------------- tracing


def self_times(spans: list) -> list:
    """Each span's duration minus the time its child spans cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(docs: list, command: str, runner: Runner) -> dict:
    """Per-layer numbers of one traced request, derived from its spans."""
    m = dict.fromkeys(LAYER_UNITS, 0.0)
    seen = set()
    for doc in docs:
        spans = doc["spans"]
        for s, self_s in zip(spans, self_times(spans)):
            name, dur = s["name"], s["end"] - s["start"]
            seen.add(name)
            if name == "cli.main":
                m["trace.uncovered_s"] += self_s
            elif name == "embeddings.load":
                m["embeddings.load_s"] += dur
                m["embeddings.input_mb"] += s["input_bytes"] / 1e6
                m["embeddings.words"] = max(m["embeddings.words"], s["words"])
                m["embeddings.peak_rss_mb"] = max(
                    m["embeddings.peak_rss_mb"], s["peak_rss_kb"] * 1024 / 1e6
                )
            elif name == "pca.fit":
                m["pca.fit_s"] += dur
                m["pca.axes_requested"] += s["axes_requested"]
            elif name == "extractor.candidates":
                m["extractor.candidates_s"] += dur
                m["pca.axes_used"] += s["axes_used"]
                m["extractor.candidates"] += s["candidates"]
                m["extractor.unique_candidates"] += s["unique_candidates"]
            elif name == "extractor.glue":
                m["extractor.glue_s"] += dur
                m["extractor.glued_vertices"] += s["glued_vertices"]
            elif name == "extractor.describe":
                m["extractor.describe_s"] += dur
            elif name == "extractor.topk":
                m["extractor.neighbor_queries"] += 1
            elif name == "extractor.filter":
                m["extractor.filter_s"] += dur
                m["extractor.filter_self_s"] += self_s
                m["extractor.survivors"] += s["survivors"]
                m["extractor.rejected"] += s["rejected"]
            elif name == "geometry.triangle":
                m["geometry.triangles"] += 1
                m["geometry.triangle_s"] += dur
                m["geometry.degenerate"] += s.get("error") == "DegenerateTriangleError"
                # computed, not measured: one N x D float64 pass per call
                m["geometry.gb_computed"] += s["n"] * s["d"] * 8 / 1e9
            elif name == "report.triples":
                m["report.triples_s"] += dur
                m["report.triples_self_s"] += self_s
                m["report.triples"] += s["triples"]
            elif name == "report.emit":
                m["report.emit_s"] += dur
                m["report.emit_bytes"] += s["bytes"]
            elif name == "report.projection":
                m["report.projection_s"] += dur
                m["report.projection_bytes"] += s["bytes"]
        m["trace.overhead_s"] += doc["per_span_overhead_s"] * len(spans)
    for name in REQUIRED_SPANS[command]:
        if name not in seen:
            runner.fail("trace: the %s wrapper never fired" % name)
    if m["embeddings.load_s"] > 0:
        m["embeddings.mb_per_s"] = m["embeddings.input_mb"] / m["embeddings.load_s"]
    if m["geometry.triangle_s"] > 0:
        m["geometry.gb_per_s"] = m["geometry.gb_computed"] / m["geometry.triangle_s"]
    return m


def stage_table(docs: list) -> list:
    """(stage, seconds) of one request, largest first. The stages are the
    spans called straight from cli.main, plus cli.main's own self time as
    trace.uncovered, so together they account for every cli.main second."""
    totals = {"trace.uncovered": 0.0}
    for doc in docs:
        spans = doc["spans"]
        totals["trace.uncovered"] += self_times(spans)[0]
        for s in spans:
            if s["parent"] == 0:
                totals[s["name"]] = totals.get(s["name"], 0.0) + s["end"] - s["start"]
    return sorted(totals.items(), key=lambda kv: -kv[1])


# ---------------------------------------------------------------- runs


def machine_facts() -> str:
    try:
        l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        l3 = "unknown"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "nproc=%d numpy=%s blas=%s %s L3=%s python=%s" % (
        NPROC,
        np.__version__,
        blas.get("name"),
        blas.get("version"),
        l3,
        sys.version.split()[0],
    )


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run: set up, measure, check. Returns the result object."""
    started = time.monotonic()
    workdir = WORK / ("%s-%d" % (wl.name, os.getpid()))
    workdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(deadline=started + DEADLINE_S, workdir=workdir)
    try:
        setups = []
        for _ in range(wl.setup_reps):
            t0 = time.perf_counter()
            inputs = make_inputs(wl, seed, workdir)
            setups.append(time.perf_counter() - t0)
        requests = requests_for(wl, inputs, seed)
        outputs = Outputs()
        lines = []
        if trace:
            metrics = traced_run(wl, seconds, runner, outputs, inputs, requests, lines)
        else:
            metrics = untraced_run(wl, seconds, runner, outputs, inputs, requests, lines)
            metrics["setup_s"] = statistics.median(setups)
            lines.append(
                "  setup_s            %.4f s   (median of %d generations of %d input file(s))"
                % (metrics["setup_s"], len(setups), len(inputs))
            )
        lines += quality_lines(wl, inputs, outputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(runner.errors)
    attempted = max(runner.attempted, failed, 1)
    print(
        "perfbench %s seed=%d trace=%d seconds=%g: %s; inputs read from a warm page cache"
        % (wl.name, seed, trace, seconds, machine_facts())
    )
    for line in lines:
        print(line)
    print(
        "  error_rate         %.4f     (%d failed of %d attempted child runs and checks)"
        % (failed / attempted, failed, attempted)
    )
    units = LAYER_UNITS if trace else E2E_UNITS
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics.get(k, 0.0), "unit": u} for k, u in units.items()},
    }


def window(min_count: int, seconds: float, deadline: float):
    """Request numbers 0, 1, ... until ``seconds`` have passed and at least
    ``min_count`` were handed out, but never past ``deadline``."""
    t0 = time.monotonic()
    i = 0
    while (i < min_count or time.monotonic() - t0 < seconds) and time.monotonic() < deadline:
        yield i
        i += 1


def untraced_run(wl, seconds, runner, outputs, inputs, requests, lines) -> dict:
    walls, cpus, rss = [], [], []
    for i in window(wl.min_requests, seconds, runner.deadline):
        k = i % len(requests)
        done = run_request(runner, outputs, requests[k], wl, inputs[k], "request %d" % i)
        if done is None:
            continue
        children, _ = done
        walls.append(sum(c.wall for c in children))
        cpus.append(sum(c.cpu for c in children))
        rss.append(max(c.rss_mb for c in children))
    if not walls:
        runner.fail("no request completed")
        return {}
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": max(rss),
    }
    request = "one analyze" if wl.command == "analyze" else "project --format csv then svg"
    lines += [
        "  wall_s             %.4f s   (median of %d requests; a request is %s)"
        % (metrics["wall_s"], len(walls), request),
        "  cpu_s              %.4f s   (median user+system CPU of the same requests)"
        % metrics["cpu_s"],
        "  peak_rss_mb        %.1f MB  (largest child peak RSS)" % metrics["peak_rss_mb"],
    ]
    return metrics


def traced_run(wl, seconds, runner, outputs, inputs, requests, lines) -> dict:
    # Reference bytes from the untraced CLI, then the determinism oracle:
    # one BLAS thread must write the same bytes as NPROC threads.
    for k, request in enumerate(requests):
        for threads in (NPROC, 1):
            label = "check %d thread(s)" % threads
            run_request(runner, outputs, request, wl, inputs[k], label, threads)

    startup = []
    version_log = runner.workdir / "child.log"
    for _ in range(STARTUP_SAMPLES):
        child = runner.embshape(["--version"])
        if child.ok and version_log.read_bytes().startswith(b"embshape "):
            startup.append(child.wall)
        else:
            runner.fail("embshape --version: %s" % (child.error or "unexpected output"))

    spans_dir = runner.workdir / "spans"
    spans_dir.mkdir(exist_ok=True)
    per_request, tables, traced_walls = [], [], []
    for i in window(len(requests), seconds, runner.deadline):
        k = i % len(requests)
        label = "traced %d" % i
        done = run_request(runner, outputs, requests[k], wl, inputs[k], label, spans_dir=spans_dir)
        if done is None:
            continue
        children, docs = done
        per_request.append(layer_metrics(docs, wl.command, runner))
        tables.append(stage_table(docs))
        traced_walls.append(sum(c.wall for c in children))
    if not per_request:
        runner.fail("no traced request completed")
        return {}

    metrics = {k: statistics.median(r[k] for r in per_request) for k in LAYER_UNITS}
    metrics["cli.startup_s"] = statistics.median(startup) if startup else 0.0
    lines.append("  per-layer values are medians over %d traced requests" % len(per_request))
    for name, unit in LAYER_UNITS.items():
        lines.append("  %-28s %14.6g %s" % (name, metrics[name], unit))
    lines.append(
        "  geometry.gb_* are computed as calls x N x D x 8 bytes, not measured; "
        "no roofline ratio: no sustained-bandwidth probe is taken, and the "
        "120 MB matrices are under 4x the L3 size"
    )
    # The stages partition the cli.main span; interpreter start-up and
    # imports make up the rest of the child's wall time.
    order = sorted(range(len(traced_walls)), key=traced_walls.__getitem__)
    mid = order[len(order) // 2]
    root = sum(seconds for _, seconds in tables[mid])
    lines.append(
        "  stages of the median traced request (child wall %.3f s, cli.main %.3f s):"
        % (traced_walls[mid], root)
    )
    for name, seconds in tables[mid]:
        lines.append("    %-24s %9.4f s  %5.1f%%" % (name, seconds, 100 * seconds / root))
    return metrics


def quality_lines(wl, inputs, outputs) -> list:
    """Report digests, plus planted-corner recovery for analyze workloads."""
    lines = []
    for key in sorted(outputs.digests):
        lines.append("  digest %-14s sha256:%s" % (key, outputs.digests[key][:16]))
    if wl.command != "analyze":
        return lines
    recovered = false = 0
    for i, inp in enumerate(inputs):
        report = outputs.reports.get("cloud%d.json" % i)
        if report is None:
            continue
        tokens = {v["token"] for v in report["vertices"]}
        hit = len(tokens & set(inp.corner_tokens))
        recovered += hit
        false += len(tokens) - hit
    planted = wl.corners * len(inputs)
    lines.append("  corners_recovered  %d count  (of %d planted)" % (recovered, planted))
    lines.append("  false_vertices     %d count" % false)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "embshape" / "cli.py").is_file():
        print("perfbench: no embshape package under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct = True
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        correct = correct and result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
