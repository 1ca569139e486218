import csv
import io
import json
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from embshape import (
    AnalysisConfig,
    AnalysisReport,
    EmbeddingSpace,
    analyze_space,
    emit_projection,
    emit_report,
    format_glove_text,
    generate_simplex_cloud,
    project_triple,
    run_analysis,
    topk_neighbors,
    write_glove_text,
)
from embshape import embeddings
from embshape.cli import main
from embshape.stages import StageTimer


@pytest.fixture(scope="module")
def small_report(small_cloud):
    config = AnalysisConfig(input_path="<memory>", triple_samples=25, seed=0)
    return analyze_space(small_cloud.space, config, source="<memory>")


class TestAnalyze:
    def test_recovers_the_planted_corners(self, small_cloud, small_report):
        tokens = {v["token"] for v in small_report.vertices}
        truth = {small_cloud.space.words[i] for i in small_cloud.true_vertices}
        assert tokens <= truth
        assert len(tokens) >= len(truth) - 1  # coverage may miss one corner
        assert small_report.rejected == []

    def test_aggregates_on_noiseless_simplex(self, small_report):
        agg = small_report.aggregates
        assert agg["mean_inside_triangle_fraction"] == 1.0
        assert agg["sample_size"] == 25
        assert 0.0 <= agg["mean_outside_incircle_fraction"] <= 1.0

    def test_params_echoed(self, small_cloud, small_report):
        p = small_report.params
        assert p["num_words"] == len(small_cloud.space)
        assert p["dim"] == small_cloud.space.dim
        assert p["axes_used"] == 5  # rank of the 6-corner simplex
        assert p["normalize"] is False
        assert p["tool_version"]

    def test_aggregates_recompute_exactly_from_emitted_sample(self, small_report):
        data = json.loads(emit_report(small_report, "json"))
        sample = data["triple_sample"]
        n = len(sample)
        inside = float("%.6g" % (sum(t["inside_triangle_fraction"] for t in sample) / n))
        outside = float("%.6g" % (sum(t["outside_incircle_fraction"] for t in sample) / n))
        assert inside == data["aggregates"]["mean_inside_triangle_fraction"]
        assert outside == data["aggregates"]["mean_outside_incircle_fraction"]

    def test_every_token_is_in_the_vocabulary(self, small_cloud, small_report):
        vocab = set(small_cloud.space.words)
        for v in small_report.vertices:
            assert v["token"] in vocab
            assert set(v["members"]) <= vocab
            assert {d["token"] for d in v["description"]} <= vocab
        for t in small_report.triple_sample:
            assert set(t["vertices"]) <= vocab

    def test_descriptions_have_five_words(self, small_report):
        for v in small_report.vertices:
            assert len(v["description"]) == 5

    def test_too_few_vertices_yields_warning_flag(self):
        # an essentially 1-dimensional cloud: one informative axis, two
        # candidates, no triangle test possible
        rng = np.random.default_rng(3)
        t = rng.uniform(-1, 1, size=400)
        vectors = np.outer(t, np.array([1.0, 2.0, -1.0])) + 5.0
        vectors += rng.normal(0, 1e-4, vectors.shape)
        space = EmbeddingSpace(words=["w%d" % i for i in range(400)], vectors=vectors)
        config = AnalysisConfig(input_path="<memory>")
        report = analyze_space(space, config, source="<memory>")
        assert report.triple_sample == []
        assert report.aggregates["sample_size"] == 0
        assert any("fewer than 3" in w for w in report.warnings)
        data = json.loads(emit_report(report, "json"))
        assert isinstance(data["vertices"], list)


class TestEmitReport:
    def test_json_round_trip(self, small_report):
        payload = emit_report(small_report, "json")
        parsed = AnalysisReport(**json.loads(payload))
        assert parsed == small_report
        assert emit_report(parsed, "json") == payload

    def test_json_is_lf_terminated_utf8(self, small_report):
        payload = emit_report(small_report, "json")
        assert b"\r" not in payload
        assert payload.endswith(b"\n")
        payload.decode("utf-8")

    def test_emit_is_deterministic(self, small_report):
        assert emit_report(small_report, "json") == emit_report(small_report, "json")

    def test_text_format_lists_descriptions(self, small_report):
        text = emit_report(small_report, "text").decode()
        assert "surviving vertices: %d" % len(small_report.vertices) in text
        for v in small_report.vertices:
            assert v["token"] in text
        first = small_report.vertices[0]
        line = next(l for l in text.splitlines() if "top words" in l)
        assert line.count("(") == 5  # five description words with similarities

    def test_unknown_format_rejected(self, small_report):
        with pytest.raises(ValueError):
            emit_report(small_report, "yaml")


class TestEmitProjection:
    def test_csv_row_count_and_flags(self, small_cloud):
        space = small_cloud.space
        triple = tuple(small_cloud.true_vertices[:3])
        payload = emit_projection(space, triple, "csv").decode()
        rows = list(csv.reader(io.StringIO(payload)))
        assert rows[0] == ["token", "x", "y", "inside_triangle", "inside_incircle"]
        assert len(rows) == len(space) + 1
        for word_index in triple:
            row = rows[1 + word_index]
            assert row[3] == "true"  # a vertex sits on the triangle boundary
            assert row[4] == "false"  # and outside the incircle

    def test_csv_coordinates_match_projection_exactly(self, small_cloud):
        space = small_cloud.space
        ia, ib, ic = small_cloud.true_vertices[:3]
        payload = emit_projection(space, (ia, ib, ic), "csv").decode()
        rows = list(csv.reader(io.StringIO(payload)))[1:]
        coords, _ = project_triple(space, ia, ib, ic)
        got = np.array([[float(r[1]), float(r[2])] for r in rows])
        assert np.array_equal(got, coords)

    def test_csv_quotes_awkward_tokens(self):
        vectors = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.2, 0.2]])
        space = EmbeddingSpace(words=['a,b', 'q"q', "plain", "x"], vectors=vectors)
        payload = emit_projection(space, (0, 1, 2), "csv").decode()
        rows = list(csv.reader(io.StringIO(payload)))
        assert [r[0] for r in rows[1:]] == ['a,b', 'q"q', "plain", "x"]

    def test_svg_structure(self, small_cloud):
        space = small_cloud.space
        triple = tuple(small_cloud.true_vertices[:3])
        payload = emit_projection(space, triple, "svg")
        root = ET.fromstring(payload.decode())
        ns = "{http://www.w3.org/2000/svg}"
        labels = [el.text for el in root.iter(ns + "text")]
        assert labels == [space.words[i] for i in triple]
        assert len(root.findall(ns + "polygon")) == 1
        circles = root.findall(ns + "circle")
        assert len(circles) == len(space) + 1  # points plus the incircle

    def test_unknown_format_rejected(self, small_cloud):
        with pytest.raises(ValueError):
            emit_projection(small_cloud.space, (0, 1, 2), "png")


@pytest.fixture()
def cloud_file(tmp_path, small_cloud):
    path = tmp_path / "cloud.txt"
    write_glove_text(small_cloud.space, path)
    return path


class TestRunAnalysis:
    def test_file_input_matches_in_memory(self, cloud_file, small_cloud, small_report):
        config = AnalysisConfig(
            input_path=str(cloud_file), triple_samples=25, seed=0
        )
        report = run_analysis(config)
        assert report.vertices == small_report.vertices
        assert report.triple_sample == small_report.triple_sample

    def test_repeat_runs_byte_identical(self, cloud_file):
        config = AnalysisConfig(input_path=str(cloud_file), triple_samples=10)
        a = emit_report(run_analysis(config), "json")
        b = emit_report(run_analysis(config), "json")
        assert a == b


class TestCli:
    def test_synth_writes_cloud_and_sidecar(self, tmp_path):
        out = tmp_path / "cloud.txt"
        rc = main([
            "synth", "--dim", "6", "--vertices", "4", "--points", "50",
            "--seed", "3", "-o", str(out),
        ])
        assert rc == 0
        assert out.exists()
        truth = json.loads((tmp_path / "cloud.txt.truth.json").read_text())
        assert len(truth["vertex_tokens"]) == 4

    def test_synth_defaults_are_the_generator_defaults(self, tmp_path):
        out = tmp_path / "cloud.txt"
        rc = main(["synth", "--dim", "6", "--vertices", "4", "--points", "50", "-o", str(out)])
        assert rc == 0
        cloud = generate_simplex_cloud(dim=6, num_vertices=4, num_points=50)
        assert out.read_text() == format_glove_text(cloud.space)

    def test_analyze_emits_json(self, cloud_file, capsysbinary):
        rc = main(["analyze", str(cloud_file), "--triple-samples", "10"])
        assert rc == 0
        data = json.loads(capsysbinary.readouterr().out)
        assert data["params"]["input"] == str(cloud_file)
        assert data["vertices"]

    def test_analyze_text_format(self, cloud_file, capsysbinary):
        rc = main(["analyze", str(cloud_file), "--triple-samples", "5",
                   "--format", "text"])
        assert rc == 0
        out = capsysbinary.readouterr().out.decode()
        assert "surviving vertices" in out

    def test_analyze_to_file(self, cloud_file, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["analyze", str(cloud_file), "--triple-samples", "5",
                   "-o", str(out)])
        assert rc == 0
        json.loads(out.read_text())

    def test_work_is_counted_only_inside_a_timed_stage(self, small_cloud):
        space = small_cloud.space
        topk_neighbors(space, space.vectors[0], 3)  # no stage: not counted
        timer = StageTimer()
        with timer.stage("glue"):
            topk_neighbors(space, space.vectors[0], 3)
        with timer.stage("describe"):
            pass
        assert timer.stages["glue"]["neighbor_queries"] == 1
        assert timer.stages["describe"]["neighbor_queries"] == 0
        assert timer.as_dict()["total"]["neighbor_queries"] == 1

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_timings_leave_the_report_bytes_alone(self, cloud_file, tmp_path, fmt):
        args = ["analyze", str(cloud_file), "--triple-samples", "30", "--format", fmt]
        plain, timed = tmp_path / "plain", tmp_path / "timed"
        timings = tmp_path / "timings.json"
        assert main(args + ["-o", str(plain)]) == 0
        assert main(args + ["-o", str(timed), "--timings", str(timings)]) == 0
        assert timed.read_bytes() == plain.read_bytes()

        data = json.loads(timings.read_text())
        stages = data["stages"]
        assert list(stages) == [
            "parse", "pca", "candidates", "glue", "filter", "describe",
            "triples", "emit",
        ]
        assert all(s["seconds"] >= 0.0 for s in stages.values())
        # one query per unique candidate word; the descriptions reuse them
        assert stages["glue"]["neighbor_queries"] > 0
        assert stages["describe"]["neighbor_queries"] == 0
        assert stages["triples"]["triangles"] == 30
        assert stages["filter"]["triangles"] > 0
        for kind in ("neighbor_queries", "triangles", "redraws"):
            assert data["total"][kind] == sum(s[kind] for s in stages.values())

    def test_timing_counts_are_deterministic(self, cloud_file, tmp_path):
        counts = []
        for run in range(2):
            path = tmp_path / ("timings%d.json" % run)
            args = ["analyze", str(cloud_file), "--k", "3", "-o", str(tmp_path / "r")]
            assert main(args + ["--timings", str(path)]) == 0
            stages = json.loads(path.read_text())["stages"]
            counts.append({n: {k: v for k, v in s.items() if k != "seconds"}
                           for n, s in stages.items()})
        assert counts[0] == counts[1]
        # a top-3 glue ranking is too short for a 5-word description
        assert counts[0]["describe"]["neighbor_queries"] > 0

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_timings_count_parse_blocks_and_row_fallbacks(
        self, small_cloud, tmp_path, monkeypatch, fmt
    ):
        monkeypatch.setattr(embeddings, "BLOCK_ROWS", 256)  # 6 blocks of 1500 rows
        lines = format_glove_text(small_cloud.space).splitlines(keepends=True)
        # the same value spelled with an underscore, which only float() reads
        token, coords = lines[299].split(" ", 1)
        odd = token + " " + re.sub(r"(\d)(\d)", r"\1_\2", coords, count=1)
        assert odd != lines[299]
        clean_file, odd_file = tmp_path / "clean.txt", tmp_path / "odd.txt"
        clean_file.write_text("".join(lines))
        odd_file.write_text("".join(lines[:299] + [odd] + lines[300:]))

        reports, counts = [], []
        for path in (clean_file, odd_file):
            args = ["analyze", str(path), "--triple-samples", "5", "--format", fmt]
            plain, timed = tmp_path / "plain", tmp_path / "timed"
            timings = tmp_path / "timings.json"
            assert main(args + ["-o", str(plain)]) == 0
            assert main(args + ["-o", str(timed), "--timings", str(timings)]) == 0
            assert timed.read_bytes() == plain.read_bytes()
            reports.append(json.loads(plain.read_text()) if fmt == "json" else plain.read_text())
            parse = json.loads(timings.read_text())["stages"]["parse"]
            counts.append((parse["blocks"], parse["row_fallbacks"]))
        assert counts == [(6, 0), (5, 1)]
        if fmt == "json":
            for report in reports:
                report["params"].pop("input")
            assert reports[0] == reports[1]

    def test_project_csv(self, cloud_file, capsysbinary):
        rc = main([
            "project", str(cloud_file), "--words", "w000001", "w000002", "w000003",
        ])
        assert rc == 0
        out = capsysbinary.readouterr().out.decode()
        assert out.splitlines()[0] == "token,x,y,inside_triangle,inside_incircle"

    def test_project_svg(self, cloud_file, tmp_path):
        out = tmp_path / "plot.svg"
        rc = main([
            "project", str(cloud_file), "--words", "w000001", "w000002", "w000003",
            "--format", "svg", "-o", str(out),
        ])
        assert rc == 0
        assert out.read_bytes().startswith(b"<?xml")

    def test_stats_subcommand(self, cloud_file, capsysbinary):
        rc = main([
            "stats", str(cloud_file),
            "--words", "w000001,w000002,w000003,w000004",
            "--triple-samples", "8",
        ])
        assert rc == 0
        data = json.loads(capsysbinary.readouterr().out)
        assert data["aggregates"]["sample_size"] == 8
        assert data["aggregates"]["mean_inside_triangle_fraction"] == 1.0

    def test_missing_file_exits_nonzero_with_error_prefix(self, tmp_path, capsys):
        rc = main(["analyze", str(tmp_path / "nope.txt")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1

    def test_unknown_word_is_an_error(self, cloud_file, capsys):
        rc = main(["project", str(cloud_file), "--words", "a", "b", "c"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "command",
        [["analyze"], ["stats", "--words", "w000001,w000002,w000003"]],
        ids=["analyze", "stats"],
    )
    def test_negative_triple_samples_is_an_error(self, cloud_file, tmp_path, capsys, command):
        rc = main([command[0], str(cloud_file), *command[1:], "--triple-samples", "-5"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "-5" in err
        # the count is checked before the input is read: a missing file
        # gives the same error, not a file error
        missing = str(tmp_path / "missing.txt")
        rc = main([command[0], missing, *command[1:], "--triple-samples", "-5"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: triangle sample count must be >= 0, got -5\n"
        )

    def test_stats_needs_three_words(self, cloud_file, capsys):
        rc = main(["stats", str(cloud_file), "--words", "w000001,w000002"])
        assert rc == 1
        assert "at least 3" in capsys.readouterr().err

    def test_malformed_input_is_an_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("a 1 2\nb 1\n")
        rc = main(["analyze", str(bad)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")


# Prints OPENBLAS_THREAD_TIMEOUT as it stands when numpy is first imported.
_BLAS_TIMEOUT_PROBE = """
import os, sys

class Probe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            print(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
        return None

sys.meta_path.insert(0, Probe())
import embshape
"""


@pytest.mark.parametrize("preset,expected", [(None, "4"), ("9", "9")], ids=["unset", "user_set"])
def test_blas_thread_timeout_is_set_before_numpy_loads(preset, expected):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    if preset is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = preset
    env["PYTHONPATH"] = str(Path(embeddings.__file__).parents[1])
    run = subprocess.run(
        [sys.executable, "-c", _BLAS_TIMEOUT_PROBE],
        env=env, capture_output=True, text=True, check=True,
    )
    assert run.stdout.split() == [expected]
