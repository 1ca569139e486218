"""Fast self-test of the benchmark: every workload at a tiny size.

    python3 -m pytest perfbench -q

Checks that each run is correct and emits exactly the metrics that
BENCHMARK.json declares, with their units, so a wrapper broken by a
refactor fails here in seconds rather than after a full-size run.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

sys.path.insert(0, str(run.SRC))

TINY = dict(points=800, dim=12, corners=6)


@pytest.fixture(scope="module")
def declared():
    return json.loads(run.BENCHMARK_JSON.read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_tiny_run_emits_every_declared_metric(name, trace, declared, capsys):
    wl = dataclasses.replace(run.WORKLOADS[name], **TINY)
    result = run.run_workload(wl, seed=3, seconds=0.0, trace=trace)
    assert result["correct"], capsys.readouterr().err
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = declared["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in section}
    for m in section:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        for m in section:
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]


def test_declared_workloads_match_the_runner(declared):
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
