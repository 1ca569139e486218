"""Wall-clock time and work counts of the stages of one analysis.

``StageTimer.stage(name)`` times a block and makes it the stage that
``count`` charges: neighbor queries, triangles whose containment was
computed, and degenerate draws that were redrawn. The counts are
deterministic for a given input, flags and seed. Outside a timed stage
``count`` does nothing. None of it enters a report.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

_WORK_KINDS = ("neighbor_queries", "triangles", "redraws")

_current_stage: ContextVar[dict | None] = ContextVar("current_stage", default=None)


def count(kind: str) -> None:
    """Charge one unit of work of ``kind`` to the stage being timed."""
    entry = _current_stage.get()
    if entry is not None:
        entry[kind] += 1


def _no_work() -> dict:
    return dict(seconds=0.0, **dict.fromkeys(_WORK_KINDS, 0))


class StageTimer:
    """Per-stage wall seconds and work counts, in the order stages ran."""

    def __init__(self):
        self.stages: dict[str, dict] = {}

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        entry = self.stages.setdefault(name, _no_work())
        token = _current_stage.set(entry)
        start = time.perf_counter()
        try:
            yield
        finally:
            entry["seconds"] += time.perf_counter() - start
            _current_stage.reset(token)

    def as_dict(self) -> dict:
        total = _no_work()
        for entry in self.stages.values():
            for key in total:
                total[key] += entry[key]
        return {"stages": self.stages, "total": total}

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.as_dict(), fh, indent=2)
            fh.write("\n")
