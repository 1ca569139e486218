"""The CPUs a process may use, and two threads for a pass of independent
work items.

numpy's float ufuncs and its BLAS calls release the GIL while they run, so
a pass whose items each write their own slice of one output can run in two
halves at once: the calling thread takes the first half and one helper
thread the second, each with buffers of its own. The bits of every item are
those of the same item in one pass. The caller decides once, with
``two_threads``, whether a pass splits: only a pass it finds large, and
only where two CPUs are usable, since below the caller's measured size the
helper's start costs more than it saves.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

Item = TypeVar("Item")


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def two_threads(large: bool, items: int) -> bool:
    """Whether a pass of ``items`` independent items runs on two threads:
    it must be ``large`` by its caller's measured size, have two or more
    items, and run where two CPUs are usable."""
    return large and items >= 2 and usable_cpus() >= 2


def run_halves(
    work: Callable[[Sequence[Item]], None], items: Sequence[Item], split: bool
) -> None:
    """``work(items)``, or, to ``split`` the pass (see ``two_threads``),
    ``work`` of the first half of ``items`` on the calling thread while one
    helper thread runs ``work`` of the rest. Both halves end before this
    returns or raises; an error of the calling thread's half is raised
    first.
    """
    if not split:
        work(items)
        return
    half = (len(items) + 1) // 2
    with ThreadPoolExecutor(1) as helper:
        rest = helper.submit(work, items[half:])
        work(items[:half])
    rest.result()
