"""The two-thread path of ``parallel.run_halves``: ``PoolProduct.count``
split between two threads gives the fractions of one, the ``--timings``
counts and the report bytes do not change, and a pass below its split size,
or a process that may use one CPU, starts no thread. The split is forced by
setting the split sizes to 0 (``row_products`` splits only blocks larger
than one core's cache, so its passes here have 150 dims);
``test_row_blocks`` checks the bits of ``row_products`` split the same way.
"""

import json
import os
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest

from embshape import generate_simplex_cloud, geometry, parallel, pca, write_glove_text
from embshape.cli import main
from embshape.geometry import PoolProduct
from embshape.parallel import run_halves, usable_cpus
from helpers import pool_project, reference_containment

TWO_CPUS = usable_cpus() >= 2


@pytest.fixture
def no_thread(monkeypatch):
    """Fails a test that starts a helper thread."""

    def refuse(*args, **kwargs):
        raise AssertionError("a helper thread was started")

    monkeypatch.setattr(parallel, "ThreadPoolExecutor", refuse)


def test_the_halves_cover_the_items_in_order_on_two_threads():
    seen = []
    run_halves(lambda part: seen.append((threading.get_ident(), list(part))), range(7), True)
    assert sorted(part for _, part in seen) == [[0, 1, 2, 3], [4, 5, 6]]
    assert len({ident for ident, _ in seen}) == (2 if TWO_CPUS else 1)


def test_an_error_in_the_helpers_half_is_raised():
    def work(part):
        if 6 in part:
            raise ValueError("item 6")

    with pytest.raises(ValueError, match="item 6"):
        run_halves(work, range(7), True)


@pytest.mark.parametrize("count", [1, 7])
@pytest.mark.parametrize("incircle", [False, True])
def test_split_counts_are_the_serial_and_the_reference_fractions(
    small_cloud, monkeypatch, count, incircle
):
    product = PoolProduct(small_cloud.space, small_cloud.true_vertices)
    rng = np.random.default_rng(count)
    triples = [
        tuple(int(w) for w in rng.choice(small_cloud.true_vertices, 3, replace=False))
        for _ in range(count)
    ]
    triangles = [product.triangle(*t) for t in triples]
    serial = product.count(triangles, incircle=incircle)

    threads = set()
    count_part = PoolProduct._count_part

    def recorded(self, *args):
        threads.add(threading.get_ident())
        count_part(self, *args)

    monkeypatch.setattr(geometry, "_SPLIT_WORDS", 0)
    monkeypatch.setattr(PoolProduct, "_count_part", recorded)
    halves = product.count(triangles, incircle=incircle)
    assert len(threads) == (2 if count > 1 and TWO_CPUS else 1)
    assert halves.tobytes() == serial.tobytes()

    n = small_cloud.space.n_words
    for triple, (inside, outside) in zip(triples, halves.tolist()):
        in_tri, _, _, in_circ = reference_containment(*pool_project(product, *triple))
        assert inside == np.count_nonzero(in_tri) / n
        if incircle:
            assert outside == 1.0 - np.count_nonzero(in_circ) / n
        else:
            assert np.isnan(outside)


def test_split_counts_hold_with_a_thread_switch_every_microsecond(monkeypatch):
    cloud = generate_simplex_cloud(
        dim=12, num_vertices=6, num_points=5000, alpha=1.5, sigma=0.01, seed=3
    )
    product = PoolProduct(cloud.space, cloud.true_vertices)
    rng = np.random.default_rng(5)
    triangles = [
        product.triangle(*(int(w) for w in rng.choice(cloud.true_vertices, 3, replace=False)))
        for _ in range(31)
    ]
    serial = product.count(triangles, incircle=True).tobytes()
    monkeypatch.setattr(geometry, "_SPLIT_WORDS", 0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            assert product.count(triangles, incircle=True).tobytes() == serial
    finally:
        sys.setswitchinterval(interval)


def _outputs(path, tmp_path, words):
    """The report and the ``--timings`` counts of an ``analyze``, and the
    CSV of a ``project`` onto ``words``, of the cloud at ``path``."""
    report, timings, csv = (tmp_path / name for name in ("report", "timings", "csv"))
    argv = ["analyze", str(path), "--triple-samples", "30", "--k", "3", "-o", str(report)]
    assert main(argv + ["--timings", str(timings)]) == 0
    stages = json.loads(timings.read_text())["stages"]
    counts = {n: {k: v for k, v in s.items() if k != "seconds"} for n, s in stages.items()}
    argv = ["project", str(path), "--words", *words, "--format", "csv", "-o", str(csv)]
    assert main(argv) == 0
    return report.read_bytes(), counts, csv.read_bytes()


def test_split_passes_leave_the_outputs_and_the_timings_counts_alone(
    tmp_path, monkeypatch
):
    # 5000 rows of 150 dims are three row blocks of 2.4 MB, so glue's
    # products split too
    cloud = generate_simplex_cloud(
        dim=150, num_vertices=6, num_points=5000, alpha=1.5, sigma=0.01, seed=7
    )
    path = tmp_path / "cloud.txt"
    write_glove_text(cloud.space, path)
    words = [cloud.space.words[i] for i in cloud.true_vertices[:3]]
    _outputs(path, tmp_path, words)  # fills the parse cache: both runs below are hits
    one = _outputs(path, tmp_path, words)
    monkeypatch.setattr(pca, "_SPLIT_CELLS", 0)
    monkeypatch.setattr(geometry, "_SPLIT_WORDS", 0)
    assert _outputs(path, tmp_path, words) == one


def test_a_pass_below_the_split_sizes_starts_no_thread(small_cloud, no_thread, monkeypatch):
    space = small_cloud.space
    pca.row_products(space.vectors, list(space.vectors[:40]))
    # blocks of 128 dims fit one core's cache: no pass of them splits
    monkeypatch.setattr(pca, "_SPLIT_CELLS", 0)
    vectors = np.random.default_rng(0).standard_normal((5000, 128))
    pca.row_products(vectors, list(vectors[:3]), vectors[0])
    product = PoolProduct(space, small_cloud.true_vertices)
    triangles = [product.triangle(*small_cloud.true_vertices[:3])] * 5
    product.count(triangles, incircle=True)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
def test_a_process_pinned_to_one_cpu_starts_no_thread():
    script = textwrap.dedent(
        """
        import os
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        from embshape import generate_simplex_cloud, geometry, parallel, pca
        pca._SPLIT_CELLS = geometry._SPLIT_WORDS = 0
        def refuse(*args, **kwargs):
            raise AssertionError("a helper thread was started")
        parallel.ThreadPoolExecutor = refuse
        cloud = generate_simplex_cloud(
            dim=150, num_vertices=6, num_points=5000, alpha=1.5, sigma=0.0, seed=7
        )
        space = cloud.space
        pca.row_products(space.vectors, list(space.vectors[:3]), space.vectors[0])
        product = geometry.PoolProduct(space, cloud.true_vertices)
        product.count([product.triangle(*cloud.true_vertices[:3])] * 5)
        """
    )
    src = os.path.dirname(os.path.dirname(parallel.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
