"""The compiled count (``embshape.kernel``) and its numpy fallback.

Both paths of ``PoolProduct.count`` must give the fractions of each other
and of ``reference_containment`` bit for bit, at one and at an odd number of
triangles, at 1, 3 and a split-size number of words, with and without the
incircle. The compiled path is skipped, with the reason, where no compiler
builds the kernel; the numpy path always runs. The loader must fall back
rather than raise, load no object that another user owns or may write, and
start no compiler at import.
"""

import copy
import itertools
import os
import shutil
import stat
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from embshape import generate_simplex_cloud, geometry, kernel
from embshape.geometry import PoolProduct
from helpers import pool_project, reference_containment


def _usable_cc(tmp_path):
    """The host's ``cc`` when it builds a shared object, else None."""
    cc = shutil.which("cc")
    if cc is None:
        return None
    probe = subprocess.run(
        [cc, *kernel.FLAGS, "-x", "c", "-", "-o", str(tmp_path / "probe.so")],
        input=b"int probe(void) { return 0; }\n",
        capture_output=True,
    )
    return cc if probe.returncode == 0 else None


@pytest.fixture
def usable_cc(tmp_path):
    cc = _usable_cc(tmp_path)
    if cc is None:
        pytest.skip("no C compiler that builds a shared object: only the numpy path runs")
    return cc


def _fake_cc(tmp_path, script):
    """A directory holding an executable ``cc`` that runs ``script``."""
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    cc = bin_dir / "cc"
    cc.write_text("#!/bin/sh\n" + script)
    cc.chmod(0o755)
    return bin_dir


@pytest.fixture(params=["compiled", "numpy"])
def path(request, monkeypatch):
    """Runs a test on one path of ``PoolProduct.count``."""
    if request.param == "compiled":
        if kernel.count_kernel() is None:
            pytest.skip("no usable C compiler: only the numpy path runs")
    else:
        monkeypatch.setattr(kernel, "count_kernel", lambda: None)
    return request.param


@pytest.fixture(scope="module")
def split_cloud():
    return generate_simplex_cloud(
        dim=12, num_vertices=6, num_points=geometry._SPLIT_WORDS, alpha=1.5, sigma=0.01, seed=4
    )


@pytest.mark.parametrize("incircle", [False, True])
@pytest.mark.parametrize("n", [1, 3, geometry._SPLIT_WORDS])
@pytest.mark.parametrize("count", [1, 7])
def test_both_paths_count_the_reference_fractions(
    split_cloud, path, monkeypatch, count, n, incircle
):
    # every triangle has word 0 as its first corner, so the first n words'
    # coordinates are those of the whole cloud's first n rows
    corners = [int(w) for w in split_cloud.true_vertices if w != 0]
    product = PoolProduct(split_cloud.space, [0, *corners])
    triples = [(0, b, c) for b, c in itertools.combinations(corners, 2)][:count]
    triangles = [product.triangle(*t) for t in triples]
    first = copy.copy(product)
    first._products = product._products[:, :n]

    fractions = first.count(triangles, incircle=incircle)
    monkeypatch.setattr(kernel, "count_kernel", lambda: None)
    assert fractions.tobytes() == first.count(triangles, incircle=incircle).tobytes()
    for triple, (inside, outside) in zip(triples, fractions.tolist()):
        coords, tri2d = pool_project(product, *triple)
        in_tri, _, _, in_circ = reference_containment(coords[:n], tri2d)
        assert inside == np.count_nonzero(in_tri) / n
        if incircle:
            assert outside == 1.0 - np.count_nonzero(in_circ) / n
        else:
            assert np.isnan(outside)


def test_the_numpy_kernels_run_only_on_the_numpy_path(small_cloud, path, monkeypatch):
    calls = []
    coordinates = PoolProduct._coordinates

    def recorded(self, *args):
        calls.append(args[0])
        coordinates(self, *args)

    monkeypatch.setattr(PoolProduct, "_coordinates", recorded)
    product = PoolProduct(small_cloud.space, small_cloud.true_vertices)
    product.count([product.triangle(*small_cloud.true_vertices[:3])] * 3, incircle=True)
    assert len(calls) == (3 if path == "numpy" else 0)


def test_a_usable_compiler_builds_one_private_object(tmp_path, usable_cc):
    directory = tmp_path / "cache"
    assert kernel.load(directory) is not None
    objects = list(directory.iterdir())
    assert [p.name[:6] for p in objects] == ["count-"]
    assert not objects[0].stat().st_mode & (stat.S_IWGRP | stat.S_IWOTH)
    assert objects[0].stat().st_uid == os.getuid()
    assert kernel.load(directory) is not None  # the object is loaded, not rebuilt
    assert list(directory.iterdir()) == objects


def test_the_kernel_source_compiles_without_warnings(tmp_path, usable_cc):
    source = tmp_path / "count.c"
    source.write_text(kernel.SOURCE)
    build = subprocess.run(
        [usable_cc, *kernel.FLAGS, "-Wall", "-Wextra", "-Werror", str(source),
         "-o", str(tmp_path / "count.so")],
        capture_output=True,
        text=True,
    )
    assert build.returncode == 0, build.stderr


@pytest.mark.parametrize(
    "script",
    ["exit 1\n", 'if [ "$1" = --version ]; then echo broken; else exit 1; fi\n'],
    ids=["no_version", "no_build"],
)
def test_a_broken_cc_falls_back_to_numpy(small_cloud, tmp_path, monkeypatch, script):
    monkeypatch.setenv("PATH", str(_fake_cc(tmp_path, script)))
    directory = tmp_path / "cache"
    assert kernel.load(directory) is None
    assert not directory.exists() or not list(directory.iterdir())  # no temp left

    product = PoolProduct(small_cloud.space, small_cloud.true_vertices)
    triangles = [product.triangle(*small_cloud.true_vertices[:3])]
    monkeypatch.setattr(kernel, "count_kernel", lambda: kernel.load(directory))
    fallback = product.count(triangles, incircle=True)
    monkeypatch.setattr(kernel, "count_kernel", lambda: None)
    assert fallback.tobytes() == product.count(triangles, incircle=True).tobytes()


def test_no_compiler_or_an_unwritable_cache_falls_back(tmp_path, monkeypatch):
    monkeypatch.setenv("PATH", str(tmp_path / "empty"))
    assert kernel.load(tmp_path) is None
    monkeypatch.undo()
    blocked = tmp_path / "file"
    blocked.write_text("")
    assert kernel.load(blocked / "cache") is None


@pytest.mark.parametrize("case", ["group_writable", "world_writable", "other_user"])
def test_an_untrusted_object_is_not_loaded(tmp_path, usable_cc, monkeypatch, case):
    directory = tmp_path / "cache"
    assert kernel.load(directory) is not None
    (built,) = directory.iterdir()
    if case == "other_user":
        uid = os.getuid()
        monkeypatch.setattr(os, "getuid", lambda: uid + 1)
    else:
        built.chmod(0o775 if case == "group_writable" else 0o757)
    opened = []
    monkeypatch.setattr(kernel.ctypes, "CDLL", lambda name: opened.append(name))
    monkeypatch.setattr(kernel, "_build", lambda compiler, path: None)
    assert kernel.load(directory) is None
    assert opened == []


def test_an_untrusted_object_is_rebuilt(tmp_path, usable_cc):
    directory = tmp_path / "cache"
    assert kernel.load(directory) is not None
    (built,) = directory.iterdir()
    built.chmod(0o777)
    assert kernel.load(directory) is not None
    assert not built.stat().st_mode & (stat.S_IWGRP | stat.S_IWOTH)


def test_writing_an_object_deletes_the_objects_of_other_keys(tmp_path, usable_cc):
    directory = tmp_path / "cache"
    directory.mkdir()
    for name in ("count-0123.so", "count-4567.so", "0123.npz"):
        (directory / name).write_bytes(b"old")
    assert kernel.load(directory) is not None
    names = sorted(p.name for p in directory.iterdir())
    assert names[0] == "0123.npz" and len(names) == 2 and names[1].startswith("count-")


def test_import_starts_no_compiler(tmp_path):
    marker = tmp_path / "ran"
    bin_dir = _fake_cc(tmp_path, ": > %s\nexit 1\n" % marker)
    script = textwrap.dedent(
        """
        import os, sys
        import embshape, embshape.cli, embshape.geometry, embshape.kernel
        assert not os.path.exists(sys.argv[1]), "a compiler ran at import"
        assert embshape.kernel.count_kernel() is None
        assert os.path.exists(sys.argv[1]), "the fake compiler was not found"
        """
    )
    env = dict(os.environ, PATH=str(bin_dir), XDG_CACHE_HOME=str(tmp_path / "cache"))
    run = subprocess.run(
        [sys.executable, "-c", script, str(marker)], env=env, capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
