"""``PoolProduct.count`` as one compiled C loop, built at first use.

``SOURCE`` runs the numpy kernels of ``geometry`` (``_coordinates``,
``_incircle_mask``, ``_weights`` and ``_inside_mask``) for each triangle in
one pass over the words, with every operation in numpy's order. Contraction
into fused multiply-adds is off and no fast-math flag is given, so each
add, multiply and divide rounds as numpy's does, in scalar and SIMD code
alike, and the fractions are numpy's bit for bit.

``count_kernel`` compiles it with the host's ``cc`` the first time a
process asks for it, never at import, into the cache directory
(``cache._cache_dir``). The object's name holds the SHA-256 of the source,
the flags and the compiler's ``--version``, so a changed source or compiler
builds a new one, and writing it deletes the objects of other keys. It is
written through a ``.PID.*.tmp`` temp and a rename, as cache entries are,
and only a file of this user that neither the group nor others may write is
loaded. Without a compiler, a writable cache or a loadable object,
``count_kernel`` is None and ``PoolProduct.count`` runs the numpy kernels.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import shutil
import stat
import subprocess
import tempfile
from functools import cache
from pathlib import Path

from . import cache as parse_cache

SOURCE = r"""
#include <stdint.h>

#if defined(__x86_64__)
#define CLONES __attribute__((target_clones("avx2", "default")))
#else
#define CLONES
#endif

/* Triangle t has the product rows rows[4t .. 4t+2] of its corners a, b, c
   and corner a's word rows[4t+3], and the 13 numbers p[13t ..]: |u|, w.e1,
   |r|, x3, y3, y2-y3, x3-x2, y3-y1, x1-x3, det, the incenter's x and y and
   the squared inradius. A word is inside when its three weights are
   >= lowest. out[2t] gets the fraction of the n words inside the
   triangle and, with incircle, out[2t+1] the fraction outside its
   incircle. */
CLONES void count(const double *g, int64_t stride, int64_t n, int64_t triangles,
                  const int64_t *rows, const double *p, int incircle,
                  double lowest, double *out)
{
    for (int64_t t = 0; t < triangles; t++, rows += 4, p += 13, out += 2) {
        const double *ga = g + rows[0] * stride;
        const double *gb = g + rows[1] * stride;
        const double *gc = g + rows[2] * stride;
        const double x0 = gb[rows[3]] - ga[rows[3]];
        const double y0 = gc[rows[3]] - ga[rows[3]];
        int64_t inside = 0, circle = 0;
        for (int64_t i = 0; i < n; i++) {
            double x = (gb[i] - ga[i] - x0) / p[0];
            double y = (gc[i] - ga[i] - y0 - x * p[1]) / p[2];
            if (incircle) {
                double dx = x - p[10], dy = y - p[11];
                circle += dx * dx + dy * dy <= p[12];
            }
            x -= p[3];
            y -= p[4];
            double l1 = (x * p[5] + y * p[6]) / p[9];
            double l2 = (x * p[7] + y * p[8]) / p[9];
            double l3 = 1.0 - l1 - l2;
            inside += (l1 >= lowest) & (l2 >= lowest) & (l3 >= lowest);
        }
        out[0] = (double)inside / n;
        if (incircle)
            out[1] = 1.0 - (double)circle / n;
    }
}
"""

FLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")

log = logging.getLogger(__name__)

# A compiler that neither answers nor builds within this many seconds has failed.
_TIMEOUT_S = 60.0


@cache
def count_kernel():
    """The compiled ``count`` of this process, built or loaded at the first
    call; None when it cannot be (see ``load``)."""
    return load(parse_cache._cache_dir())


def load(directory: Path):
    """The ``count`` of the kernel object for the host's ``cc`` in
    ``directory``, compiled there first unless a trusted one is there; None
    when there is no compiler or anything fails, which is logged at debug
    level. Never raises."""
    try:
        return _load(directory)
    except Exception:
        log.debug("the compiled count is not available", exc_info=True)
        return None


def _load(directory: Path):
    compiler = shutil.which("cc")
    if compiler is None:
        return None
    version = subprocess.run(
        [compiler, "--version"],
        stdin=subprocess.DEVNULL,
        capture_output=True,
        check=True,
        timeout=_TIMEOUT_S,
    ).stdout
    key = hashlib.sha256(
        b"\0".join((SOURCE.encode(), " ".join(FLAGS).encode(), version))
    ).hexdigest()[:32]
    path = directory / ("count-%s.so" % key)
    if not _trusted(path):
        _build(compiler, path)
    if not _trusted(path):
        return None
    function = ctypes.CDLL(str(path)).count
    function.restype = None
    function.argtypes = (
        [ctypes.c_void_p] + [ctypes.c_int64] * 3 + [ctypes.c_void_p] * 2
        + [ctypes.c_int, ctypes.c_double, ctypes.c_void_p]
    )
    return function


def _trusted(path: Path) -> bool:
    """Whether ``path`` is a regular file of this user that neither its group
    nor others may write."""
    try:
        info = os.stat(path)
    except OSError:
        return False
    return (
        stat.S_ISREG(info.st_mode)
        and info.st_uid == os.getuid()
        and not info.st_mode & (stat.S_IWGRP | stat.S_IWOTH)
    )


def _build(compiler: str, path: Path) -> None:
    """Compile ``SOURCE`` into ``path`` through a temp file beside it, then
    delete the kernel objects of other keys."""
    path.parent.mkdir(parents=True, exist_ok=True)
    # the builder's pid in the name lets the cache's prune find a killed build's temp
    fd, temp = tempfile.mkstemp(prefix=".%d." % os.getpid(), suffix=".tmp", dir=path.parent)
    os.close(fd)
    try:
        subprocess.run(
            [compiler, *FLAGS, "-x", "c", "-", "-o", temp],
            input=SOURCE.encode(),
            capture_output=True,
            check=True,
            timeout=_TIMEOUT_S,
        )
        os.chmod(temp, 0o755)
        os.replace(temp, path)
    except BaseException:
        Path(temp).unlink(missing_ok=True)
        raise
    for other in path.parent.glob("count-*.so"):
        if other != path:
            other.unlink(missing_ok=True)
