import multiprocessing
import sys
from pathlib import Path

# allow running the suite from a fresh checkout without installing
SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np
import pytest

from embshape import EmbeddingSpace, generate_simplex_cloud


@pytest.fixture(autouse=True)
def no_stray_processes():
    """Fail a test that leaves a child process running, such as a parse
    helper that was not joined."""
    yield
    left = multiprocessing.active_children()
    assert not left, "child processes left running: %r" % left


@pytest.fixture(scope="session")
def small_cloud():
    """Quick ground-truth simplex cloud shared by extractor/report tests."""
    return generate_simplex_cloud(
        dim=12, num_vertices=6, num_points=1500, alpha=1.5, sigma=0.0, seed=7
    )


@pytest.fixture(scope="session")
def random_space():
    """A generic 1000-word, 16-dim Gaussian space."""
    rng = np.random.default_rng(42)
    vectors = rng.standard_normal((1000, 16))
    words = ["t%04d" % i for i in range(1000)]
    return EmbeddingSpace(words=words, vectors=vectors)
