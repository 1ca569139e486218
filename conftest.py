"""Keeps every test, and every process a test starts, out of the user's
parse cache: for the whole session XDG_CACHE_HOME names a temp directory.
It is set in os.environ, so child processes inherit it. A test that needs
a cold cache points XDG_CACHE_HOME at its own tmp_path.
"""

import os

import pytest


@pytest.fixture(scope="session", autouse=True)
def session_cache_home(tmp_path_factory):
    saved = os.environ.get("XDG_CACHE_HOME")
    os.environ["XDG_CACHE_HOME"] = str(tmp_path_factory.mktemp("cache-home"))
    yield
    if saved is None:
        del os.environ["XDG_CACHE_HOME"]
    else:
        os.environ["XDG_CACHE_HOME"] = saved
