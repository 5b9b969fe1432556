"""Test configuration shared by ``tests/`` and ``benchmarks/``.

Every test session gets its own result cache: the simulations tier-1 runs
through ``run_suite`` would otherwise fill the user's ``~/.cache/repro``.
Tests that need a cache of their own still point ``REPRO_CACHE_DIR``
elsewhere with ``monkeypatch``.
"""

import pytest

from repro.experiments import cache


@pytest.fixture(scope="session", autouse=True)
def isolated_result_cache(tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(cache.ENV_CACHE_DIR, str(tmp_path_factory.mktemp("cache")))
        yield
