"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.evaluation import StudyConfig, prepare_study_data


@pytest.fixture
def rng() -> np.random.Generator:
    """Fresh deterministic generator per test."""
    return np.random.default_rng(1234)


@pytest.fixture(scope="session", autouse=True)
def study_cache_home(tmp_path_factory):
    """Point the study cache (``$XDG_CACHE_HOME/repro``) at a session temp
    dir, so the suite never reads or writes the user's cache.  Subprocesses
    inherit the variable."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
        yield


@pytest.fixture(scope="session")
def smoke_study_data():
    """One shared smoke-scale study run (expensive; ~5 s) for evaluation tests."""
    return prepare_study_data(StudyConfig.smoke_scale())
