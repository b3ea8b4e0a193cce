"""Tests for the on-disk study cache behind ``prepare_study_data``."""

import dataclasses
import os
import warnings

import numpy as np
import pytest

from repro.evaluation import StudyConfig, cache, evaluate_study, prepare_study_data
from repro.evaluation import study as study_module

#: Smallest configuration the pipeline accepts; fast enough to rebuild often.
TINY = StudyConfig(
    n_series=20,
    eval_settings_per_series=1,
    min_calibration_samples=5,
    ddm_kind="softmax",
    ddm_epochs=1,
)


@pytest.fixture
def builds(monkeypatch):
    """Count cold builds: every cache miss runs ``_build_study_data``."""
    calls = []
    real = study_module._build_study_data

    def counting(config):
        calls.append(config)
        return real(config)

    monkeypatch.setattr(study_module, "_build_study_data", counting)
    return calls


@pytest.fixture
def private_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(cache, "_warned", False)
    return tmp_path / "repro"


def entry_path(cache_root):
    (path,) = cache_root.glob("study-*.npz")
    return path


def assert_traces_identical(a, b):
    assert len(a) == len(b)
    for ta, tb in zip(a, b):
        assert ta.truth == tb.truth
        for name in ("outcomes", "uncertainties", "fused_outcomes", "features"):
            xa, xb = getattr(ta, name), getattr(tb, name)
            assert xa.dtype == xb.dtype
            np.testing.assert_array_equal(xa, xb)


def assert_states_identical(a, b):
    """Model state trees equal bit for bit (arrays with their dtypes)."""
    if isinstance(a, np.ndarray):
        assert isinstance(b, np.ndarray) and a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
    elif isinstance(a, dict):
        assert a.keys() == b.keys()
        for key in a:
            assert_states_identical(a[key], b[key])
    elif isinstance(a, list):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_states_identical(x, y)
    else:
        assert a == b


def assert_studies_identical(a, b):
    # Every model parameter, incl. the grown (pre-pruning) QIM trees that
    # only a recalibration would read.
    for name in ("ddm", "stateless_qim", "ta_qim"):
        assert_states_identical(
            getattr(a, name).state_dict(), getattr(b, name).state_dict()
        )
    rng = np.random.default_rng(5)
    X = rng.normal(size=(300, a.feature_model.config.dim))
    np.testing.assert_array_equal(a.ddm.predict(X), b.ddm.predict(X))
    np.testing.assert_array_equal(a.ddm.predict_proba(X), b.ddm.predict_proba(X))

    ta_rows = np.vstack([t.features for t in a.test_traces])
    ta_rows = np.vstack([ta_rows, rng.random((200, ta_rows.shape[1]))])
    stateless_rows = ta_rows[:, : len(a.layout.stateless_names)]
    for name, rows in (("stateless_qim", stateless_rows), ("ta_qim", ta_rows)):
        qa, qb = getattr(a, name), getattr(b, name)
        np.testing.assert_array_equal(
            qa.estimate_uncertainty(rows), qb.estimate_uncertainty(rows)
        )
        np.testing.assert_array_equal(
            qa.point_uncertainty(rows), qb.point_uncertainty(rows)
        )
        assert qa.leaf_table() == qb.leaf_table()
        assert qa.export_text() == qb.export_text()

    for name in ("train_traces", "calibration_traces", "test_traces"):
        assert_traces_identical(getattr(a, name), getattr(b, name))
    assert a.ddm_accuracy_train == b.ddm_accuracy_train
    assert a.ddm_accuracy_test == b.ddm_accuracy_test
    assert a.layout.feature_names == b.layout.feature_names
    np.testing.assert_array_equal(a.feature_model.prototypes, b.feature_model.prototypes)

    ra, rb = evaluate_study(a), evaluate_study(b)
    for xa, xb in zip(ra.approaches, rb.approaches):
        assert xa.name == xb.name
        assert xa.decomposition == xb.decomposition
        np.testing.assert_array_equal(xa.uncertainties, xb.uncertainties)
        np.testing.assert_array_equal(xa.wrong, xb.wrong)


class TestWarmLoad:
    def test_warm_load_is_bitwise_a_cold_build(self, monkeypatch):
        config = StudyConfig.smoke_scale()
        prepare_study_data(config)  # the entry exists from here on
        cold_build = study_module._build_study_data

        def no_build(config):
            raise AssertionError("expected a cache hit")

        monkeypatch.setattr(study_module, "_build_study_data", no_build)
        warm = prepare_study_data(config)
        cold = cold_build(config)
        assert warm.config == cold.config
        assert_studies_identical(warm, cold)

    def test_entries_hold_no_pickles(self, private_cache):
        prepare_study_data(TINY)
        with np.load(entry_path(private_cache), allow_pickle=False) as archive:
            assert all(archive[name].dtype != object for name in archive.files)


class TestMisses:
    def test_config_field_change_misses(self, private_cache, builds):
        prepare_study_data(TINY)
        prepare_study_data(TINY)
        assert len(builds) == 1
        other = dataclasses.replace(TINY, seed=TINY.seed + 1)
        prepare_study_data(other)
        assert builds == [TINY, other]
        assert len(list(private_cache.glob("study-*.npz"))) == 2

    def test_numpy_scalar_config_fields_are_cached(self, private_cache, builds):
        config = dataclasses.replace(
            TINY, seed=np.int64(TINY.seed), tree_max_depth=np.int64(4)
        )
        first = prepare_study_data(config)
        again = prepare_study_data(config)
        assert len(builds) == 1
        assert_studies_identical(again, first)

    def test_source_digest_change_misses(self, private_cache, builds, monkeypatch):
        prepare_study_data(TINY)
        monkeypatch.setattr(cache, "source_digest", lambda: "edited-sources")
        prepare_study_data(TINY)
        prepare_study_data(TINY)
        assert len(builds) == 2  # rebuilt once, then the overwrite hits
        assert len(list(private_cache.glob("study-*.npz"))) == 1

    @pytest.mark.parametrize("damage", ["truncate", "flip"])
    def test_damaged_entry_is_rebuilt(self, private_cache, builds, damage):
        first = prepare_study_data(TINY)
        path = entry_path(private_cache)
        good = path.read_bytes()
        if damage == "truncate":
            path.write_bytes(good[: len(good) // 2])
        else:
            flipped = bytearray(good)
            flipped[len(good) // 2] ^= 0xFF
            path.write_bytes(bytes(flipped))
        rebuilt = prepare_study_data(TINY)
        assert len(builds) == 2
        assert_studies_identical(rebuilt, first)
        prepare_study_data(TINY)  # the rebuild overwrote it with a valid entry
        assert len(builds) == 2


class TestUnwritableCache:
    def test_cache_root_is_a_file(self, tmp_path, monkeypatch, builds):
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        monkeypatch.setattr(cache, "_warned", False)
        with pytest.warns(RuntimeWarning, match="not caching"):
            data = prepare_study_data(TINY)
        assert data.ta_qim.is_calibrated
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # warned once per process
            prepare_study_data(TINY)
        assert len(builds) == 2

    def test_read_only_directory_still_returns_the_study(
        self, private_cache, builds, monkeypatch
    ):
        private_cache.mkdir()
        private_cache.chmod(0o555)
        try:
            if os.access(private_cache, os.W_OK):
                # Privileged users write anyway; refuse the write the way
                # a read-only directory does.
                from repro.serving import state

                def refuse(path, write):
                    raise PermissionError(13, "Permission denied", str(path))

                monkeypatch.setattr(state, "_atomic_write", refuse)
            with pytest.warns(RuntimeWarning, match="not caching"):
                data = prepare_study_data(TINY)
        finally:
            private_cache.chmod(0o755)
        assert_studies_identical(data, study_module._build_study_data(TINY))
        assert list(private_cache.iterdir()) == []


class TestCacheLocation:
    def test_xdg_cache_home(self, monkeypatch, tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert cache.cache_dir() == tmp_path / "repro"

    def test_home_fallback(self, monkeypatch, tmp_path):
        monkeypatch.delenv("XDG_CACHE_HOME")
        monkeypatch.setenv("HOME", str(tmp_path))
        assert cache.cache_dir() == tmp_path / ".cache" / "repro"

    def test_suite_never_touches_the_user_cache(self):
        home_cache = os.path.join(os.path.expanduser("~"), ".cache")
        assert os.environ["XDG_CACHE_HOME"] != home_cache
        assert not str(cache.cache_dir()).startswith(home_cache)
