"""The output check passes on served results and fails on a perturbed one;
the traffic is a pure function of the seed."""

import numpy as np
import pytest

import checks
import traffic
from workloads import MAX_BUFFER_LENGTH, PlainEngineFactory, monitor_factory


@pytest.fixture(scope="module")
def study():
    from repro.evaluation import StudyConfig, prepare_study_data

    return prepare_study_data(StudyConfig.smoke_scale())


@pytest.fixture(scope="module")
def pool(study):
    return traffic.build_pool(study.feature_model, np.random.default_rng(5), n_series=64)


def _serve(study, schedule, **options):
    from repro.serving.controller import ServingController

    served = {}
    digest = checks.Digest()
    with ServingController(PlainEngineFactory(study)(), owns_engine=True, **options) as controller:
        for t in range(schedule.horizon):
            results = controller.tick(schedule.frames(t))
            digest.update(results)
            for r in results:
                served.setdefault(r.stream_id, []).append(checks.result_key(r))
    return served, digest.hexdigest()


def test_served_results_match_the_per_stream_wrapper(study, pool):
    schedule = traffic.closed_loop(pool, 6, 40, np.random.default_rng(1))
    served, _ = _serve(study, schedule)
    assert checks.check_sample(study, schedule, served, monitor_factory, MAX_BUFFER_LENGTH) == (0, [])


def test_a_perturbed_result_is_caught(study, pool):
    schedule = traffic.closed_loop(pool, 3, 10, np.random.default_rng(2))
    served, _ = _serve(study, schedule)
    key = served[1][4]
    served[1][4] = (key[0], np.nextafter(key[1], 2.0)) + key[2:]
    assert checks.check_sample(study, schedule, served, monitor_factory, MAX_BUFFER_LENGTH) == (1, [1])


def test_churn_objects_are_replayed_from_their_first_frame(study, pool):
    schedule = traffic.churn(pool, 60, np.random.default_rng(3), mean_live=20, amplitude=6, period_ticks=20)
    served, _ = _serve(study, schedule)
    bad = checks.check_sample(study, schedule, served, monitor_factory, MAX_BUFFER_LENGTH)
    assert bad == (0, [])


def test_wave_keeps_every_stream_live_and_deferrals_in_order(study, pool):
    from repro.serving.controller import AdmissionPolicy

    schedule = traffic.wave(pool, 30, 80, np.random.default_rng(6), period_ticks=20)
    counts = [len(t.stream_ids) for t in schedule.ticks]
    assert min(counts) == 18 and max(counts) == 30
    last = {}
    for t, tick in enumerate(schedule.ticks):
        assert len(np.unique(tick.stream_ids)) == len(tick.stream_ids)
        for sid in tick.stream_ids.tolist():
            assert t - last.get(sid, t) <= 2  # far from the idle TTL
            last[sid] = t
    assert len(last) == 30
    # A budget below the peak defers frames; each stream's results must
    # still follow its own frame order.
    served, _ = _serve(study, schedule, admission=AdmissionPolicy(max_frames_per_tick=26))
    assert checks.check_sample(study, schedule, served, monitor_factory, MAX_BUFFER_LENGTH) == (0, [])


def test_same_seed_same_traffic_and_digest(study, pool):
    a = traffic.closed_loop(pool, 5, 30, np.random.default_rng(7))
    b = traffic.closed_loop(pool, 5, 30, np.random.default_rng(7))
    for ta, tb in zip(a.ticks, b.ticks):
        np.testing.assert_array_equal(ta.rows, tb.rows)
        np.testing.assert_array_equal(ta.new_series, tb.new_series)
    assert _serve(study, a)[1] == _serve(study, b)[1]


def test_churn_follows_the_live_object_curve(pool):
    schedule = traffic.churn(pool, 200, np.random.default_rng(4), mean_live=100, amplitude=30, period_ticks=50)
    live = [len(t.stream_ids) for t in schedule.ticks]
    assert max(live) <= 130 and min(live) >= 65
    onsets = sum(int(t.new_series.sum()) for t in schedule.ticks)
    ids = np.unique(np.concatenate([t.stream_ids for t in schedule.ticks]))
    assert onsets == len(ids)  # one series per object, each id fresh
