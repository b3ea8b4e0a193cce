"""Tests for the sign tracker (series-onset detection)."""

import numpy as np
import pytest

from repro.datasets.gtsrb import GTSRBLikeGenerator
from repro.exceptions import ValidationError
from repro.tracking.tracker import SignTracker


class TestSignTracker:
    def test_first_detection_starts_series(self):
        tracker = SignTracker()
        event = tracker.update([0.0, 0.0])
        assert event.new_series
        assert event.track_id == 0
        assert np.isnan(event.distance_squared)

    def test_smooth_motion_keeps_track(self):
        tracker = SignTracker(dt=0.1)
        tracker.update([10.0, 0.0])
        for i in range(1, 20):
            event = tracker.update([10.0 - 0.2 * i, 0.0])
            assert not event.new_series, f"lost track at step {i}"
        assert tracker.current_track_id == 0

    def test_jump_starts_new_series(self):
        tracker = SignTracker(dt=0.1)
        tracker.update([10.0, 0.0])
        for i in range(1, 10):
            tracker.update([10.0 - 0.2 * i, 0.0])
        event = tracker.update([100.0, 50.0])
        assert event.new_series
        assert event.track_id == 1
        assert event.distance_squared > tracker.gate_threshold

    def test_reset_forgets_track(self):
        tracker = SignTracker()
        tracker.update([0.0, 0.0])
        tracker.reset()
        event = tracker.update([0.1, 0.0])
        assert event.new_series
        assert event.track_id == 1

    def test_tracks_generated_series(self, rng):
        # Positions from two consecutive synthetic series: one new-series
        # event at the start of each.
        gen = GTSRBLikeGenerator()
        ds = gen.generate_base(2, rng)
        # Ensure the second series starts somewhere clearly different.
        ds[1].positions[:, 1] += 30.0
        tracker = SignTracker(dt=gen.geometry.frame_interval_s, process_noise=3.0)
        events = []
        for series in ds:
            for t in range(series.n_frames):
                events.append(tracker.update(series.positions[t]).new_series)
        onsets = [i for i, is_new in enumerate(events) if is_new]
        assert onsets[0] == 0
        assert ds[0].n_frames in onsets

    def test_gate_threshold_is_the_chi2_quantile_bitwise(self):
        from scipy.stats import chi2

        for p in np.linspace(0.001, 0.999, 999):
            assert SignTracker(gate_probability=p).gate_threshold == float(
                chi2.ppf(p, df=2)
            )

    def test_import_does_not_load_scipy_stats(self):
        import subprocess
        import sys

        code = (
            "import sys, repro.tracking; "
            "print('scipy.stats' in sys.modules)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True,
        )
        assert out.stdout.strip() == "False"

    def test_bad_gate_probability_rejected(self):
        with pytest.raises(ValidationError):
            SignTracker(gate_probability=1.0)

    def test_bad_position_rejected(self):
        with pytest.raises(ValidationError):
            SignTracker().update([1.0])
