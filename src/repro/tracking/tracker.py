"""Sign tracker: decides when a new timeseries begins.

"The tracking component detects a new timeseries whenever the location of
the detected object changes, i.e., the predictions might relate to a
different traffic sign and thus also have a different ground truth."

The tracker maintains one constant-velocity Kalman track for the sign
currently being approached; each incoming detection is gated by its
Mahalanobis distance.  A detection outside the gate starts a new track --
and thereby signals the timeseries-aware wrapper to clear its buffer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ValidationError
from repro.tracking.kalman import KalmanFilter, constant_velocity_filter

__all__ = ["TrackEvent", "SignTracker"]


@dataclass(frozen=True)
class TrackEvent:
    """Result of feeding one detection to the tracker.

    Attributes
    ----------
    new_series:
        True when the detection started a new track (buffer must be reset).
    track_id:
        Identifier of the track the detection was associated with.
    distance_squared:
        Squared Mahalanobis gating distance of the detection against the
        previous track (``nan`` for the very first detection).
    """

    new_series: bool
    track_id: int
    distance_squared: float


class SignTracker:
    """Single-object tracker with chi-square gating.

    Parameters
    ----------
    gate_probability:
        Detections whose Mahalanobis distance exceeds the chi-square
        quantile at this probability (2 degrees of freedom) are declared a
        *new* sign.
    dt:
        Frame interval handed to the constant-velocity model.
    process_noise / measurement_noise:
        Kalman noise parameters (see
        :func:`repro.tracking.kalman.constant_velocity_filter`).
    """

    def __init__(
        self,
        gate_probability: float = 0.99,
        dt: float = 0.1,
        process_noise: float = 1.5,
        measurement_noise: float = 0.3,
    ) -> None:
        if not 0.0 < gate_probability < 1.0:
            raise ValidationError(
                f"gate_probability must be in (0, 1), got {gate_probability}"
            )
        # The chi-square(2) quantile, 2 * P^-1(1, p): the kernel behind
        # ``scipy.stats.chi2.ppf(p, 2)`` and bitwise equal to it, without
        # the ~1 s import of ``scipy.stats``.
        from scipy.special import gammaincinv

        self.gate_threshold = float(2.0 * gammaincinv(1.0, gate_probability))
        self.dt = dt
        self.process_noise = process_noise
        self.measurement_noise = measurement_noise
        self._filter: KalmanFilter | None = None
        self._track_id = -1

    @property
    def current_track_id(self) -> int:
        """Identifier of the active track (-1 before the first detection)."""
        return self._track_id

    def reset(self) -> None:
        """Drop the current track (e.g. after the sign left the frame)."""
        self._filter = None

    def update(self, position) -> TrackEvent:
        """Feed one detection; returns whether it begins a new series."""
        position = np.asarray(position, dtype=float).ravel()
        if position.size != 2:
            raise ValidationError(f"position must be (x, y), got {position!r}")

        if self._filter is None:
            self._start_track(position)
            return TrackEvent(
                new_series=True, track_id=self._track_id, distance_squared=float("nan")
            )

        self._filter.predict()
        d2 = self._filter.mahalanobis_squared(position)
        if d2 > self.gate_threshold:
            self._start_track(position)
            return TrackEvent(new_series=True, track_id=self._track_id, distance_squared=d2)
        self._filter.update(position)
        return TrackEvent(new_series=False, track_id=self._track_id, distance_squared=d2)

    def _start_track(self, position: np.ndarray) -> None:
        self._filter = constant_velocity_filter(
            position,
            dt=self.dt,
            process_noise=self.process_noise,
            measurement_noise=self.measurement_noise,
        )
        self._track_id += 1
