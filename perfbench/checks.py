"""Output checks run on every benchmark run.

* **Sample replay.**  A seeded sample of streams is replayed frame by
  frame through the paper's per-stream
  :class:`TimeseriesAwareUncertaintyWrapper.step`, with a fresh
  :class:`UncertaintyMonitor` judging each fused uncertainty.  Every
  served result of a sampled stream must equal the replay bitwise:
  fused and isolated outcome, fused and isolated uncertainty, timestep,
  and the monitor's verdict.
* **Result digest.**  A SHA-256 over every stream's results of the first
  :data:`DIGEST_TICKS` ticks.  The digest of the same seed is identical
  for ``engine-10k`` and ``pipe2-10k``; a ``pipe2-10k`` run recomputes
  the single-process digest itself and compares.
"""

from __future__ import annotations

import hashlib

import numpy as np

#: Ticks covered by the result digest.
DIGEST_TICKS = 32

#: Streams replayed through the per-stream wrapper on every run.
SAMPLE_STREAMS = 64


def result_key(result) -> tuple:
    """The compared fields of one :class:`StreamStepResult`."""
    o = result.outcome
    v = result.verdict
    verdict = None if v is None else (v.decision.value, v.uncertainty, v.threshold, v.in_hysteresis)
    return (
        o.fused_outcome,
        o.fused_uncertainty,
        o.isolated_outcome,
        o.isolated_uncertainty,
        o.timestep,
        verdict,
    )


class Digest:
    """Order-sensitive SHA-256 over whole ticks of results."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self.ticks = 0

    def update(self, results) -> None:
        ids = [r.stream_id for r in results]
        fused = [r.outcome.fused_outcome for r in results]
        u_fused = [r.outcome.fused_uncertainty for r in results]
        isolated = [r.outcome.isolated_outcome for r in results]
        u_isolated = [r.outcome.isolated_uncertainty for r in results]
        steps = [r.outcome.timestep for r in results]
        accepted = [r.accepted for r in results]
        for column, dtype in (
            (ids, np.int64),
            (fused, np.int64),
            (u_fused, np.float64),
            (isolated, np.int64),
            (u_isolated, np.float64),
            (steps, np.int64),
            (accepted, np.bool_),
        ):
            self._hash.update(np.asarray(column, dtype=dtype).tobytes())
        self.ticks += 1

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def replay_stream(study, inputs, monitor_factory, max_buffer_length: int) -> list[tuple]:
    """One stream's expected result keys, from the per-stream wrapper."""
    from repro.core.timeseries_wrapper import TimeseriesAwareUncertaintyWrapper

    wrapper = TimeseriesAwareUncertaintyWrapper(
        ddm=study.ddm,
        stateless_qim=study.stateless_qim,
        timeseries_qim=study.ta_qim,
        layout=study.layout,
        max_buffer_length=max_buffer_length,
    )
    monitor = monitor_factory()
    expected = []
    for x, q, new_series in inputs:
        o = wrapper.step(x, q, new_series=new_series)
        v = monitor.judge(o.fused_uncertainty)
        expected.append(
            (
                o.fused_outcome,
                o.fused_uncertainty,
                o.isolated_outcome,
                o.isolated_uncertainty,
                o.timestep,
                (v.decision.value, v.uncertainty, v.threshold, v.in_hysteresis),
            )
        )
    return expected


def check_sample(study, traffic, served: dict, monitor_factory, max_buffer_length: int) -> tuple[int, list]:
    """Compare each sampled stream's served results with its replay.

    ``served`` maps a sampled stream id to the result keys the system
    returned for it, in order.  A stream may have been served fewer
    frames than it sent (the run ended with frames still deferred); its
    prefix is compared.  Returns the number of mismatching frames and
    the ids of the streams they belong to.
    """
    bad_frames, bad_ids = 0, []
    for stream_id, got in served.items():
        inputs = traffic.stream_inputs(stream_id)[: len(got)]
        expected = replay_stream(study, inputs, monitor_factory, max_buffer_length)
        wrong = sum(a != b for a, b in zip(expected, got)) + abs(len(expected) - len(got))
        if wrong:
            bad_frames += wrong
            bad_ids.append(stream_id)
    return bad_frames, bad_ids
