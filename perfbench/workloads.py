"""The benchmark's named workloads and the serving systems they drive.

See ``NOTES.md`` for why each workload exists and which layer it loads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

#: Sliding-window cap of every stream buffer.
MAX_BUFFER_LENGTH = 4
#: Ticks without a frame before the registry drops a stream.
IDLE_TTL = 16
#: Monitor thresholds (accept at or below 0.3; after a fallback, re-enter
#: only at or below 0.2).
MONITOR_THRESHOLD = 0.3
MONITOR_REENTRY = 0.2


@dataclass(frozen=True)
class Workload:
    name: str
    streams: int  # stream set (closed loop) / mean live objects (open loop)
    #: ``steady``: every stream sends every tick; ``wave``: a rising and
    #: falling share of a fixed stream set sends; ``churn``: objects come
    #: and go (see ``traffic.py``).
    traffic: str = "steady"
    shards: int = 0  # 0 = single-process StreamingEngine
    rate: float = 0.0  # ticks per second of an open loop; 0 = closed loop
    admission_budget: int = 0  # static frames-per-tick cap; 0 = no admission policy
    snapshot_every: int = 0

    @property
    def open_loop(self) -> bool:
        return self.rate > 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("engine-10k", streams=10_000),
        Workload("pipe2-10k", streams=10_000, shards=2),
        Workload(
            "ops-5k",
            streams=5_000,
            traffic="wave",
            admission_budget=4_500,
            snapshot_every=20,
        ),
        Workload(
            "churn-ops-2k",
            streams=2_000,
            traffic="churn",
            rate=10.0,
            admission_budget=2_450,
            snapshot_every=10,
        ),
    )
}


def metric_spec() -> dict:
    """``BENCHMARK.json``: the one list of metric names, units and bounds."""
    return json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


def monitor_factory():
    """One fresh per-stream monitor (module level, so it pickles)."""
    from repro.core.monitor import UncertaintyMonitor

    return UncertaintyMonitor(threshold=MONITOR_THRESHOLD, reentry_threshold=MONITOR_REENTRY)


def engine_kwargs() -> dict:
    return {
        "max_buffer_length": MAX_BUFFER_LENGTH,
        "monitor_factory": monitor_factory,
        "idle_ttl": IDLE_TTL,
    }


class PlainEngineFactory:
    """Builds one uninstrumented engine over the study's models."""

    def __init__(self, study) -> None:
        self.study = study

    def __call__(self):
        from repro.serving.engine import StreamingEngine

        s = self.study
        return StreamingEngine(s.ddm, s.stateless_qim, s.ta_qim, s.layout, **engine_kwargs())


class System:
    """The engine (or cluster) and the controller a workload runs on.

    ``log`` is the traced run's span log; ``None`` builds the system
    uninstrumented.
    """

    def __init__(self, workload: Workload, study, log=None, snapshot_dir=None) -> None:
        import layers
        from repro.serving.cluster import ShardedEngine
        from repro.serving.controller import AdmissionPolicy, ServingController
        from repro.serving.engine import StreamingEngine
        from repro.serving.observability import MetricsRegistry, SLO, SLOTracker, TickTracer

        self.workload = workload
        self.log = log
        self.metrics = None
        self.tracer = None
        if workload.shards:
            if log is not None:
                layers.instrument_cluster_module(log)
            self.engine = ShardedEngine(
                PlainEngineFactory(study),
                n_shards=workload.shards,
                transport="pipe",
                inflight_window=1,
            )
        else:
            if log is not None:
                layers.instrument_engine_module(log)
                models = layers.proxied_models(study, log)
            else:
                models = {
                    "ddm": study.ddm,
                    "stateless_qim": study.stateless_qim,
                    "timeseries_qim": study.ta_qim,
                    "layout": study.layout,
                }
            self.engine = StreamingEngine(**models, **engine_kwargs())
            if log is not None:
                layers.instrument_registry(self.engine.registry, log)
        options = {}
        if workload.admission_budget:
            self.metrics = MetricsRegistry()
            self.tracer = TickTracer()
            options.update(
                admission=AdmissionPolicy(
                    max_frames_per_tick=workload.admission_budget,
                    max_deferred_per_stream=16,
                ),
                metrics=self.metrics,
                slo=SLOTracker([SLO("tick-50ms", budget_seconds=0.05, target=0.99)]),
            )
        elif log is not None:
            self.tracer = TickTracer()
        if workload.snapshot_every:
            options.update(
                snapshot_every=workload.snapshot_every,
                snapshot_dir=snapshot_dir,
                snapshot_mode="bg",
                snapshot_deltas=4,
                snapshot_retain=1,
            )
        self.controller = ServingController(
            self.engine, owns_engine=True, tracer=self.tracer, **options
        )
        self._always_traced = self.metrics is not None
        self.set_traced(False)

    def set_traced(self, traced: bool) -> None:
        """Switch the traced run's instrumentation on or off between ticks.

        A metrics-enabled controller keeps its tracer either way (it feeds
        the phase histograms, as deployed); only the wrappers toggle.
        """
        tracer = self.tracer if (traced or self._always_traced) else None
        self.controller.tracer = tracer
        if self.workload.shards:
            self.engine.tracer = tracer
        if self.log is not None:
            self.log.enabled = traced

    def close(self) -> None:
        self.controller.close()
