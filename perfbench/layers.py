"""Per-layer timing for the traced run, from outside the program.

Nothing under ``src/`` is modified.  The benchmark times each layer by
wrapping the calls *into* that layer's public functions:

* timing proxies for the engine's ``ddm``, ``stateless_qim``,
  ``timeseries_qim`` and ``layout`` (every other attribute is forwarded,
  so ``is_calibrated``, ``stateless_names`` and friends still work);
* rebinding ``validate_tick_frames``, ``RaggedBatch``, ``fuse_segments``
  and ``judge_many`` in ``repro.serving.engine``'s namespace and
  ``validate_tick_frames`` in ``repro.serving.cluster``'s;
* wrapping ``get_or_create_many`` and ``evict_idle`` on the engine's
  registry instance.

The controller's own :class:`TickTracer` spans (intake, admission, step,
snapshot, fanout, shard_step, merge) and the pipe workers' piggybacked
telemetry complete the picture.  Spans are kept in memory and written
out when the run ends.  A wrapper costs one flag test while its
:class:`SpanLog` is disabled, so the untraced blocks of a traced run run
the wrapped program at (nearly) full speed.
"""

from __future__ import annotations

import gc
import statistics
import time

#: The engine-stage spans whose sum is the paper's model math.
MATH_SPANS = (
    "model.ddm_predict",
    "model.stateless_qim",
    "core.ragged_gather",
    "fusion.fuse",
    "core.taqf_assemble",
    "model.taqim",
    "core.monitor_judge",
)

#: Every child of the engine's ``step_batch`` the wrappers see.
ENGINE_CHILDREN = MATH_SPANS + ("engine.validate", "registry.acquire", "registry.evict")


class SpanLog:
    """In-memory spans of traced ticks: ``(tick, name, start, seconds)``."""

    def __init__(self) -> None:
        self.enabled = False
        self.tick = -1
        self.spans: list[tuple[int, str, float, float]] = []

    def record(self, name: str, start: float, seconds: float) -> None:
        self.spans.append((self.tick, name, start, seconds))


def timed(log: SpanLog, name: str, fn):
    """``fn`` with each call recorded as span ``name`` while ``log`` is on."""

    def wrapper(*args, **kwargs):
        if not log.enabled:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            log.record(name, start, time.perf_counter() - start)

    return wrapper


class TimedProxy:
    """Forwards every attribute to ``target``; ``methods`` maps the names
    of the methods to time onto their span names."""

    def __init__(self, target, log: SpanLog, methods: dict[str, str]) -> None:
        self._target = target
        for method, span in methods.items():
            setattr(self, method, timed(log, span, getattr(target, method)))

    def __getattr__(self, name):
        return getattr(self._target, name)


def proxied_models(study, log: SpanLog) -> dict:
    """``StreamingEngine`` keyword arguments with timing proxies."""
    return {
        "ddm": TimedProxy(study.ddm, log, {"predict": "model.ddm_predict"}),
        "stateless_qim": TimedProxy(
            study.stateless_qim, log, {"estimate_uncertainty": "model.stateless_qim"}
        ),
        "timeseries_qim": TimedProxy(
            study.ta_qim, log, {"estimate_uncertainty": "model.taqim"}
        ),
        "layout": TimedProxy(
            study.layout, log, {"assemble_batch": "core.taqf_assemble"}
        ),
    }


def instrument_engine_module(log: SpanLog) -> None:
    """Rebind the engine module's stage functions to timed wrappers."""
    import repro.serving.engine as engine_module

    ragged = engine_module.RaggedBatch

    class TimedRaggedBatch:
        from_buffers = staticmethod(
            timed(log, "core.ragged_gather", ragged.from_buffers)
        )

    engine_module.validate_tick_frames = timed(
        log, "engine.validate", engine_module.validate_tick_frames
    )
    engine_module.RaggedBatch = TimedRaggedBatch
    engine_module.fuse_segments = timed(log, "fusion.fuse", engine_module.fuse_segments)
    engine_module.judge_many = timed(log, "core.monitor_judge", engine_module.judge_many)


def instrument_registry(registry, log: SpanLog) -> None:
    registry.get_or_create_many = timed(
        log, "registry.acquire", registry.get_or_create_many
    )
    registry.evict_idle = timed(log, "registry.evict", registry.evict_idle)


def instrument_cluster_module(log: SpanLog) -> None:
    import repro.serving.cluster as cluster_module

    cluster_module.validate_tick_frames = timed(
        log, "cluster.validate", cluster_module.validate_tick_frames
    )


class GcMeter:
    """Collector pauses inside ticks, via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.active = False
        self.pause = 0.0
        self.gen2 = 0
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        elif self.active:
            self.pause += time.perf_counter() - self._start
            self.gen2 += info.get("generation") == 2

    def __enter__(self) -> "GcMeter":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self)


def worker_phases(last_rpc: dict | None, clock_offsets: dict) -> dict | None:
    """The slowest shard's worker phases of one traced pipe tick (seconds).

    ``recv`` runs from the parent starting the send to the worker holding
    the whole request (the worker's own recv timer also counts its idle
    wait for the next tick, which is not wire time).  ``encode``/``send``
    are the worker's previous reply's, as the telemetry carries them.
    """
    if not last_rpc:
        return None
    slowest = None
    for shard, record in last_rpc["shards"].items():
        telemetry = record.get("telemetry")
        if not telemetry:
            continue
        offset = float(clock_offsets.get(shard, {}).get("offset", 0.0))
        recv_end = float(telemetry["recv"][1]) + offset
        phases = {
            "recv": max(0.0, recv_end - float(record["send"])),
            "decode": float(telemetry["decoded"]) - float(telemetry["recv"][1]),
            "step": float(telemetry["stepped"]) - float(telemetry["decoded"]),
            "encode": float(telemetry.get("prev_encode", 0.0)),
            "send": float(telemetry.get("prev_send", 0.0)),
        }
        total = phases["recv"] + phases["decode"] + phases["step"]
        if slowest is None or total > slowest[0]:
            slowest = (total, phases)
    return slowest[1] if slowest else None


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def breakdown(ticks: list[dict]) -> dict:
    """Per-tick stage times and self times of the traced ticks (seconds).

    Each element of ``ticks`` holds ``wall`` (the harness's tick latency)
    and ``spans`` (name -> summed seconds within that tick).  Self times
    follow the span tree: controller (wall minus intake, admission, step
    and snapshot), engine (step minus its wrapped children) or cluster
    (step minus fanout, shard waits and merge; fanout minus the parent's
    validation).  A negative self time -- children covering more than
    their parent -- is clipped to 0.

    ``unattributed_frac`` is the share of the tick wall that no timed
    call covers: the residual self times of the controller and of the
    engine or cluster, over the wall.  Work the wrappers miss lands there,
    so it rises with any uninstrumented delay.
    """
    rows = []
    for tick in ticks:
        s = tick["spans"]
        get = lambda name: s.get(name, 0.0)  # noqa: E731
        step = get("step")
        own = {
            "controller.intake": get("intake"),
            "controller.admission": get("admission"),
            "state.capture": get("snapshot"),
            "controller.self": tick["wall"]
            - get("intake") - get("admission") - step - get("snapshot"),
        }
        if "fanout" in s:
            own["cluster.validate"] = get("cluster.validate")
            own["cluster.fanout"] = get("fanout") - get("cluster.validate")
            own["cluster.shard_wait"] = get("shard_step")
            own["cluster.merge"] = get("merge")
            own["cluster.self"] = step - get("fanout") - get("shard_step") - get("merge")
        else:
            for name in ENGINE_CHILDREN:
                own[name] = get(name)
            own["engine.self"] = step - sum(get(name) for name in ENGINE_CHILDREN)
        clipped = {name: max(0.0, value) for name, value in own.items()}
        rows.append((tick, clipped))
    if not rows:
        return {}
    out = {
        name: _mean(own[name] for _, own in rows) for name in rows[0][1]
    }
    for name in ("step", "fanout", "shard_step", "merge", "snapshot"):
        out["span." + name] = _mean(t["spans"].get(name, 0.0) for t, _ in rows)
    wall = _mean(t["wall"] for t, _ in rows)
    out["wall"] = wall
    residual = out["controller.self"] + out.get("engine.self", 0.0) + out.get("cluster.self", 0.0)
    out["unattributed_frac"] = residual / wall if wall else 0.0
    return out
