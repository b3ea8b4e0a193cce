"""Distributed tracing and SLOs: cross-process timelines, burn rates.

The controller's :class:`~repro.serving.observability.tracing.TickTracer`
sees ``shard_step`` as one opaque wall-clock span per shard.  This module
supplies everything needed to open that box:

* **clock rebasing** -- workers run in other processes (possibly other
  machines), so their ``time.perf_counter`` values live on unrelated
  timelines.  :func:`estimate_clock_offset` turns the ``hello``
  round-trip into an NTP-style midpoint estimate (offset +/- RTT/2) that
  maps worker timestamps onto the controller's clock;
* **timeline assembly** -- :func:`assemble_tick_timeline` merges the
  controller's own tick spans with each shard's piggybacked
  recv/decode/step timings (rebased, then clamped inside the shard's
  RPC envelope so measurement jitter can never make a child span escape
  its parent) into one :class:`TickTimeline`;
* **export** -- :func:`write_trace_events` serializes timelines as
  Chrome trace-event JSON, loadable in ``chrome://tracing`` or
  https://ui.perfetto.dev; :func:`timeline_from_flight` reconstructs a
  coarse per-shard timeline from a flight recorder log's journal
  timestamps, so even a crash-scene artifact can be visualized;
* **SLOs** -- :class:`SLOTracker` evaluates declared latency objectives
  every tick and computes multi-window error-budget burn rates
  (Google-SRE style: page when both a short and a long window burn the
  budget faster than a threshold).  Everything is tick-count based and
  recomputable offline from recorded telemetry via
  :func:`recompute_burn_rates`, so an alert is always auditable.

The module is dependency-free and purely functional apart from the two
small stateful classes (:class:`SLOTracker`, :class:`TraceExporter`);
nothing here imports the cluster or controller.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from repro.exceptions import ValidationError

__all__ = [
    "SLO",
    "SLOTracker",
    "SLOVerdict",
    "TickTimeline",
    "TimelineSpan",
    "TraceExporter",
    "assemble_tick_timeline",
    "burn_rate",
    "estimate_clock_offset",
    "recompute_burn_rates",
    "timeline_from_flight",
    "trace_events",
    "validate_trace_events",
    "write_trace_events",
]

CONTROLLER_TRACK = "controller"


# ---------------------------------------------------------------------------
# Clock rebasing
# ---------------------------------------------------------------------------

def estimate_clock_offset(t_request: float, t_reply: float, worker_clock: float):
    """NTP-style offset of a worker's clock from the controller's.

    ``t_request``/``t_reply`` are controller timestamps taken immediately
    before sending and after receiving one request/reply round trip;
    ``worker_clock`` is the worker's own clock read while serving it.
    Assuming the worker read its clock near the midpoint of the round
    trip, ``worker_clock + offset`` lands on the controller timeline,
    with a worst-case error of half the round-trip time (returned as the
    second element).
    """
    t_request = float(t_request)
    t_reply = float(t_reply)
    if t_reply < t_request:
        raise ValidationError(
            f"reply timestamp {t_reply!r} precedes request timestamp "
            f"{t_request!r}; offsets need monotonic controller reads"
        )
    midpoint = 0.5 * (t_request + t_reply)
    return midpoint - float(worker_clock), 0.5 * (t_reply - t_request)


def _offset_of(clock_offsets, shard) -> float:
    if not clock_offsets:
        return 0.0
    entry = clock_offsets.get(shard, 0.0)
    if isinstance(entry, dict):
        return float(entry.get("offset", 0.0))
    return float(entry)


# ---------------------------------------------------------------------------
# Timeline assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimelineSpan:
    """One interval on the merged tick timeline (absolute start, track)."""

    name: str
    start: float
    seconds: float
    track: str
    meta: dict = field(default_factory=dict)

    @property
    def end(self) -> float:
        return self.start + self.seconds

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "seconds": self.seconds,
            "track": self.track,
            "meta": dict(self.meta),
        }


@dataclass(frozen=True)
class TickTimeline:
    """All spans of one tick, controller and workers, on one clock."""

    tick: int
    spans: tuple = ()

    def tracks(self) -> tuple:
        seen = []
        for span in self.spans:
            if span.track not in seen:
                seen.append(span.track)
        return tuple(seen)

    def as_dict(self) -> dict:
        return {"tick": self.tick, "spans": [s.as_dict() for s in self.spans]}


def _clamp_into(lo: float, hi: float, start: float, end: float):
    """Clamp ``[start, end]`` strictly inside ``(lo, hi)``.

    Rebased worker timestamps carry up to RTT/2 of uncertainty, so a
    child interval can numerically poke outside its parent envelope even
    though it physically happened inside it; clamping restores the
    physical truth (strict containment) without inventing time.
    """
    eps = max((hi - lo) * 1e-6, 1e-12)
    lo, hi = lo + eps, hi - eps
    if hi < lo:  # degenerate envelope: collapse to its midpoint
        mid = 0.5 * (lo + hi)
        return mid, mid
    start = min(max(start, lo), hi)
    end = min(max(end, start), hi)
    return start, end


def _worker_spans(shard, record, offset):
    """Rebase one shard's piggybacked phase timings into timeline spans."""
    telemetry = record.get("telemetry")
    if not telemetry:
        return []
    try:
        t0, t1 = (float(t) + offset for t in telemetry["recv"])
        t2 = float(telemetry["decoded"]) + offset
        t3 = float(telemetry["stepped"]) + offset
    except (KeyError, TypeError, ValueError):
        return []
    lo = float(record.get("send", t0))
    hi = float(record.get("done", t3))
    track = f"shard {shard} worker"
    spans = []
    w0, w3 = _clamp_into(lo, hi, t0, t3)
    spans.append(
        TimelineSpan("worker", w0, w3 - w0, track, {"shard": shard})
    )
    for name, begin, finish in (
        ("recv", t0, t1),
        ("decode", t1, t2),
        ("step", t2, t3),
    ):
        begin, finish = _clamp_into(w0, w3, begin, finish)
        spans.append(
            TimelineSpan(name, begin, finish - begin, track, {"shard": shard})
        )
    return spans


def assemble_tick_timeline(trace, shard_records=None, clock_offsets=None):
    """Merge a controller tick trace with rebased worker telemetry.

    ``trace`` is a :class:`~repro.serving.observability.tracing.TickTrace`
    whose spans carry absolute start timestamps; ``shard_records`` maps
    shard -> ``{"send", "sent", "done", "telemetry"}`` as captured by
    ``ShardedEngine.collect_batch`` (controller clock); ``clock_offsets``
    maps shard -> offset (or ``{"offset": ...}``) from the ``hello``
    handshake.  Worker spans are rebased and clamped inside the shard's
    ``shard_step`` envelope so the merged timeline always nests.
    """
    spans = []
    envelopes = {}
    for record in trace.spans:
        start = getattr(record, "start", None)
        if start is None:
            continue
        span = TimelineSpan(
            record.name,
            float(start),
            float(record.seconds),
            CONTROLLER_TRACK,
            dict(record.meta),
        )
        spans.append(span)
        if record.name == "shard_step" and "shard" in record.meta:
            envelopes[record.meta["shard"]] = span
    for shard, record in sorted((shard_records or {}).items()):
        envelope = envelopes.get(shard)
        rpc = dict(record)
        if envelope is not None:
            # The controller's own shard_step span is the authoritative
            # parent: clamp against it, not the raw send/recv reads.
            rpc["send"] = max(
                envelope.start, float(record.get("send", envelope.start))
            )
            rpc["done"] = min(
                envelope.end, float(record.get("done", envelope.end))
            )
        spans.extend(_worker_spans(shard, rpc, _offset_of(clock_offsets, shard)))
    spans.sort(key=lambda s: (s.track != CONTROLLER_TRACK, s.track, s.start))
    return TickTimeline(int(trace.tick), tuple(spans))


# ---------------------------------------------------------------------------
# Chrome trace-event (Perfetto) export
# ---------------------------------------------------------------------------

def trace_events(timelines, *, origin=None) -> list:
    """Flatten timelines into Chrome trace-event dicts (``ph: "X"``)."""
    timelines = list(timelines)
    starts = [s.start for tl in timelines for s in tl.spans]
    if origin is None:
        origin = min(starts) if starts else 0.0
    tids = {CONTROLLER_TRACK: 0}
    events = []
    for timeline in timelines:
        for span in timeline.spans:
            tid = tids.setdefault(span.track, len(tids))
            events.append(
                {
                    "name": span.name,
                    "cat": "tick",
                    "ph": "X",
                    "ts": (span.start - origin) * 1e6,
                    "dur": span.seconds * 1e6,
                    "pid": 0,
                    "tid": tid,
                    "args": {**span.meta, "tick": timeline.tick},
                }
            )
    metadata = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": "repro-serving"},
        }
    ]
    for track, tid in tids.items():
        metadata.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "args": {"name": track},
            }
        )
    return metadata + events


def write_trace_events(path, timelines, *, origin=None) -> Path:
    """Write timelines as a Chrome trace-event JSON file; returns path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "traceEvents": trace_events(timelines, origin=origin),
        "displayTimeUnit": "ms",
    }
    path.write_text(json.dumps(payload, sort_keys=True) + "\n", "utf-8")
    return path


def validate_trace_events(payload) -> int:
    """Validate a trace-event payload; returns the number of ``X`` events.

    Checks the envelope shape, per-event required keys, and that every
    duration event has finite non-negative ``ts``/``dur`` -- i.e. all
    timestamps were successfully rebased onto one non-negative timeline.
    Raises :class:`~repro.exceptions.ValidationError` on any violation.
    """
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        raise ValidationError("trace payload must be a dict with 'traceEvents'")
    events = payload["traceEvents"]
    if not isinstance(events, list):
        raise ValidationError("'traceEvents' must be a list")
    complete = 0
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValidationError(f"event {index} is not an object")
        for key in ("name", "ph", "pid", "tid"):
            if key not in event:
                raise ValidationError(f"event {index} is missing {key!r}")
        if event["ph"] == "M":
            continue
        if event["ph"] != "X":
            raise ValidationError(
                f"event {index} has unsupported phase {event['ph']!r}"
            )
        for key in ("ts", "dur"):
            value = event.get(key)
            if not isinstance(value, (int, float)) or value != value:
                raise ValidationError(f"event {index} has non-numeric {key!r}")
            if value < 0:
                raise ValidationError(
                    f"event {index} has negative {key!r} ({value!r}); "
                    "timestamps must be rebased onto a non-negative origin"
                )
        complete += 1
    return complete


# ---------------------------------------------------------------------------
# Flight-log reconstruction
# ---------------------------------------------------------------------------

def timeline_from_flight(directory) -> list:
    """Rebuild per-shard RPC timelines from a flight recorder log.

    Flight logs journal every wire frame with a monotonic timestamp, so
    a request/reply pair brackets the shard's round trip.  Each ``step``
    round trip becomes one ``shard_step`` span; a log recorded by a
    build without journal timestamps is rejected loudly.
    """
    from repro.serving.observability.flight import read_flight_log

    _, records = read_flight_log(directory)
    pending = {}
    ticks = {}
    tick_index = 0
    for record in records:
        if record.command != "step":
            continue
        if record.ts is None:
            raise ValidationError(
                "flight log has no journal timestamps (recorded by an "
                "older build); re-record it to export a timeline"
            )
        if record.kind == "req":
            if not pending:
                tick_index += 1
            pending[record.shard] = record.ts
        elif record.kind == "rep" and record.shard in pending:
            start = pending.pop(record.shard)
            ticks.setdefault(tick_index, []).append(
                TimelineSpan(
                    "shard_step",
                    start,
                    max(record.ts - start, 0.0),
                    CONTROLLER_TRACK,
                    {"shard": record.shard, "status": record.status},
                )
            )
    return [
        TickTimeline(tick, tuple(sorted(spans, key=lambda s: s.start)))
        for tick, spans in sorted(ticks.items())
    ]


# ---------------------------------------------------------------------------
# SLOs and error-budget burn rates
# ---------------------------------------------------------------------------

def burn_rate(bad: int, total: int, target: float) -> float:
    """Error-budget burn rate of a window: bad fraction / budget fraction.

    1.0 means the window consumes its budget exactly at the sustainable
    rate; 14.4 (the classic fast-page threshold) means a 99% objective's
    monthly budget would be gone in ~2 days.
    """
    if total <= 0:
        return 0.0
    return (bad / total) / (1.0 - target)


@dataclass(frozen=True)
class SLO:
    """One declared latency objective over the tick stream.

    ``target`` is the fraction of ticks that must complete within
    ``budget_seconds`` (0.99 declares "p99 tick latency <= budget").
    Windows are tick counts, not wall time, so every computation is
    deterministic and offline-recomputable from recorded telemetry.
    """

    name: str
    budget_seconds: float
    target: float = 0.99
    short_window: int = 60
    long_window: int = 600
    fast_burn: float = 14.4
    slow_burn: float = 6.0

    def __post_init__(self):
        if not self.name:
            raise ValidationError("an SLO needs a non-empty name")
        if not self.budget_seconds > 0:
            raise ValidationError(
                f"SLO {self.name!r}: budget_seconds must be > 0, got "
                f"{self.budget_seconds!r}"
            )
        if not 0.0 < self.target < 1.0:
            raise ValidationError(
                f"SLO {self.name!r}: target must be in (0, 1), got "
                f"{self.target!r} (1.0 leaves no error budget to burn)"
            )
        if not 0 < self.short_window <= self.long_window:
            raise ValidationError(
                f"SLO {self.name!r}: need 0 < short_window <= long_window, "
                f"got {self.short_window!r} / {self.long_window!r}"
            )
        if not 0 < self.slow_burn <= self.fast_burn:
            raise ValidationError(
                f"SLO {self.name!r}: need 0 < slow_burn <= fast_burn, got "
                f"{self.slow_burn!r} / {self.fast_burn!r}"
            )

    @property
    def error_budget(self) -> float:
        return 1.0 - self.target


@dataclass(frozen=True)
class SLOVerdict:
    """One objective's evaluation of one tick."""

    slo: str
    latency_seconds: float
    breached: bool
    burn_short: float
    burn_long: float
    severity: str | None = None  # "fast", "slow", or None

    @property
    def alerting(self) -> bool:
        return self.severity is not None

    def as_dict(self) -> dict:
        return {
            "slo": self.slo,
            "latency_seconds": self.latency_seconds,
            "breached": self.breached,
            "burn_short": self.burn_short,
            "burn_long": self.burn_long,
            "severity": self.severity,
        }


class SLOTracker:
    """Evaluate declared latency SLOs tick by tick.

    Multi-window burn-rate alerting: an objective pages ("fast") only
    when *both* its short and long windows burn faster than
    ``fast_burn`` -- the short window makes the alert responsive, the
    long window keeps one bad tick from paging; "slow" severity uses the
    same rule at ``slow_burn``.  All state is bounded by
    ``long_window`` per objective.
    """

    def __init__(self, objectives):
        objectives = tuple(objectives)
        if not objectives:
            raise ValidationError("SLOTracker needs at least one objective")
        names = [slo.name for slo in objectives]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate SLO names: {sorted(names)}")
        self.objectives = objectives
        self.ticks = 0
        self._windows = {
            slo.name: deque(maxlen=slo.long_window) for slo in objectives
        }
        self._breaches = {slo.name: 0 for slo in objectives}
        self._alerts = {slo.name: {"fast": 0, "slow": 0} for slo in objectives}

    def observe(self, latency_seconds: float) -> tuple:
        """Score one tick's latency against every objective."""
        latency = float(latency_seconds)
        self.ticks += 1
        verdicts = []
        for slo in self.objectives:
            breached = latency > slo.budget_seconds
            window = self._windows[slo.name]
            window.append(breached)
            short, long_ = self._burn(slo, window)
            severity = None
            if min(short, long_) >= slo.fast_burn:
                severity = "fast"
            elif min(short, long_) >= slo.slow_burn:
                severity = "slow"
            if breached:
                self._breaches[slo.name] += 1
            if severity is not None:
                self._alerts[slo.name][severity] += 1
            verdicts.append(
                SLOVerdict(slo.name, latency, breached, short, long_, severity)
            )
        return tuple(verdicts)

    @staticmethod
    def _burn(slo, window):
        bads = list(window)
        shorts = bads[-slo.short_window:]
        return (
            burn_rate(sum(shorts), len(shorts), slo.target),
            burn_rate(sum(bads), len(bads), slo.target),
        )

    def burn_rates(self, name: str) -> dict:
        slo = self._objective(name)
        short, long_ = self._burn(slo, self._windows[name])
        return {"short": short, "long": long_}

    def breaches(self, name: str) -> int:
        self._objective(name)
        return self._breaches[name]

    def alerts(self, name: str) -> dict:
        self._objective(name)
        return dict(self._alerts[name])

    def _objective(self, name):
        for slo in self.objectives:
            if slo.name == name:
                return slo
        raise ValidationError(f"unknown SLO {name!r}")

    def as_dict(self) -> dict:
        """JSON-safe snapshot (bench envelopes, CLI reports)."""
        objectives = {}
        for slo in self.objectives:
            rates = self.burn_rates(slo.name)
            objectives[slo.name] = {
                "budget_seconds": slo.budget_seconds,
                "target": slo.target,
                "short_window": slo.short_window,
                "long_window": slo.long_window,
                "breaches": self._breaches[slo.name],
                "burn_short": rates["short"],
                "burn_long": rates["long"],
                "alerts": dict(self._alerts[slo.name]),
            }
        return {"ticks": self.ticks, "objectives": objectives}


def recompute_burn_rates(latencies, slo) -> dict:
    """Offline burn rates from a recorded latency window.

    Mirrors :class:`SLOTracker` arithmetic exactly: feed it the tick
    latencies the tracker observed (e.g.
    ``[t.latency_seconds for t in controller.telemetry]``) and the
    result matches the live ``burn_rates`` bit for bit -- the audit
    trail for any alert the tracker raised.
    """
    bads = [float(latency) > slo.budget_seconds for latency in latencies]
    bads = bads[-slo.long_window:]
    shorts = bads[-slo.short_window:]
    return {
        "short": burn_rate(sum(shorts), len(shorts), slo.target),
        "long": burn_rate(sum(bads), len(bads), slo.target),
    }


# ---------------------------------------------------------------------------
# Per-tick export sink
# ---------------------------------------------------------------------------

class TraceExporter:
    """Accumulate per-tick timelines and write one Perfetto trace file.

    Wire it to a controller's ``on_tick`` hook: after each tick, call
    :meth:`observe` with the tracer's last trace and the engine (whose
    ``last_rpc``/``clock_offsets`` supply the worker side, when it is a
    :class:`~repro.serving.cluster.ShardedEngine`); :meth:`close` writes
    ``trace.json`` into the export directory.
    """

    def __init__(self, directory, *, filename="trace.json", window=65536):
        self._directory = Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        self._filename = filename
        self.timelines = deque(maxlen=int(window))

    def observe(self, trace, engine=None) -> None:
        if trace is None:
            return
        shard_records = None
        offsets = None
        if engine is not None:
            rpc = getattr(engine, "last_rpc", None)
            if rpc and rpc.get("tick") == trace.tick:
                shard_records = rpc.get("shards")
            offsets = getattr(engine, "clock_offsets", None)
        self.timelines.append(
            assemble_tick_timeline(trace, shard_records, offsets)
        )

    def close(self) -> Path:
        return write_trace_events(
            self._directory / self._filename, self.timelines
        )

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
