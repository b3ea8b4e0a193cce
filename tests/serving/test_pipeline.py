"""Pipelined (windowed) tick tests: ordering, exactness, backpressure.

The tentpole property: a :class:`ShardedEngine` built with
``inflight_window > 1`` keeps up to that many ticks in flight -- tick
t+1's shard payloads are on the wire while tick t's replies stream back
-- and the merged per-stream results are **bitwise-identical, in
admitted order**, to the lockstep loop on every transport, at every
shard count, chaos faults included.  ``inflight_window == 1`` is the
same submit/collect path with one tick in flight.

Proven here:

* windowed == lockstep across inproc / pipe / TCP at 1, 2, and 4
  shards, results and lifecycle statistics alike;
* the wire-level tick tag (reserved ``_tick`` meta key) round-trips,
  error replies never echo it, and untagged frames encode byte-identically
  to a pre-windowing peer's;
* the window is a hard bound: submitting past it raises, collecting an
  empty window raises, control-plane operations refuse to run mid-window,
  and ``abort_window`` settles every owed reply;
* kills / garbage / hangs striking *inside* a window recover exactly --
  admitted-but-uncollected ticks are replayed in order after failover;
* drained-engine operations (periodic snapshots, journal checkpoints)
  land at their exact lockstep tick cadence;
* backpressure: with the window saturated behind a chaos-delayed shard,
  the admission frame budget is throttled (``backpressure_throttles``)
  *before* per-stream queues overflow -- deterministic via the
  controller's injectable clock;
* observability: in-flight depth in ``fanout_stats()``, controller
  stats, telemetry, and the ``repro_cluster_inflight_depth`` /
  ``repro_cluster_backpressure_throttles_total`` metric families; the
  tracer shows tick t+1's ``fanout`` span starting before tick t's
  ``shard_step`` waits -- the overlap, visible in a trace.
"""

import numpy as np
import pytest

from chaos import ChaosFault, ChaosTransport
from repro.exceptions import ClusterError, ValidationError
from repro.serving import (
    AdmissionPolicy,
    MetricsRegistry,
    ServingController,
    ShardedEngine,
    TcpTransport,
    TickTracer,
    launch_local_workers,
    stop_local_workers,
)
from repro.serving.observability import parse_prometheus
from repro.serving.observability.tracing import PHASES
from repro.serving.protocol import (
    decode_reply_full,
    decode_request_full,
    encode_reply,
    encode_request,
)
from test_failover import (
    TCP,
    make_factory,
    monitored_kwargs,
    policy,
    single_baseline,
    tick_frames,
)


class _WindowedCluster:
    """A windowed ShardedEngine on a chaos-wrapped transport.

    An empty fault list makes the chaos layer byte-for-byte the wrapped
    transport, so the same harness drives both plain equivalence runs
    and fault-injection runs; TCP gets loopback serve-worker processes
    (serving forever, so failover reconnects succeed).
    """

    def __init__(self, transport_name, factory, n_shards, *, window, faults=()):
        self.processes = []
        if transport_name == "tcp":
            addresses, self.processes = launch_local_workers(factory, n_shards)
            inner = TcpTransport(addresses, connect_timeout=10.0)
        else:
            inner = transport_name
        self.chaos = ChaosTransport(inner, list(faults))
        self.cluster = ShardedEngine(
            factory, n_shards, transport=self.chaos, inflight_window=window
        )

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.cluster.close()
        stop_local_workers(self.processes)


def _series_ticks(series_maker, seed, n_streams, length, new_series_at=None):
    rng = np.random.default_rng(seed)
    series = series_maker(rng, n_series=n_streams, length=length)
    ids = [f"s{sid}" for sid in range(n_streams)]
    return [
        tick_frames(series, ids, t, new_series=(t == new_series_at))
        for t in range(length)
    ]


class TestWindowedEquivalence:
    """Windowed == lockstep, bitwise, across transports and shard counts."""

    @pytest.mark.parametrize("transport", ["inproc", "pipe", TCP])
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_windowed_run_is_bitwise_lockstep(
        self, synthetic_stack, series_maker, transport, n_shards
    ):
        factory = make_factory(synthetic_stack, **monitored_kwargs())
        ticks = _series_ticks(series_maker, 501, 10, 8, new_series_at=3)
        expected, expected_stats = single_baseline(factory, ticks)

        with _WindowedCluster(
            transport, factory, n_shards, window=2
        ) as harness:
            controller = ServingController(harness.cluster)
            got = controller.run(ticks)
            stats = harness.cluster.statistics()
            inflight = harness.cluster.fanout_stats()["inflight"]

        assert got == expected
        assert stats == expected_stats
        # The window genuinely filled (two ticks were in flight at once)
        # and drained by the end; the controller saw the depth too.
        assert inflight == {
            "window": 2,
            "depth": 0,
            "max_depth": 2,
            "oldest_age_seconds": 0.0,
        }
        assert controller.stats.max_inflight_depth == 2
        assert max(t.inflight_depth for t in controller.telemetry) == 1
        assert controller.telemetry[-1].inflight_depth == 0

    def test_deeper_window_matches(self, synthetic_stack, series_maker):
        factory = make_factory(synthetic_stack, **monitored_kwargs())
        ticks = _series_ticks(series_maker, 503, 10, 8)
        expected, expected_stats = single_baseline(factory, ticks)
        with _WindowedCluster("pipe", factory, 2, window=4) as harness:
            controller = ServingController(harness.cluster)
            got = controller.run(ticks)
            stats = harness.cluster.statistics()
            inflight = harness.cluster.fanout_stats()["inflight"]
        assert got == expected
        assert stats == expected_stats
        assert inflight["max_depth"] == 4
        assert controller.stats.max_inflight_depth == 4

    def test_window_one_is_the_lockstep_path(
        self, synthetic_stack, series_maker
    ):
        # window == 1 is the same submit/collect path with one tick in
        # flight at a time: identical results, depth never above 1.
        factory = make_factory(synthetic_stack, **monitored_kwargs())
        ticks = _series_ticks(series_maker, 505, 10, 6)
        expected, expected_stats = single_baseline(factory, ticks)
        with _WindowedCluster("pipe", factory, 2, window=1) as harness:
            controller = ServingController(harness.cluster)
            got = controller.run(ticks)
            stats = harness.cluster.statistics()
            inflight = harness.cluster.fanout_stats()["inflight"]
        assert got == expected
        assert stats == expected_stats
        assert inflight["window"] == 1
        assert inflight["max_depth"] == 1
        assert controller.stats.max_inflight_depth == 1
        assert all(t.inflight_depth == 0 for t in controller.telemetry)

    def test_snapshots_and_checkpoints_keep_lockstep_cadence(
        self, synthetic_stack, series_maker, tmp_path
    ):
        # Drained-engine operations must land on their exact lockstep
        # ticks: the pipelined loop drains the window before a
        # snapshot-due or checkpoint-due tick instead of sliding them.
        factory = make_factory(synthetic_stack, **monitored_kwargs())
        ticks = _series_ticks(series_maker, 507, 10, 8)
        expected, _ = single_baseline(factory, ticks)
        with _WindowedCluster("inproc", factory, 2, window=2) as harness:
            controller = ServingController(
                harness.cluster,
                failover=policy(journal_depth=2),
                snapshot_every=3,
                snapshot_dir=tmp_path / "snaps",
            )
            got = controller.run(ticks)
        assert got == expected
        from repro.serving import RegistrySnapshot

        for cadence_tick in (3, 6):
            written = RegistrySnapshot.load(
                tmp_path / "snaps" / f"tick_{cadence_tick:06d}"
            )
            assert written.tick == cadence_tick
            assert written.n_streams == 10


class TestWindowBound:
    """The window is a hard admission boundary, not an elastic buffer."""

    def _cluster(self, synthetic_stack, window=2):
        factory = make_factory(synthetic_stack)
        return ShardedEngine(
            factory, 2, transport="inproc", inflight_window=window
        )

    def test_window_must_be_positive(self, synthetic_stack):
        factory = make_factory(synthetic_stack)
        with pytest.raises(ValidationError, match="inflight_window"):
            ShardedEngine(factory, 2, transport="inproc", inflight_window=0)

    def test_submit_past_the_bound_raises(
        self, synthetic_stack, series_maker
    ):
        ticks = _series_ticks(series_maker, 509, 6, 4)
        expected, _ = single_baseline(make_factory(synthetic_stack), ticks)
        with self._cluster(synthetic_stack) as cluster:
            assert cluster.submit_batch(ticks[0]) == 1
            assert cluster.submit_batch(ticks[1]) == 2
            with pytest.raises(ClusterError, match="window is full"):
                cluster.submit_batch(ticks[2])
            # The refused submit changed nothing: both in-flight ticks
            # collect exactly, in order.
            got: dict = {}
            for _ in range(2):
                for result in cluster.collect_batch():
                    got.setdefault(result.stream_id, []).append(result)
            assert got == {
                sid: results[:2] for sid, results in expected.items()
            }

    def test_collect_with_nothing_in_flight_raises(self, synthetic_stack):
        with self._cluster(synthetic_stack) as cluster:
            with pytest.raises(ClusterError, match="no tick in flight"):
                cluster.collect_batch()

    def test_control_plane_refuses_mid_window(
        self, synthetic_stack, series_maker
    ):
        ticks = _series_ticks(series_maker, 511, 6, 4)
        with self._cluster(synthetic_stack) as cluster:
            cluster.submit_batch(ticks[0])
            for operation in (
                cluster.snapshot,
                cluster.statistics,
                lambda: cluster.step_batch(ticks[1]),
            ):
                with pytest.raises(ClusterError, match="still in flight"):
                    operation()
            cluster.collect_batch()
            cluster.statistics()  # drained again: allowed

    def test_abort_window_settles_every_owed_reply(
        self, synthetic_stack, series_maker
    ):
        ticks = _series_ticks(series_maker, 513, 6, 4)
        with self._cluster(synthetic_stack) as cluster:
            cluster.submit_batch(ticks[0])
            cluster.submit_batch(ticks[1])
            assert cluster.inflight_depth == 2
            assert cluster.abort_window() == 2
            assert cluster.inflight_depth == 0
            # Settled means settled: control-plane traffic pairs cleanly
            # again (recovery would restore state before reuse).
            cluster.statistics()
            assert cluster.abort_window() == 0


class TestTickTag:
    """The reserved ``_tick`` wire meta: pairing without payload cost."""

    def test_request_tag_roundtrips_and_strips(self):
        data = encode_request("ids", None, tick=5)
        command, payload, trace, tick = decode_request_full(data)
        assert (command, payload, trace, tick) == ("ids", None, None, 5)
        assert b'"_tick":5' in data

    def test_reply_echo_roundtrips(self):
        data = encode_reply("ids", ("ok", ["a", "b"]), tick=5)
        reply, telemetry, tick = decode_reply_full(data, "ids")
        assert reply == ("ok", ["a", "b"])
        assert telemetry is None
        assert tick == 5

    def test_error_replies_never_echo_the_tick(self):
        tagged = encode_reply("step", ("error", "Boom", "msg"), tick=9)
        reply, _, tick = decode_reply_full(tagged, "step")
        assert reply == ("error", "Boom", "msg")
        assert tick is None
        # Byte-for-byte the untagged error frame: an error aborts the
        # window, so pairing it with a tick buys nothing.
        assert tagged == encode_reply("step", ("error", "Boom", "msg"))

    def test_untagged_frames_are_byte_identical_to_pre_windowing(self):
        assert encode_request("ids", None) == encode_request(
            "ids", None, tick=None
        )
        assert b"_tick" not in encode_request("step", None)
        assert b"_tick" not in encode_reply("ids", ("ok", ["a"]))

    def test_empty_step_request_carries_the_tag(self):
        command, payload, _, tick = decode_request_full(
            encode_request("step", None, tick=2)
        )
        assert (command, payload, tick) == ("step", None, 2)


class TestWindowedFailover:
    """Faults striking inside a window recover bitwise-exactly."""

    @pytest.mark.parametrize("transport", ["inproc", "pipe"])
    @pytest.mark.parametrize(
        "mode, phase, index",
        [
            ("kill", "send", 0),
            ("kill", "recv", 3),
            ("garbage", "recv", 4),
            ("hang", "send", 7),
        ],
    )
    def test_windowed_recovery_is_bitwise_exact(
        self, synthetic_stack, series_maker, transport, mode, phase, index
    ):
        factory = make_factory(synthetic_stack, **monitored_kwargs())
        ticks = _series_ticks(series_maker, 515, 10, 8, new_series_at=3)
        expected, expected_stats = single_baseline(factory, ticks)
        faults = [ChaosFault(1, "step", index=index, mode=mode, phase=phase)]
        with _WindowedCluster(
            transport, factory, 2, window=2, faults=faults
        ) as harness:
            controller = ServingController(
                harness.cluster, failover=policy()
            )
            got = controller.run(ticks)
            stats = harness.cluster.statistics()
            assert not harness.chaos.pending_faults
            assert controller.stats.failovers == 1
            assert controller.stats.shards_respawned == 1
        # Admitted-but-uncollected ticks were re-submitted in admitted
        # order after recovery: the run is indistinguishable from a
        # fault-free one, statistics included.
        assert got == expected
        assert stats == expected_stats

    @pytest.mark.tcp
    @pytest.mark.slow
    def test_windowed_tcp_kill_recovers(self, synthetic_stack, series_maker):
        factory = make_factory(synthetic_stack, **monitored_kwargs())
        ticks = _series_ticks(series_maker, 517, 10, 8)
        expected, expected_stats = single_baseline(factory, ticks)
        faults = [ChaosFault(1, "step", index=3, mode="kill")]
        with _WindowedCluster(
            "tcp", factory, 2, window=2, faults=faults
        ) as harness:
            controller = ServingController(
                harness.cluster, failover=policy()
            )
            got = controller.run(ticks)
            stats = harness.cluster.statistics()
            assert not harness.chaos.pending_faults
            assert controller.stats.failovers == 1
        assert got == expected
        assert stats == expected_stats

    def test_mid_window_failure_without_failover_settles_the_engine(
        self, synthetic_stack, series_maker
    ):
        from repro.exceptions import ClusterWorkerError

        factory = make_factory(synthetic_stack)
        ticks = _series_ticks(series_maker, 519, 6, 6)
        faults = [ChaosFault(1, "step", index=2, mode="kill")]
        with _WindowedCluster(
            "pipe", factory, 2, window=2, faults=faults
        ) as harness:
            controller = ServingController(harness.cluster)
            with pytest.raises(ClusterWorkerError) as excinfo:
                controller.run(ticks)
            assert excinfo.value.shard == 1
            # The failed run settled the window on its way out: no owed
            # replies linger, the engine answers control-plane traffic.
            assert harness.cluster.inflight_depth == 0
            assert harness.cluster.dead_shards == [1]


class _SteppingClock:
    """Deterministic controller clock: each read advances a fixed step,
    so queue ages and latency EWMAs are exact regardless of scheduler
    noise or how long the chaos delay really slept."""

    def __init__(self, step=0.05):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


class TestBackpressure:
    """Window saturation throttles intake before queues blow up."""

    def test_delayed_shard_throttles_intake_before_overflow(
        self, synthetic_stack, series_maker
    ):
        # Shard 1 answers every step late (send-anchored chaos delay);
        # the window saturates behind it, the oldest in-flight tick's
        # age exceeds the admission latency budget, and the controller
        # halves the frame budget instead of letting deferred queues
        # grow past their bound.  The stepping clock (0.05 per read,
        # budget 0.01) makes the throttle decision -- and therefore the
        # whole admission schedule -- deterministic.
        factory = make_factory(synthetic_stack)
        ticks = _series_ticks(series_maker, 521, 6, 8)
        expected, _ = single_baseline(factory, ticks)
        faults = [
            ChaosFault(
                1, "step", index=0, mode="delay", seconds=0.01, count=8
            )
        ]
        admission = AdmissionPolicy(
            latency_budget=0.01, max_deferred_per_stream=64
        )
        registry = MetricsRegistry()
        with _WindowedCluster(
            "pipe", factory, 2, window=2, faults=faults
        ) as harness:
            controller = ServingController(
                harness.cluster,
                admission=admission,
                metrics=registry,
                clock=_SteppingClock(0.05),
            )
            got = controller.run(ticks)
            assert not harness.chaos.pending_faults
        stats = controller.stats
        assert stats.backpressure_throttles > 0
        families = parse_prometheus(registry.render_prometheus())
        throttles = families["repro_cluster_backpressure_throttles_total"][
            "samples"
        ][("repro_cluster_backpressure_throttles_total", ())]
        assert throttles == stats.backpressure_throttles
        assert stats.frames_deferred > 0
        assert stats.admission_overflow == 0  # throttled before the bound
        assert stats.max_inflight_depth == 2
        # Throttling reschedules frames, never changes outcomes: every
        # stream's served sequence is a bitwise prefix of the unthrottled
        # baseline's.
        assert all(
            outcomes == expected[stream_id][: len(outcomes)]
            for stream_id, outcomes in got.items()
        )

    def test_lockstep_never_trips_backpressure(
        self, synthetic_stack, series_maker
    ):
        # At window 1 nothing is in flight when the next tick is
        # admitted, so the backpressure check can never fire.
        factory = make_factory(synthetic_stack)
        ticks = _series_ticks(series_maker, 523, 6, 6)
        admission = AdmissionPolicy(
            latency_budget=0.01, max_deferred_per_stream=64
        )
        with _WindowedCluster("pipe", factory, 2, window=1) as harness:
            controller = ServingController(
                harness.cluster,
                admission=admission,
                clock=_SteppingClock(0.05),
            )
            controller.run(ticks)
        assert controller.stats.backpressure_throttles == 0


class TestWindowedObservability:
    """Depth and window phases are visible end to end."""

    def test_depth_reaches_stats_telemetry_and_metrics(
        self, synthetic_stack, series_maker
    ):
        factory = make_factory(synthetic_stack)
        ticks = _series_ticks(series_maker, 525, 8, 6)
        registry = MetricsRegistry()
        with _WindowedCluster("pipe", factory, 2, window=2) as harness:
            controller = ServingController(harness.cluster, metrics=registry)
            controller.run(ticks)
            inflight = harness.cluster.fanout_stats()["inflight"]
        assert inflight["max_depth"] == 2
        as_dict = controller.stats.as_dict()
        assert as_dict["max_inflight_depth"] == 2
        assert as_dict["backpressure_throttles"] == 0
        families = parse_prometheus(registry.render_prometheus())
        depth = families["repro_cluster_inflight_depth"]["samples"][
            ("repro_cluster_inflight_depth", ())
        ]
        assert depth == controller.telemetry[-1].inflight_depth == 0
        # The throttle counter family is registered; like every
        # delta-advanced counter it materializes a sample on first
        # increment (the backpressure test asserts the scraped value).
        assert "repro_cluster_backpressure_throttles_total" in families
        assert controller.stats.backpressure_throttles == 0

    def test_mid_window_depth_and_queue_age_are_live(
        self, synthetic_stack, series_maker
    ):
        ticks = _series_ticks(series_maker, 527, 6, 4)
        factory = make_factory(synthetic_stack)
        with ShardedEngine(
            factory, 2, transport="inproc", inflight_window=2
        ) as cluster:
            cluster.submit_batch(ticks[0])
            cluster.submit_batch(ticks[1])
            inflight = cluster.fanout_stats()["inflight"]
            assert inflight["depth"] == 2
            assert inflight["oldest_age_seconds"] > 0.0
            cluster.abort_window()

    def test_tracer_shows_window_phases_and_overlap(
        self, synthetic_stack, series_maker
    ):
        assert "shard_step" in PHASES and "merge" in PHASES
        factory = make_factory(synthetic_stack)
        ticks = _series_ticks(series_maker, 529, 8, 6)
        tracer = TickTracer()
        with _WindowedCluster("pipe", factory, 2, window=2) as harness:
            controller = ServingController(harness.cluster, tracer=tracer)
            controller.run(ticks)
        traces = {trace.tick: trace for trace in tracer.traces}
        middle = traces[3]
        names = [span.name for span in middle.spans]
        assert "shard_step" in names and "merge" in names
        # The overlap, on the timeline: tick 3's trace carries tick 4's
        # fan-out span (submitted while tick 3's replies were still on
        # the wire), and that fan-out STARTED before tick 3's replies
        # were awaited.  At window 1 a trace holds only its own tick's
        # fan-out, so this is the windowed loop's signature.
        fanouts = [s for s in middle.spans if s.name == "fanout"]
        waits = [s for s in middle.spans if s.name == "shard_step"]
        assert fanouts and waits
        assert fanouts[0].meta["tick"] == 4
        assert waits[0].meta["tick"] == 3
        assert fanouts[0].start < waits[0].start
        assert middle.seconds("shard_step") >= 0.0
