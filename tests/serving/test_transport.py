"""Tests for the pluggable cluster transports.

The tentpole property: the three transports (in-proc loopback, forked
pipe workers, TCP to remote workers) are behaviorally interchangeable --
bitwise-identical step results, monitor verdicts, TTL evictions, and
statistics versus the single-process engine at every shard count, and a
snapshot taken under one transport restores under any other and continues
exactly like an uninterrupted run.  On top of that: worker-death mapping
(a killed worker surfaces as :class:`ClusterWorkerError` naming the
shard, never a hang, with surviving shards still in protocol) and the
transport-specific spawn/validation edges.
"""

import contextlib

import numpy as np
import pytest

from repro.core.monitor import UncertaintyMonitor
from repro.exceptions import ClusterError, ClusterWorkerError, ValidationError
from repro.serving import (
    InprocTransport,
    PipeTransport,
    ShardedEngine,
    StreamFrame,
    StreamingEngine,
    TcpTransport,
    launch_local_workers,
    stop_local_workers,
)
from repro.serving.transport import parse_address, resolve_transport

TRANSPORTS = ("inproc", "pipe", "tcp")


def make_factory(synthetic_stack, **kwargs):
    ddm, stateless, ta_qim, layout, fusion = synthetic_stack

    def factory():
        return StreamingEngine(
            ddm=ddm,
            stateless_qim=stateless,
            timeseries_qim=ta_qim,
            layout=layout,
            information_fusion=fusion,
            **kwargs,
        )

    return factory


def monitored_kwargs():
    return dict(
        max_buffer_length=4,
        monitor_factory=lambda: UncertaintyMonitor(
            threshold=0.35, reentry_threshold=0.25, risk_budget=3.0
        ),
        idle_ttl=3,
    )


def tick_frames(series, stream_ids, t, new_series=False):
    return [
        StreamFrame(
            stream_ids[sid],
            series[sid][0][t],
            series[sid][1][t],
            new_series=new_series,
        )
        for sid in range(len(stream_ids))
    ]


@contextlib.contextmanager
def cluster_on(transport_name, factory, n_shards):
    """A ShardedEngine on the named transport; TCP gets loopback workers."""
    if transport_name == "tcp":
        addresses, processes = launch_local_workers(factory, n_shards)
        try:
            with ShardedEngine(
                factory, n_shards, transport=TcpTransport(addresses)
            ) as cluster:
                yield cluster
        finally:
            stop_local_workers(processes)
    else:
        with ShardedEngine(factory, n_shards, transport=transport_name) as cluster:
            yield cluster


class TestTransportEquivalence:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_bitwise_identical_to_single_process(
        self, synthetic_stack, series_maker, transport, n_shards
    ):
        rng = np.random.default_rng(311)
        n_streams, length = 12, 6
        series = series_maker(rng, n_series=n_streams, length=length)
        ids = [f"s{sid}" for sid in range(n_streams)]
        factory = make_factory(synthetic_stack, **monitored_kwargs())

        single = factory()
        expected = [
            single.step_batch(tick_frames(series, ids, t, new_series=(t == 3)))
            for t in range(length)
        ]
        with cluster_on(transport, factory, n_shards) as cluster:
            assert cluster.transport_name == transport
            got = [
                cluster.step_batch(tick_frames(series, ids, t, new_series=(t == 3)))
                for t in range(length)
            ]
            assert got == expected  # outcomes, uncertainties, verdicts
            assert cluster.tick == single.tick
            stats = cluster.statistics()
        assert stats.created == single.registry.statistics.created
        assert stats.series_started == single.registry.statistics.series_started

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_ttl_eviction_matches_single_process(
        self, synthetic_stack, series_maker, transport
    ):
        rng = np.random.default_rng(313)
        series = series_maker(rng, n_series=6, length=8)
        ids = [f"obj{sid}" for sid in range(6)]
        factory = make_factory(synthetic_stack, idle_ttl=2)

        single = factory()
        with cluster_on(transport, factory, 2) as cluster:
            for t in range(8):
                live = ids[:3] if t >= 3 else ids
                frames = [
                    StreamFrame(ids[sid], series[sid][0][t], series[sid][1][t])
                    for sid in range(len(live))
                ]
                assert cluster.step_batch(frames) == single.step_batch(frames)
                assert cluster.n_streams == single.n_streams
            assert (
                cluster.statistics().evicted == single.registry.statistics.evicted
            )

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_all_frameless_ticks_advance_cluster_time(
        self, synthetic_stack, series_maker, transport
    ):
        # Empty-batch ticks cross every transport as the dedicated
        # frameless payload; time must pass cluster-wide so TTL eviction
        # fires on exactly the single-process tick, and an engine that
        # served nothing but empty ticks must still be at the right time.
        rng = np.random.default_rng(353)
        series = series_maker(rng, n_series=3, length=2)
        ids = [f"s{sid}" for sid in range(3)]
        factory = make_factory(synthetic_stack, idle_ttl=2)

        single = factory()
        with cluster_on(transport, factory, 2) as cluster:
            for _ in range(3):  # frameless from a cold start
                assert cluster.step_batch([]) == single.step_batch([])
            frames = tick_frames(series, ids, 0)
            assert cluster.step_batch(frames) == single.step_batch(frames)
            for _ in range(3):  # frameless past the TTL: eviction tick
                assert cluster.step_batch([]) == single.step_batch([])
                assert cluster.n_streams == single.n_streams
            assert cluster.tick == single.tick == 7
            assert cluster.n_streams == 0  # all three evicted by the TTL
            assert (
                cluster.statistics().evicted
                == single.registry.statistics.evicted
                == 3
            )

    @pytest.mark.parametrize("transport", ["pipe", "tcp"])
    def test_worker_errors_map_to_original_types(
        self, synthetic_stack, series_maker, transport
    ):
        # A mid-tick worker failure (NaN taQIM) must surface as the same
        # ValidationError the single-process engine raises -- over bytes.
        rng = np.random.default_rng(317)
        (X, q, _), = series_maker(rng, n_series=1, length=1)
        ddm, stateless, ta_qim, layout, fusion = synthetic_stack

        class NaNTaQIM:
            is_calibrated = True

            def estimate_uncertainty(self, features):
                u = np.array(ta_qim.estimate_uncertainty(features), dtype=float)
                u[-1] = np.nan
                return u

        def factory():
            return StreamingEngine(ddm, stateless, NaNTaQIM(), layout, fusion)

        with cluster_on(transport, factory, 2) as cluster:
            with pytest.raises(ValidationError, match="tick already recorded"):
                cluster.step_batch([StreamFrame("s", X[0], q[0])])


class TestCrossTransportSnapshots:
    @pytest.mark.parametrize(
        "source,target", [("pipe", "tcp"), ("tcp", "inproc"), ("inproc", "pipe")]
    )
    def test_snapshot_restores_across_transports(
        self, synthetic_stack, series_maker, source, target
    ):
        rng = np.random.default_rng(331)
        n_streams, length = 10, 8
        series = series_maker(rng, n_series=n_streams, length=length)
        ids = [f"s{sid}" for sid in range(n_streams)]
        factory = make_factory(synthetic_stack, **monitored_kwargs())

        with cluster_on(source, factory, 3) as cluster:
            for t in range(4):
                cluster.step_batch(tick_frames(series, ids, t))
            snapshot = cluster.snapshot()
            baseline = [
                cluster.step_batch(tick_frames(series, ids, t))
                for t in range(4, length)
            ]
            stats = cluster.statistics()

        # Different transport AND different shard count: restore must be
        # exact because the wire format and the placement ring are shared.
        with cluster_on(target, factory, 2) as resumed:
            resumed.restore(snapshot)
            assert resumed.tick == 4
            assert resumed.n_streams == n_streams
            got = [
                resumed.step_batch(tick_frames(series, ids, t))
                for t in range(4, length)
            ]
            assert got == baseline
            resumed_stats = resumed.statistics()
        assert (resumed_stats.created, resumed_stats.series_started) == (
            stats.created,
            stats.series_started,
        )

    def test_snapshot_file_roundtrip_pipe_to_tcp(
        self, synthetic_stack, series_maker, tmp_path
    ):
        # The full durability path: pipe cluster -> .json/.npz on disk ->
        # TCP cluster, continuing bitwise-identically.
        from repro.serving import RegistrySnapshot

        rng = np.random.default_rng(337)
        series = series_maker(rng, n_series=8, length=6)
        ids = [f"s{sid}" for sid in range(8)]
        factory = make_factory(synthetic_stack, **monitored_kwargs())

        with cluster_on("pipe", factory, 2) as cluster:
            for t in range(3):
                cluster.step_batch(tick_frames(series, ids, t))
            cluster.snapshot().save(tmp_path / "snap")
            baseline = [
                cluster.step_batch(tick_frames(series, ids, t)) for t in range(3, 6)
            ]

        loaded = RegistrySnapshot.load(tmp_path / "snap")
        with cluster_on("tcp", factory, 2) as resumed:
            resumed.restore(loaded)
            got = [
                resumed.step_batch(tick_frames(series, ids, t)) for t in range(3, 6)
            ]
        assert got == baseline


class TestWorkerDeath:
    @pytest.mark.parametrize("transport", ["pipe", "tcp"])
    def test_killed_worker_maps_to_cluster_worker_error(
        self, synthetic_stack, series_maker, transport
    ):
        rng = np.random.default_rng(341)
        n_streams, length = 8, 6
        series = series_maker(rng, n_series=n_streams, length=length)
        ids = [f"s{sid}" for sid in range(n_streams)]
        factory = make_factory(synthetic_stack)

        victim = 1
        if transport == "tcp":
            addresses, processes = launch_local_workers(factory, 2)
        try:
            transport_arg = (
                TcpTransport(addresses) if transport == "tcp" else transport
            )
            with ShardedEngine(factory, 2, transport=transport_arg) as cluster:
                for t in range(3):
                    cluster.step_batch(tick_frames(series, ids, t))

                if transport == "tcp":
                    processes[victim].kill()
                    processes[victim].join(5.0)
                else:
                    cluster._workers[victim].process.kill()
                    cluster._workers[victim].process.join(5.0)

                # The next tick must fail fast with the mapped error --
                # not hang, not corrupt the surviving shard.
                with pytest.raises(ClusterWorkerError) as excinfo:
                    cluster.step_batch(tick_frames(series, ids, 3))
                assert excinfo.value.shard == victim
                assert cluster.dead_shards == [victim]

                # Serving calls now fail fast until a restore elsewhere...
                with pytest.raises(ClusterWorkerError, match="died"):
                    cluster.step_batch(tick_frames(series, ids, 4))
                with pytest.raises(ClusterWorkerError):
                    cluster.snapshot()
                # ...while the surviving worker stayed in protocol: its
                # channel answers cleanly, no stale replies queued.
                survivor = cluster._workers[0]
                stats = survivor.request("stats")
                assert stats["n_streams"] > 0
                # close() reaps what is left without raising
        finally:
            if transport == "tcp":
                stop_local_workers(processes)

    def test_send_failure_drains_survivors(self, synthetic_stack, series_maker):
        # Kill shard 0 (the first send target): the fan-out loop must
        # drain the already-sent workers so their channels stay usable.
        rng = np.random.default_rng(343)
        series = series_maker(rng, n_series=8, length=4)
        ids = [f"s{sid}" for sid in range(8)]
        factory = make_factory(synthetic_stack)
        with ShardedEngine(factory, 3, transport="pipe") as cluster:
            for t in range(2):
                cluster.step_batch(tick_frames(series, ids, t))
            cluster._workers[0].process.kill()
            cluster._workers[0].process.join(5.0)
            with pytest.raises(ClusterWorkerError):
                cluster.step_batch(tick_frames(series, ids, 2))
            assert 0 in cluster.dead_shards
            for worker in cluster._workers[1:]:
                assert worker.request("stats")["tick"] >= 2

    def test_window_one_reply_echoing_another_tick_is_refused(
        self, synthetic_stack, series_maker
    ):
        # Every step frame is tick-tagged, window 1 included: an ok reply
        # that echoes some other tick is out of protocol, exactly like a
        # garbage reply -- it is never merged into the tick in flight.
        from repro.serving.protocol import decode_request_full, encode_reply
        from repro.serving.transport import (
            ChannelEndpoint,
            Transport,
            WorkerServicer,
        )

        class StaleEchoChannel:
            """An in-process worker whose ok step replies echo tick 0."""

            def __init__(self, factory):
                self._servicer = WorkerServicer(factory())
                self._replies = []

            def send_bytes(self, data):
                command, payload, _, tick = decode_request_full(data)
                if command == "hello":
                    reply = ("ok", self._servicer.engine_shape())
                else:
                    reply = ("ok", self._servicer.handle(command, payload))
                echo = 0 if command == "step" else tick
                self._replies.append(encode_reply(command, reply, tick=echo))

            def recv_bytes(self):
                return self._replies.pop(0)

            def set_timeout(self, timeout):
                pass

            def close(self):
                pass

        class StaleEchoTransport(Transport):
            name = "stale-echo"

            def connect(self, shard, engine_factory):
                return ChannelEndpoint(shard, StaleEchoChannel(engine_factory))

        rng = np.random.default_rng(377)
        series = series_maker(rng, n_series=4, length=1)
        ids = [f"s{sid}" for sid in range(4)]
        factory = make_factory(synthetic_stack)
        with ShardedEngine(
            factory, 1, transport=StaleEchoTransport(), inflight_window=1
        ) as cluster:
            with pytest.raises(ClusterWorkerError, match="tick echo") as excinfo:
                cluster.step_batch(tick_frames(series, ids, 0))
            assert excinfo.value.shard == 0
            assert cluster._workers[0].alive is False
            assert cluster.dead_shards == [0]
            assert cluster.tick == 0


class TestTransportEdges:
    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_factory_failure_surfaces_at_spawn(self, transport):
        def broken():
            raise RuntimeError("no models on this host")

        if transport == "tcp":
            addresses, processes = launch_local_workers(broken, 2)
            try:
                with pytest.raises(RuntimeError, match="no models"):
                    ShardedEngine(broken, 2, transport=TcpTransport(addresses))
            finally:
                stop_local_workers(processes)
        else:
            with pytest.raises(RuntimeError, match="no models"):
                ShardedEngine(broken, 2, transport=transport)

    def test_tcp_shard_count_capped_by_addresses(self, synthetic_stack):
        factory = make_factory(synthetic_stack)
        transport = TcpTransport([("127.0.0.1", 1)])
        with pytest.raises(ValidationError, match="at most 1 shard"):
            ShardedEngine(factory, 2, transport=transport)

    def test_tcp_rebalance_capped_by_addresses(self, synthetic_stack):
        factory = make_factory(synthetic_stack)
        addresses, processes = launch_local_workers(factory, 2)
        try:
            with ShardedEngine(
                factory, 2, transport=TcpTransport(addresses)
            ) as cluster:
                with pytest.raises(ValidationError, match="at most 2 shard"):
                    cluster.rebalance(3)
        finally:
            stop_local_workers(processes)

    def test_tcp_unreachable_worker_times_out(self, synthetic_stack):
        factory = make_factory(synthetic_stack)
        # Port 1 is never listening; a tiny timeout keeps the test fast.
        transport = TcpTransport([("127.0.0.1", 1)], connect_timeout=0.2)
        with pytest.raises(ClusterWorkerError, match="cannot reach"):
            ShardedEngine(factory, 1, transport=transport)

    def test_rebalance_on_inproc_and_tcp(self, synthetic_stack, series_maker):
        rng = np.random.default_rng(347)
        series = series_maker(rng, n_series=12, length=6)
        ids = [f"s{sid}" for sid in range(12)]
        factory = make_factory(synthetic_stack, **monitored_kwargs())
        single = factory()
        addresses, processes = launch_local_workers(factory, 4)
        try:
            with ShardedEngine(
                factory, 2, transport=TcpTransport(addresses)
            ) as tcp_cluster, ShardedEngine(
                factory, 2, transport="inproc"
            ) as inproc_cluster:
                for t in range(3):
                    frames = tick_frames(series, ids, t)
                    expected = single.step_batch(frames)
                    assert tcp_cluster.step_batch(frames) == expected
                    assert inproc_cluster.step_batch(frames) == expected
                assert tcp_cluster.rebalance(4)["to"] == 4
                assert inproc_cluster.rebalance(4)["to"] == 4
                for t in range(3, 6):
                    frames = tick_frames(series, ids, t)
                    expected = single.step_batch(frames)
                    assert tcp_cluster.step_batch(frames) == expected
                    assert inproc_cluster.step_batch(frames) == expected
        finally:
            stop_local_workers(processes)

    def test_mismatched_worker_config_rejected_at_hello(
        self, synthetic_stack
    ):
        # TCP workers configure themselves; one started with a different
        # threshold must be rejected at spawn, not silently serve
        # non-equivalent verdicts.
        factory_a = make_factory(
            synthetic_stack,
            monitor_factory=lambda: UncertaintyMonitor(threshold=0.35),
        )
        factory_b = make_factory(
            synthetic_stack,
            monitor_factory=lambda: UncertaintyMonitor(threshold=0.5),
        )
        addr_a, procs_a = launch_local_workers(factory_a, 1, max_connections=0)
        addr_b, procs_b = launch_local_workers(factory_b, 1, max_connections=0)
        try:
            with pytest.raises(ClusterError, match="identical to the cluster's"):
                ShardedEngine(
                    factory_a, 2, transport=TcpTransport(addr_a + addr_b)
                )
            # Even a 1-shard cluster checks the worker against its OWN
            # flags, not just worker-vs-worker consistency.
            with pytest.raises(ClusterError, match="identical to the cluster's"):
                ShardedEngine(factory_a, 1, transport=TcpTransport(addr_b))
        finally:
            stop_local_workers(procs_a + procs_b)

    def test_duplicate_address_fails_handshake_instead_of_deadlocking(
        self, synthetic_stack
    ):
        # serve_worker is sequential: listing one worker's address twice
        # leaves the second connection waiting in the backlog.  The hello
        # timeout must turn that into a prompt error, not a hang.
        factory = make_factory(synthetic_stack)
        addresses, processes = launch_local_workers(factory, 1)
        try:
            transport = TcpTransport(addresses * 2, connect_timeout=1.0)
            with pytest.raises(ClusterWorkerError):
                ShardedEngine(factory, 2, transport=transport)
        finally:
            stop_local_workers(processes)

    def test_stray_connections_do_not_wedge_the_worker(
        self, synthetic_stack, series_maker
    ):
        # A port scanner (connects, says nothing) and a garbage peer
        # (claims a 4 GiB message) both get dropped on the handshake
        # timeout / length cap; a real cluster served afterwards still
        # produces correct results -- the listener never wedges.
        import socket as socket_module

        rng = np.random.default_rng(367)
        series = series_maker(rng, n_series=4, length=2)
        ids = [f"s{sid}" for sid in range(4)]
        factory = make_factory(synthetic_stack)
        addresses, processes = launch_local_workers(
            factory, 1, handshake_timeout=0.3
        )
        try:
            silent = socket_module.create_connection(addresses[0], timeout=5.0)
            garbage = socket_module.create_connection(addresses[0], timeout=5.0)
            garbage.sendall(b"\xff\xff\xff\xff")  # absurd length prefix
            try:
                single = factory()
                expected = [
                    single.step_batch(tick_frames(series, ids, t))
                    for t in range(2)
                ]
                with ShardedEngine(
                    factory, 1, transport=TcpTransport(addresses)
                ) as cluster:
                    got = [
                        cluster.step_batch(tick_frames(series, ids, t))
                        for t in range(2)
                    ]
                assert got == expected
            finally:
                silent.close()
                garbage.close()
        finally:
            stop_local_workers(processes)

    def test_resolve_transport_specs(self):
        assert isinstance(resolve_transport(None), PipeTransport)
        assert isinstance(resolve_transport("pipe"), PipeTransport)
        assert isinstance(resolve_transport("inproc"), InprocTransport)
        tcp = resolve_transport("tcp:10.0.0.1:7000,10.0.0.2:7000")
        assert isinstance(tcp, TcpTransport)
        assert tcp.addresses == [("10.0.0.1", 7000), ("10.0.0.2", 7000)]
        with pytest.raises(ValidationError, match="unknown transport"):
            resolve_transport("carrier-pigeon")

    def test_parse_address(self):
        assert parse_address("127.0.0.1:7000") == ("127.0.0.1", 7000)
        assert parse_address(("h", 1)) == ("h", 1)
        with pytest.raises(ValidationError, match="HOST:PORT"):
            parse_address("no-port")
        with pytest.raises(ValidationError, match="non-numeric"):
            parse_address("host:http")

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_numpy_scope_values_cross_every_transport(
        self, synthetic_stack, series_maker, transport
    ):
        # The single-process engine accepts numpy-scalar scope values, so
        # the wire must too (unwrapped to exact Python equivalents before
        # fan-out); an unserializable value rejects the whole tick
        # atomically instead of half-executing it across shards.
        from repro.core.scope import BoundaryCheck, ScopeComplianceModel

        rng = np.random.default_rng(359)
        n_streams = 6
        series = series_maker(rng, n_series=n_streams, length=2)
        ids = [f"s{sid}" for sid in range(n_streams)]
        factory = make_factory(
            synthetic_stack,
            scope_model=ScopeComplianceModel(
                checks=[BoundaryCheck("lat", low=-60.0, high=60.0)]
            ),
        )

        def frames_at(t):
            return [
                StreamFrame(
                    ids[sid],
                    series[sid][0][t],
                    series[sid][1][t],
                    scope_factors={
                        "lat": np.float64(70.0 if sid == 2 else 10.0)
                    },
                )
                for sid in range(n_streams)
            ]

        single = factory()
        expected = [single.step_batch(frames_at(t)) for t in range(2)]
        with cluster_on(transport, factory, 2) as cluster:
            got = [cluster.step_batch(frames_at(t)) for t in range(2)]
            assert got == expected
            assert got[0][2].outcome.scope_incompliance == 1.0

            if transport != "inproc":
                # An unserializable scope value must reject pre-fan-out:
                # no tick advances anywhere, snapshot stays aligned.
                bad = frames_at(0)
                bad[0] = StreamFrame(
                    ids[0],
                    series[0][0][0],
                    series[0][1][0],
                    scope_factors={"lat": object()},
                )
                with pytest.raises(ValidationError, match="scope factor"):
                    cluster.step_batch(bad)
                assert cluster.tick == 2
                cluster.snapshot()  # shard ticks still aligned

    def test_serve_connection_reports_how_the_session_ended(
        self, synthetic_stack
    ):
        # The connection-accounting contract behind --max-connections:
        # "served" only for orderly closes, "lost" for a client that
        # vanishes mid-session, "stray" for peers that never handshake.
        from repro.serving.protocol import encode_request
        from repro.serving.transport import serve_connection

        class ScriptedChannel:
            def __init__(self, frames):
                self._frames = list(frames)
                self.sent = []

            def send_bytes(self, data):
                self.sent.append(data)

            def recv_bytes(self):
                if not self._frames:
                    raise EOFError("peer went away")
                return self._frames.pop(0)

            def set_timeout(self, timeout):
                pass

        factory = make_factory(synthetic_stack)
        hello = encode_request("hello", {"initial_tick": 0, "shard": 0})
        assert (
            serve_connection(
                ScriptedChannel([hello, encode_request("close")]), factory
            )
            == "served"
        )
        assert serve_connection(ScriptedChannel([hello]), factory) == "lost"
        assert serve_connection(ScriptedChannel([]), factory) == "stray"

    @pytest.mark.tcp
    def test_client_death_does_not_consume_the_connection_budget(
        self, synthetic_stack, series_maker
    ):
        # Regression for the failover reconnect path: a serve-worker
        # with --max-connections 1 whose client dies mid-session must
        # still be listening for the reconnect -- only the later orderly
        # close may consume the budget and let the worker exit.
        rng = np.random.default_rng(373)
        series = series_maker(rng, n_series=4, length=2)
        ids = [f"s{sid}" for sid in range(4)]
        factory = make_factory(synthetic_stack)
        single = factory()
        expected = [
            single.step_batch(tick_frames(series, ids, t)) for t in range(2)
        ]
        addresses, processes = launch_local_workers(
            factory, 1, max_connections=1
        )
        try:
            crashed = ShardedEngine(factory, 1, transport=TcpTransport(addresses))
            crashed.step_batch(tick_frames(series, ids, 0))
            # Abrupt client death: sever the socket, no close command.
            crashed._workers[0]._channel.close()
            crashed.close()

            with ShardedEngine(
                factory, 1, transport=TcpTransport(addresses)
            ) as resumed:
                got = [
                    resumed.step_batch(tick_frames(series, ids, t))
                    for t in range(2)
                ]
            assert got == expected  # fresh engine, clean state
            # The orderly close above consumed the single budgeted
            # session; the worker now exits on its own.
            for process in processes:
                process.join(10.0)
                assert not process.is_alive()
        finally:
            stop_local_workers(processes)

    def test_inproc_exotic_ids_work_but_wire_ids_are_validated(
        self, synthetic_stack, series_maker
    ):
        # In-proc never serializes, so a tuple id still serves; the same
        # id on a wire transport is rejected with a clear message.
        rng = np.random.default_rng(353)
        (X, q, _), = series_maker(rng, n_series=1, length=1)
        factory = make_factory(synthetic_stack)
        with ShardedEngine(factory, 2, transport="inproc") as cluster:
            results = cluster.step_batch([StreamFrame(("car", 1), X[0], q[0])])
            assert results[0].stream_id == ("car", 1)
        with ShardedEngine(factory, 2, transport="pipe") as cluster:
            with pytest.raises(ValidationError, match="wire-serializable"):
                cluster.step_batch([StreamFrame(("car", 1), X[0], q[0])])
