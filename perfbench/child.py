"""One process of a run of one workload (started by ``run.py``).

It sets the program up, serves ticks for ``--seconds``, checks the
outputs and writes its record as JSON to ``--out``: the raw tick
latencies and frame counts that ``run.py`` pools over a run's
processes.  With ``--trace 1`` the run alternates blocks of
:data:`BLOCK` untraced and traced ticks; latency metrics of the traced
run come from both block types (``trace.overhead``), stage timings from
the traced blocks only.
"""

import time

SETUP_START = time.perf_counter()  # set-up time includes importing the program

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import traffic as traffic_module  # noqa: E402
from workloads import MAX_BUFFER_LENGTH, WORKLOADS, PlainEngineFactory, System, metric_spec, monitor_factory  # noqa: E402

#: Ticks per block of a traced run (untraced and traced blocks alternate).
BLOCK = 8
#: Closed-loop schedules cover this many ticks per measured second,
#: enough for ticks down to ~20 ms plus frame building.
CLOSED_TICKS_PER_SECOND = 50
#: An open loop that falls this far behind its schedule stops early.
OPEN_LOOP_OVERRUN = 2.0

PAGE = os.sysconf("SC_PAGE_SIZE")


def rss(pid) -> int:
    with open(f"/proc/{pid}/statm") as handle:
        return int(handle.read().split()[1]) * PAGE


def child_pids() -> list[int]:
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    if int(handle.read().rsplit(")", 1)[1].split()[1]) == me:
                        pids.append(int(entry))
            except OSError:
                pass
    return pids


def make_traffic(workload, study, seed: int, seconds: float):
    rng = np.random.default_rng(seed)
    pool = traffic_module.build_pool(study.feature_model, rng)
    if workload.traffic == "churn":
        horizon = int(seconds * workload.rate)
        return traffic_module.churn(pool, horizon, rng, mean_live=workload.streams)
    horizon = int(seconds * CLOSED_TICKS_PER_SECOND)
    if workload.traffic == "wave":
        return traffic_module.wave(pool, workload.streams, horizon, rng)
    return traffic_module.closed_loop(pool, workload.streams, horizon, rng)


def pick_sample(workload, traffic, seed: int) -> list:
    """Seeded sample of stream ids to replay through the wrapper.  Open
    loop: objects born early enough that their series ends in the run."""
    rng = np.random.default_rng([seed, 1])
    if workload.open_loop:
        last = max(1, traffic.horizon - 40)
        born = np.concatenate(
            [t.stream_ids[t.new_series] for t in traffic.ticks[:last]]
        )
        pool = np.unique(born)
    else:
        pool = np.arange(workload.streams)
    n = min(checks.SAMPLE_STREAMS, len(pool))
    return sorted(int(s) for s in rng.choice(pool, size=n, replace=False))


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


class Run:
    """State of one measured run."""

    def __init__(self, args) -> None:
        from repro.evaluation import StudyConfig, prepare_study_data

        self.args = args
        self.workload = WORKLOADS[args.workload]
        self.study = prepare_study_data(StudyConfig())
        self.traffic = make_traffic(self.workload, self.study, args.seed, args.seconds)
        self.rundir = Path(args.out).parent
        self.snapshot_dir = self.rundir / f"snapshots-{os.getpid()}"
        gc.collect()
        self.rss_base = {os.getpid(): rss(os.getpid())}
        self.log = layers.SpanLog() if args.trace else None
        self.system = System(self.workload, self.study, self.log, self.snapshot_dir)
        for pid in child_pids():
            self.rss_base[pid] = rss(pid)
        self.setup_s = time.perf_counter() - SETUP_START

    # -- bookkeeping outside the timed region ---------------------------
    def start_measuring(self) -> None:
        self.latencies = []
        self.lags = []
        self.traced_flags = []
        self.offered = self.served = self.failed = 0
        self.errors = []
        self.rss_peak = dict(self.rss_base)
        self.peak_streams = 0
        self.sample = pick_sample(self.workload, self.traffic, self.args.seed)
        self.sample_set = set(self.sample)
        self.sample_served = {sid: [] for sid in self.sample}
        self.digest = checks.Digest()
        self.traced_ticks = []
        self.all_spans = []
        self.encode_cpu = []
        self.worker = []
        self.stats_before = self.lifecycle()
        self.pool_before = self.pool_stats()
        self.gc_meter = layers.GcMeter()

    def lifecycle(self) -> dict:
        engine = self.system.engine
        stats = engine.statistics() if self.workload.shards else engine.registry.statistics
        return {"created": stats.created, "evicted": stats.evicted}

    def pool_stats(self) -> dict | None:
        if not self.workload.shards:
            return None
        return dict(self.system.engine.fanout_stats().get("pool") or {})

    def before_tick(self, t: int) -> bool:
        """Switch instrumentation for tick ``t``; returns whether it is traced."""
        traced = bool(self.args.trace) and (t // BLOCK) % 2 == 1
        self.system.set_traced(traced)
        if traced:
            self.log.tick = t
            self._span_mark = len(self.log.spans)
            if self.workload.shards:
                self._encode_mark = self.system.engine.fanout_stats()["encode_seconds"]
        return traced

    def tick(self, frames):
        self.gc_meter.active = True
        try:
            return self.system.controller.tick(frames)
        except Exception as error:  # counted as failed frames, reported
            self.errors.append(f"{type(error).__name__}: {error}")
            return None
        finally:
            self.gc_meter.active = False

    def after_tick(self, t: int, frames, results, latency: float, service: float, traced: bool) -> None:
        self.offered += len(frames)
        if results is None:
            self.failed += len(frames)
            return
        self.served += len(results)
        self.latencies.append(latency)
        self.traced_flags.append(traced)
        if self.workload.traffic == "steady":
            # Every stream sends every tick: result i belongs to stream i.
            for sid in self.sample:
                r = results[sid]
                self.sample_served[sid].append(
                    checks.result_key(r) if r.stream_id == sid else None
                )
            if self.digest.ticks < checks.DIGEST_TICKS:
                self.digest.update(results)
        else:
            for r in results:
                if r.stream_id in self.sample_set:
                    self.sample_served[r.stream_id].append(checks.result_key(r))
        if self.workload.open_loop:
            self.peak_streams = max(self.peak_streams, self.system.engine.n_streams)
        else:
            self.peak_streams = self.workload.streams
        for pid in self.rss_peak:
            try:
                self.rss_peak[pid] = max(self.rss_peak[pid], rss(pid))
            except OSError:
                pass
        if traced:
            self.record_traced(t, service)

    def record_traced(self, t: int, service: float) -> None:
        spans = {}
        for _, name, start, seconds in self.log.spans[self._span_mark:]:
            spans[name] = spans.get(name, 0.0) + seconds
            self.all_spans.append((t, name, start, seconds))
        for span in self.system.tracer.last.spans:
            spans[span.name] = spans.get(span.name, 0.0) + span.seconds
            self.all_spans.append((t, span.name, span.start, span.seconds))
        self.traced_ticks.append({"wall": service, "spans": spans})
        if self.workload.shards:
            engine = self.system.engine
            self.encode_cpu.append(engine.fanout_stats()["encode_seconds"] - self._encode_mark)
            phases = layers.worker_phases(engine.last_rpc, engine.clock_offsets)
            if phases:
                self.worker.append(phases)

    # -- the loops ------------------------------------------------------
    def closed_loop(self) -> float:
        traffic = self.traffic
        end = time.perf_counter() + self.args.seconds
        frames = traffic.frames(0)
        t = 0
        while t < traffic.horizon and time.perf_counter() < end:
            traced = self.before_tick(t)
            started = time.perf_counter()
            results = self.tick(frames)
            wall = time.perf_counter() - started
            self.after_tick(t, frames, results, wall, wall, traced)
            t += 1
            if t < traffic.horizon:
                frames = traffic.frames(t)
        return sum(self.latencies)

    def open_loop(self) -> float:
        rate = self.workload.rate
        traffic = self.traffic
        frames = traffic.frames(0)
        start = time.perf_counter() + 0.05
        done = start
        for t in range(traffic.horizon):
            due = start + t / rate
            traced = self.before_tick(t)
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            called = time.perf_counter()
            results = self.tick(frames)
            done = time.perf_counter()
            self.lags.append(called - due)
            # Latency from the due time: a stall is charged to every tick
            # queued behind it.  The traced breakdown uses the service time.
            self.after_tick(t, frames, results, done - due, done - called, traced)
            if t + 1 < traffic.horizon:
                frames = traffic.frames(t + 1)
            if done - start > OPEN_LOOP_OVERRUN * self.args.seconds:
                self.errors.append(f"open loop overran its schedule at tick {t}")
                break
        return done - start

    # -- checks ---------------------------------------------------------
    def check(self) -> dict:
        served = self.sample_served
        if self.args.inject_mismatch:
            sid = self.sample[0]
            key = served[sid][0]
            served[sid][0] = (key[0], np.nextafter(key[1], 2.0)) + key[2:]
        bad_frames, bad_ids = checks.check_sample(
            self.study, self.traffic, served, monitor_factory, MAX_BUFFER_LENGTH
        )
        out = {
            "sample_streams": len(self.sample),
            "sample_frames": sum(len(v) for v in served.values()),
            "mismatched_frames": bad_frames,
            "mismatched_streams": bad_ids,
        }
        # Frames admission dropped from full deferral queues never get a result.
        self.failed += bad_frames + self.system.controller.stats.admission_overflow
        if self.workload.traffic == "steady":
            out["digest_ticks"] = self.digest.ticks
            out["digest"] = self.digest.hexdigest()
            if self.workload.shards:
                reference = self.reference_digest(self.digest.ticks)
                out["digest_reference"] = reference
                if reference != out["digest"]:
                    self.failed += self.digest.ticks * self.workload.streams
        return out

    def reference_digest(self, n_ticks: int) -> str:
        """The single-process engine's digest of the same first ticks."""
        from repro.serving.controller import ServingController

        digest = checks.Digest()
        with ServingController(PlainEngineFactory(self.study)(), owns_engine=True) as controller:
            for t in range(n_ticks):
                digest.update(controller.tick(self.traffic.frames(t)))
        return digest.hexdigest()

    # -- metrics --------------------------------------------------------
    def rss_bytes_per_stream(self) -> float:
        growth = sum(self.rss_peak[p] - self.rss_base[p] for p in self.rss_peak)
        return growth / max(1, self.peak_streams)

    def per_layer(self) -> dict:
        ms = 1e3
        b = layers.breakdown(self.traced_ticks)
        n_ticks = len(self.latencies)
        controller = self.system.controller
        # A metric whose layer is not on this workload's path reads 0.
        out = {m["name"]: 0.0 for m in metric_spec()["per_layer"]}
        out["controller.intake_ms"] = ms * b["controller.intake"]
        out["controller.admission_ms"] = ms * b["controller.admission"]
        out["controller.self_ms"] = ms * b["controller.self"]
        stats = controller.stats
        if stats.frames_submitted:
            out["controller.deferred_frac"] = stats.frames_deferred / stats.frames_submitted
        if self.workload.shards:
            out["cluster.validate_ms"] = ms * b["cluster.validate"]
            out["cluster.encode_cpu_ms"] = ms * statistics.fmean(self.encode_cpu)
            out["cluster.fanout_ms"] = ms * b["span.fanout"]
            out["cluster.shard_wait_ms"] = ms * b["span.shard_step"]
            out["cluster.merge_ms"] = ms * b["span.merge"]
            pool = self.pool_stats()
            hits = pool["hits"] - self.pool_before["hits"]
            misses = pool["misses"] - self.pool_before["misses"]
            out["wire.bytes_per_tick"] = (pool["bytes_copied"] - self.pool_before["bytes_copied"]) / n_ticks
            out["wire.pool_hit_frac"] = hits / (hits + misses) if hits + misses else 0.0
            for phase in ("recv", "decode", "step", "encode", "send"):
                out[f"worker.{phase}_ms"] = ms * statistics.fmean(w[phase] for w in self.worker)
        else:
            out["engine.step_ms"] = ms * b["span.step"]
            out["engine.validate_ms"] = ms * b["engine.validate"]
            out["engine.self_ms"] = ms * b["engine.self"]
            out["registry.acquire_ms"] = ms * b["registry.acquire"]
            out["registry.evict_ms"] = ms * b["registry.evict"]
            math = 0.0
            for span in layers.MATH_SPANS:
                out[span + "_ms"] = ms * b[span]
                math += b[span]
            out["engine.math_frac"] = math / b["span.step"] if b["span.step"] else 0.0
        after = self.lifecycle()
        out["registry.created_per_tick"] = (after["created"] - self.stats_before["created"]) / n_ticks
        out["registry.evicted_per_tick"] = (after["evicted"] - self.stats_before["evicted"]) / n_ticks
        if self.workload.snapshot_every:
            captures = [t["spans"]["snapshot"] for t in self.traced_ticks if "snapshot" in t["spans"]]
            out["state.capture_ms"] = ms * statistics.fmean(captures) if captures else 0.0
            family = self.system.metrics.snapshot().get("repro_snapshot_write_seconds")
            series = family["series"][0] if family and family["series"] else None
            if series and series["count"]:
                out["durability.write_ms"] = ms * series["sum"] / series["count"]
            out["durability.snapshots_dropped"] = float(stats.snapshots_dropped)
        out["gc.pause_ms_per_tick"] = ms * self.gc_meter.pause / n_ticks
        out["gc.gen2_per_tick"] = self.gc_meter.gen2 / n_ticks
        if self.lags:
            out["loadgen.lag_p95_ms"] = ms * percentile(self.lags, 95)
        traced = [w for w, f in zip(self.latencies, self.traced_flags) if f]
        plain = [w for w, f in zip(self.latencies, self.traced_flags) if not f]
        out["trace.overhead"] = statistics.median(traced) / statistics.median(plain)
        out["trace.unattributed_frac"] = b["unattributed_frac"]
        return out

    def extra(self) -> dict:
        stats = self.system.controller.stats
        return {
            "ticks": len(self.latencies),
            "offered": self.offered,
            "served": self.served,
            "failed": self.failed,
            "errors": self.errors[:20],
            "peak_streams": self.peak_streams,
            "frames_deferred": stats.frames_deferred,
            "admission_overflow": stats.admission_overflow,
            "backlog_at_end": self.system.controller.backlog,
            "snapshots_written": stats.snapshots_written,
            "snapshots_dropped": stats.snapshots_dropped,
            "latencies_ms": [1e3 * s for s in self.latencies],
            "lags_ms": [round(1e3 * s, 4) for s in self.lags],
        }

    def write_spans(self) -> None:
        path = self.rundir / "spans" / f"{self.args.workload}-seed{self.args.seed}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"columns": ["tick", "name", "start", "seconds"], "spans": self.all_spans}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-mismatch", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    run = Run(args)
    try:
        run.start_measuring()
        # Only the traced run hooks the collector; untraced runs measure
        # the program without any callback of the benchmark's.
        with run.gc_meter if args.trace else contextlib.nullcontext():
            measured = run.open_loop() if run.workload.open_loop else run.closed_loop()
        record = {"extra": run.extra()}
        record["per_layer"] = run.per_layer() if args.trace else None
    finally:
        run.system.close()
    record["checks"] = run.check()
    record["extra"].update(
        failed=run.failed, measured_s=measured, rss_bytes_per_stream=run.rss_bytes_per_stream()
    )
    record["setup_s"] = run.setup_s
    if args.trace:
        run.write_spans()
    shutil.rmtree(run.snapshot_dir, ignore_errors=True)
    Path(args.out).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
