"""The serving benchmark: one named workload, one seed, every metric.

    python3 perfbench/run.py --workload engine-10k --seed 1 --seconds 20 --trace 0

Prints each metric as ``name value unit`` and, as the last line of
standard output, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate
traced run.  The run's full record (provenance, raw latencies, checks,
per-layer breakdown) is kept under ``.perfbench_runs/results/`` for
``perfbench/compare.py``.

Every run has a wall-clock deadline (:data:`DEADLINE_S`).  A run that
misses it -- a deadlocked cluster, for one -- is killed together with
every process it forked and recorded with ``failed_frac`` = 1.
Exit codes: 0 correct, 1 output check failed, 2 the run crashed (no
result printed), 3 deadline expired.  See ``NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import provenance  # noqa: E402
import watchdog  # noqa: E402
from workloads import WORKLOADS, metric_spec  # noqa: E402

#: Whole-run deadline: every process's set-up, measurement and checks.
DEADLINE_S = 150.0
#: Fresh processes of an untraced run.  Each sets the program up from
#: scratch, measures its share of ``--seconds`` and checks its outputs;
#: their ticks are pooled.  One process's luck (its memory layout, where
#: the collector's full passes fall) then moves the figures a third as
#: much, and ``setup_s`` is the median of several set-ups.
PROCESSES = 3


def run_dir() -> Path:
    path = Path.cwd() / ".perfbench_runs"
    path.mkdir(exist_ok=True)
    return path


def child_argv(args, seconds: float, out: Path) -> list[str]:
    argv = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(seconds),
        "--trace", str(args.trace),
        "--out", str(out),
    ]
    if args.inject_mismatch:
        argv.append("--inject-mismatch")
    return argv


def run_child(args, seconds: float, deadline: float):
    """(record or None, watchdog outcome) of one child process.

    The child inherits this process's environment unchanged, so the
    program runs with its shipped BLAS thread pool."""
    out = run_dir() / f"child-{os.getpid()}-{time.monotonic_ns()}.json"
    outcome = watchdog.supervise(child_argv(args, seconds, out), deadline)
    record = None
    if outcome.returncode == 0 and out.exists():
        record = json.loads(out.read_text())
    out.unlink(missing_ok=True)
    return record, outcome


def hung_record(outcome) -> dict:
    """A run the watchdog killed: every offered frame counts as failed."""
    return {
        "e2e": {
            "frames_per_s": 0.0,
            "tick_p50_ms": 1e3 * DEADLINE_S,
            "tick_p95_ms": 1e3 * DEADLINE_S,
            "served_frac": 0.0,
            "failed_frac": 1.0,
            "rss_bytes_per_stream": 0.0,
            "setup_s": 0.0,
        },
        "extra": {"offered": 1, "failed": 1, "errors": ["deadline expired"]},
        "per_layer": None,
        "watchdog": {"killed_after_s": outcome.seconds, "leftovers": outcome.leftovers},
    }


def pooled(records: list[dict]) -> dict:
    """One run's record from its processes' records: ticks and frames
    pooled, memory and set-up time as medians."""
    extras = [r["extra"] for r in records]
    latencies = [ms for x in extras for ms in x["latencies_ms"]]
    totals = {key: sum(x[key] for x in extras) for key in ("offered", "served", "failed", "measured_s")}
    failed_frac = totals["failed"] / totals["offered"] if totals["offered"] else 1.0
    p95 = statistics.quantiles(latencies, n=20, method="inclusive")[18] if len(latencies) > 1 else sum(latencies)
    e2e = {
        "frames_per_s": totals["served"] / totals["measured_s"] if totals["measured_s"] else 0.0,
        "tick_p50_ms": statistics.median(latencies) if latencies else 0.0,
        "tick_p95_ms": p95,
        "served_frac": 1.0 - failed_frac,
        "failed_frac": failed_frac,
        "rss_bytes_per_stream": statistics.median(x["rss_bytes_per_stream"] for x in extras),
        "setup_s": statistics.median(r["setup_s"] for r in records),
    }
    return {
        "e2e": e2e,
        "extra": {"ticks": len(latencies), **totals},
        "per_layer": records[0]["per_layer"] if len(records) == 1 else None,
        "processes": records,
    }


def measure(args, deadline: float) -> tuple[dict | None, int]:
    """The run's record and exit code (record None: crashed).  A traced
    run is one process: its per-layer figures describe one program."""
    n = 1 if args.trace else PROCESSES
    records, leftovers = [], 0
    for _ in range(n):
        record, outcome = run_child(args, args.seconds / n, deadline)
        if outcome.timed_out:
            return hung_record(outcome), 3
        if record is None:
            return None, 2
        records.append(record)
        leftovers += outcome.leftovers
    run = pooled(records)
    run["watchdog"] = {"leftovers": leftovers}
    correct = run["extra"]["failed"] == 0 and leftovers == 0
    return run, 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--inject-mismatch",
        action="store_true",
        help="perturb one served result before the output check (self-test: "
        "the run must fail)",
    )
    args = parser.parse_args(argv)
    if not (HERE.parent / "src" / "repro").is_dir():
        print("error: the program's sources (src/repro) are not here", file=sys.stderr)
        return 2

    watchdog.become_subreaper()
    deadline = time.monotonic() + DEADLINE_S
    record, code = measure(args, deadline)
    if record is None:
        print("error: the run crashed; no result", file=sys.stderr)
        return 2

    record.update(
        provenance.envelope(
            args.workload, args.seed, transport="pipe" if WORKLOADS[args.workload].shards else "single",
            shards=WORKLOADS[args.workload].shards or 1,
        )
    )
    record.update(
        workload=args.workload,
        seconds=args.seconds,
        trace=args.trace,
        correct=code == 0,
        inject_mismatch=args.inject_mismatch,
    )
    results = run_dir() / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    (results / name).write_text(json.dumps(record, indent=1))

    spec = metric_spec()
    if args.trace and record.get("per_layer") is not None:
        values, declared = record["per_layer"], spec["per_layer"]
    else:
        values, declared = record["e2e"], spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for metric, entry in metrics.items():
        print(f"{metric} {entry['value']:.6g} {entry['unit']}")
    extra = record["extra"]
    print(
        json.dumps(
            {
                "correct": code == 0,
                "attempted": max(1, int(extra["offered"])),
                "failed": int(extra["failed"]),
                "metrics": metrics,
            }
        )
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
