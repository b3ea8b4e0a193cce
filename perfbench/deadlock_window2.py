"""Reproducer: ``inflight_window=2`` over 2 pipe shards deadlocks at 10k streams.

    python3 perfbench/deadlock_window2.py

Runs :data:`TICKS` ticks of the ``pipe2-10k`` traffic through
``ShardedEngine(transport="pipe", n_shards=2, inflight_window=2)`` under
the benchmark's watchdog.  With a
window of 2 the parent sends tick t+1 before reading tick t's replies;
each worker then blocks writing a reply larger than the pipe buffer
while the parent blocks in ``PipeChannel.send_frame`` writing the next
request.  Prints ``DEADLOCK`` (exit 1) when the watchdog has to kill the
run after :data:`DEADLINE_S`, ``completed`` (exit 0) when every tick
finishes.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

STREAMS = 10_000
TICKS = 20
DEADLINE_S = 60.0


def serve() -> None:
    import numpy as np

    import traffic
    from repro.evaluation import StudyConfig, prepare_study_data
    from repro.serving.cluster import ShardedEngine
    from repro.serving.controller import ServingController
    from workloads import PlainEngineFactory

    study = prepare_study_data(StudyConfig.smoke_scale())
    rng = np.random.default_rng(1)
    schedule = traffic.closed_loop(traffic.build_pool(study.feature_model, rng), STREAMS, TICKS, rng)
    engine = ShardedEngine(PlainEngineFactory(study), n_shards=2, transport="pipe", inflight_window=2)
    with ServingController(engine, owns_engine=True) as controller:
        controller.run(schedule.frames(t) for t in range(TICKS))
    print(f"completed {TICKS} ticks", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--serve", action="store_true", help=argparse.SUPPRESS)
    if parser.parse_args().serve:
        serve()
        return 0

    import watchdog

    watchdog.become_subreaper()
    outcome = watchdog.supervise([sys.executable, __file__, "--serve"], time.monotonic() + DEADLINE_S)
    if outcome.timed_out:
        print(f"DEADLOCK: killed after {outcome.seconds:.1f} s ({outcome.leftovers} leftover processes)")
        return 1
    print("completed" if outcome.returncode == 0 else f"failed with exit code {outcome.returncode}")
    return 0 if outcome.returncode == 0 else 2


if __name__ == "__main__":
    sys.exit(main())
