"""A serving run that hangs forever, for the watchdog tests.

The stub engine forks a worker (as the pipe transport does) and sends it
each tick; the worker never replies, so ``ServingController.tick``
blocks in ``step_batch``.  Writes ``[own pid, worker pid]`` as JSON to
the path given as the first argument before it blocks.
"""

import json
import multiprocessing
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro.serving.controller import ServingController  # noqa: E402


def never_reply(conn) -> None:
    conn.recv()
    time.sleep(3600)


class NeverReplies:
    tick = 0

    def __init__(self) -> None:
        context = multiprocessing.get_context("fork")
        self.conn, child = context.Pipe()
        self.worker = context.Process(target=never_reply, args=(child,), daemon=True)
        self.worker.start()

    def step_batch(self, frames):
        self.conn.send(len(frames))
        return self.conn.recv()


if __name__ == "__main__":
    engine = NeverReplies()
    Path(sys.argv[1]).write_text(json.dumps([os.getpid(), engine.worker.pid]))
    ServingController(engine).tick([])
