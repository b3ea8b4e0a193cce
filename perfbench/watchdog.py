"""Run a child process under a wall-clock deadline, leaving nothing behind.

The child is started as the leader of a new session.  Every process it
forks (the pipe transport's shard workers, for one) inherits that
session, so on expiry one ``killpg`` stops the whole tree, and a final
sweep of ``/proc`` kills anything that left the process group but not
the session.  The supervisor registers itself as a child subreaper, so
orphaned grandchildren are re-parented to it and it can reap them
instead of leaving zombies.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import time
from dataclasses import dataclass

_PR_SET_CHILD_SUBREAPER = 36


@dataclass
class Outcome:
    returncode: int | None
    timed_out: bool
    seconds: float
    leftovers: int  # session members still alive after the child ended


def become_subreaper() -> None:
    """Adopt orphaned descendants (Linux); a no-op elsewhere."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def session_members(sid: int) -> list[int]:
    """Live (non-zombie) processes of session ``sid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        state, session = fields[0], int(fields[3])
        if session == sid and state != "Z":
            members.append(int(entry))
    return members


def _reap_zombies() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def clear_session(sid: int, timeout: float = 10.0) -> int:
    """SIGKILL every process left in session ``sid`` and wait until they
    are gone; returns how many were found."""
    found = set()
    end = time.monotonic() + timeout
    while True:
        members = session_members(sid)
        if not members:
            break
        found.update(members)
        for pid in members:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        _reap_zombies()
        if time.monotonic() > end:
            raise RuntimeError(f"processes {members} survived SIGKILL")
        time.sleep(0.02)
    _reap_zombies()
    return len(found)


def supervise(argv: list[str], deadline: float, env: dict | None = None) -> Outcome:
    """Run ``argv`` until it exits or ``time.monotonic()`` passes
    ``deadline``; its stdout and stderr go to this process's stderr."""
    started = time.monotonic()
    child = subprocess.Popen(argv, stdout=2, stderr=2, start_new_session=True, env=env)
    timed_out = False
    try:
        returncode = child.wait(timeout=max(0.0, deadline - started))
    except subprocess.TimeoutExpired:
        timed_out = True
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
        returncode = None
    leftovers = clear_session(child.pid)
    return Outcome(returncode, timed_out, time.monotonic() - started, leftovers)
