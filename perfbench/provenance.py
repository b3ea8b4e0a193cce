"""Provenance fields of a benchmark record.

The field names follow ``benchmarks/_emit.bench_envelope`` (schema
version, git SHA, time, Python version, ``cpu_count``/``usable_cores``,
topology), plus the numpy version, the BLAS thread settings the program
ran with, the run's seed and the held-out seed reserved for validating a
claimed gain.
"""

from __future__ import annotations

import os
import platform
import subprocess
import time
from pathlib import Path

#: Version of the record layout written to ``.perfbench_runs/results``.
SCHEMA_VERSION = 1

#: Seed reserved for confirming a claimed gain.  Tune and develop on other
#: seeds; a claim must also hold on this one.
HELDOUT_SEED = 90210

#: Variables that size the BLAS thread pools; unset means the library's
#: default of one thread per core.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def git_sha() -> str | None:
    """HEAD of the checkout, or None outside a git repository."""
    root = Path(__file__).resolve().parents[1]
    if not (root / ".git").exists():
        return None  # do not let git search the directories above the checkout
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def envelope(workload: str, seed: int, *, transport: str, shards: int) -> dict:
    import numpy

    return {
        "schema_version": SCHEMA_VERSION,
        "benchmark": workload,
        "git_sha": git_sha(),
        "unix_time": time.time(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "usable_cores": usable_cores(),
        "transport": transport,
        "shards": shards,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
        "seed": seed,
        "heldout_seed": HELDOUT_SEED,
    }
