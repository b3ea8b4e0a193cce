"""A hung run ends within its deadline, with nothing left running."""

import io
import json
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import run
import watchdog

STUB = Path(__file__).with_name("stub_hang.py")


def _gone(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


def test_supervise_kills_the_hung_child_and_its_worker(tmp_path):
    pids = tmp_path / "pids.json"
    started = time.monotonic()
    outcome = watchdog.supervise([sys.executable, str(STUB), str(pids)], started + 4.0)
    assert outcome.timed_out
    assert outcome.returncode is None
    assert time.monotonic() - started < 4.0 + 2.0
    parent, worker = json.loads(pids.read_text())
    assert _gone(parent)
    assert _gone(worker)


def test_clear_session_kills_processes_that_left_the_process_group(tmp_path):
    # A grandchild that moved to its own process group escapes killpg but
    # not the session sweep.
    script = (
        "import os, subprocess, sys, time\n"
        "p = subprocess.Popen([sys.executable, '-c', "
        "'import os, time; os.setpgid(0, 0); time.sleep(3600)'])\n"
        f"open({str(tmp_path / 'pid')!r}, 'w').write(str(p.pid))\n"
        "time.sleep(3600)\n"
    )
    outcome = watchdog.supervise([sys.executable, "-c", script], time.monotonic() + 2.0)
    assert outcome.timed_out
    assert outcome.leftovers == 1
    assert _gone(int((tmp_path / "pid").read_text()))


def test_forced_output_mismatch_fails_the_command(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    stdout = io.StringIO()
    with redirect_stdout(stdout):
        code = run.main(
            ["--workload", "engine-10k", "--seed", "1", "--seconds", "1", "--inject-mismatch"]
        )
    assert code == 1
    result = json.loads(stdout.getvalue().strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == run.PROCESSES  # one perturbed result per process


def test_hung_run_is_recorded_as_all_failed(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(run, "DEADLINE_S", 4.0)
    pids = tmp_path / "pids.json"
    monkeypatch.setattr(
        run, "child_argv", lambda args, seconds, out: [sys.executable, str(STUB), str(pids)]
    )
    stdout = io.StringIO()
    started = time.monotonic()
    with redirect_stdout(stdout):
        code = run.main(["--workload", "engine-10k", "--seed", "1", "--seconds", "1"])
    assert time.monotonic() - started < 4.0 + 3.0
    assert code == 3
    result = json.loads(stdout.getvalue().strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["served_frac"]["value"] == 0.0
    (record,) = (tmp_path / ".perfbench_runs" / "results").glob("*.json")
    assert json.loads(record.read_text())["e2e"]["failed_frac"] == 1.0
    for pid in json.loads(pids.read_text()):
        assert _gone(pid)
