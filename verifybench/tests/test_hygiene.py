"""No process the benchmark starts outlives it, finished or interrupted.

Each run is started in a new session, so every process it spawns
(server workers, multiprocessing's resource tracker) shares its process
group; after the command returns, no live process may be left in it.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "verifybench", "run.py")


def _group_members(pgid: int) -> list[int]:
    """Live (non-zombie) processes whose process group is ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                stat = handle.read()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        state, group = fields[0], int(fields[2])
        if group == pgid and state != "Z":
            members.append(int(entry))
    return members


def _start(*args: str, cwd: str = ROOT, script: str = RUN) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, script, *args],
        cwd=cwd, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def _assert_no_survivors(proc: subprocess.Popen) -> None:
    survivors = _group_members(proc.pid)
    for pid in survivors:  # do not leak them into the next test
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    assert survivors == [], f"processes left running: {survivors}"


def test_short_serve_run_leaves_no_process():
    proc = _start("--workload", "serve-mixed", "--seed", "3", "--seconds", "1", "--trace", "0")
    out, err = proc.communicate(timeout=170)
    _assert_no_survivors(proc)
    assert proc.returncode == 0, err
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
def test_interrupted_serve_run_leaves_no_process(signum):
    proc = _start("--workload", "serve-mixed", "--seed", "4", "--seconds", "2", "--trace", "0")
    timed = threading.Event()
    errors: list[str] = []

    def read_stderr() -> None:
        for line in proc.stderr:
            errors.append(line)
            if "timed phase" in line:
                timed.set()

    reader = threading.Thread(target=read_stderr, daemon=True)
    reader.start()
    try:
        assert timed.wait(timeout=120), "".join(errors)
        time.sleep(0.3)  # mid-request: every request takes tens of milliseconds
        proc.send_signal(signum)
        out = proc.stdout.read()
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    reader.join(timeout=10)
    _assert_no_survivors(proc)
    assert proc.returncode == 130, "".join(errors)
    assert '"correct"' not in out  # an interrupted run prints no result


def test_benchmark_alone_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "verifybench"), tmp_path / "verifybench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = _start("--workload", "explore-budget", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=str(tmp_path),
                  script=str(tmp_path / "verifybench" / "run.py"))
    out, _ = proc.communicate(timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in out
