"""Signal handling and structured exit codes at the CLI boundary.

The contract (docs/ROBUSTNESS.md): SIGINT exits 130 and SIGTERM exits
143 after a graceful teardown (pool down, shared memory unlinked), a
closed standard output exits 141 without a traceback, and an
unrecovered worker crash in strict pool mode maps to exit 5.  The
long-running ``repro watch`` loop is driven as a real subprocess and
signalled from outside — the only honest way to test a signal path.
"""

import importlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_INTERRUPTED,
    EXIT_TERMINATED,
    EXIT_WORKER_CRASH,
    main,
)
from repro.io.csv_io import write_csv
from repro.model.instance import RelationInstance
from repro.model.schema import Relation
from repro.runtime.errors import WorkerCrashError

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture()
def emp_csv(tmp_path):
    instance = RelationInstance(
        Relation("emp", ("emp", "dept", "dname", "loc")),
        [
            ["e1", "e2", "e3", "e4", "e5"],
            ["d1", "d1", "d2", "d2", "d3"],
            ["Sales", "Sales", "Eng", "Eng", "HR"],
            ["NY", "NY", "SF", "SF", "NY"],
        ],
    )
    path = tmp_path / "emp.csv"
    write_csv(instance, path)
    return path


@pytest.fixture()
def changes_json(tmp_path):
    path = tmp_path / "changes.json"
    path.write_text(
        json.dumps(
            {
                "format": "repro/changelog",
                "version": 1,
                "batches": [
                    {
                        "relation": "emp",
                        "inserts": [["e6", "d4", "Ops", "LA"]],
                        "deletes": [],
                    }
                ],
            }
        )
    )
    return path


def _spawn_watch(emp_csv, changes_json):
    env = dict(os.environ, PYTHONPATH=REPO_SRC, PYTHONUNBUFFERED="1")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "watch",
            str(emp_csv),
            "--changes",
            str(changes_json),
            "--interval",
            "30",
            "--report",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )
    # Wait for the first batch report — the loop is then parked in its
    # sleep, the steady state a signal would interrupt in production.
    assert proc.stdout is not None
    line = proc.stdout.readline()
    assert line, "watch produced no output before the signal"
    return proc


@pytest.mark.parametrize(
    ("signum", "expected"),
    [(signal.SIGINT, EXIT_INTERRUPTED), (signal.SIGTERM, EXIT_TERMINATED)],
)
def test_watch_signal_exit_codes(emp_csv, changes_json, signum, expected):
    proc = _spawn_watch(emp_csv, changes_json)
    try:
        time.sleep(0.3)  # let the loop reach its sleep
        proc.send_signal(signum)
        code = proc.wait(timeout=20)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert code == expected


def _children(pid: int) -> list[str]:
    with open(f"/proc/{pid}/task/{pid}/children") as fh:
        return fh.read().split()


@pytest.mark.skipif(
    not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"),
    reason="needs /proc/<pid>/task/<pid>/children to see the pool start",
)
def test_ctrl_c_stops_a_pooled_run_without_tracebacks():
    # A terminal's Ctrl-C signals the whole foreground process group,
    # pool workers included; only the parent may react to it.
    # A child of a background job starts with SIGINT ignored, so the
    # launcher restores the handler a terminal session would give it.
    launcher = (
        "import signal, sys; "
        "signal.signal(signal.SIGINT, signal.default_int_handler); "
        "from repro.cli import main; sys.exit(main())"
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", launcher, "verify", "--seeds", "20",
         "--workers", "2"],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=REPO_SRC),
        text=True,
        start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 60
        while len(_children(proc.pid)) < 2:  # both workers are forked
            assert proc.poll() is None, "the run ended before its pool started"
            assert time.monotonic() < deadline, "the pool never started"
            time.sleep(0.005)
        os.killpg(proc.pid, signal.SIGINT)
        _, stderr = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode == EXIT_INTERRUPTED, stderr
    assert "interrupted" in stderr
    assert "Traceback" not in stderr


def _running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie awaiting its reaper."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rpartition(")")[2].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state != "Z"


#: seconds the workers of a SIGKILLed parent may outlive it: an idle
#: worker checks its parent every ``pool.PARENT_CHECK_SECONDS`` (1 s), a
#: busy one at each governor probe
ORPHAN_EXIT_BOUND = 10.0


@pytest.mark.skipif(
    not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"),
    reason="needs /proc/<pid>/task/<pid>/children to see the pool start",
)
def test_sigkilled_parent_leaves_no_workers():
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "verify", "--seeds", "40",
         "--workers", "2"],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=dict(os.environ, PYTHONPATH=REPO_SRC),
        start_new_session=True,
    )
    workers: list[int] = []
    try:
        deadline = time.monotonic() + 60
        while len(workers) < 2:
            assert proc.poll() is None, "the run ended before its pool started"
            assert time.monotonic() < deadline, "the pool never started"
            workers = [int(pid) for pid in _children(proc.pid)]
            time.sleep(0.005)
        proc.kill()
        proc.wait(timeout=10)
        deadline = time.monotonic() + ORPHAN_EXIT_BOUND
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        survivors = [pid for pid in workers if _running(pid)]
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        if proc.poll() is None:
            proc.wait()
    assert survivors == [], f"orphaned workers outlived their parent: {survivors}"


def test_closed_stdout_maps_to_141(emp_csv):
    # Like `repro emp.csv --profile | head -1` when head exits before
    # the rest of the profile is written: the reader is already gone.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "repro", str(emp_csv), "--profile"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=REPO_SRC),
            text=True,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_BROKEN_PIPE
    assert proc.stderr == ""


def test_keyboard_interrupt_maps_to_130(emp_csv, monkeypatch, capsys):
    normalize_mod = importlib.import_module("repro.core.normalize")

    def _interrupt(self, *args, **kwargs):
        raise KeyboardInterrupt()

    monkeypatch.setattr(normalize_mod.Normalizer, "run", _interrupt)
    assert main([str(emp_csv)]) == EXIT_INTERRUPTED
    assert "interrupted" in capsys.readouterr().err


def test_worker_crash_maps_to_5(emp_csv, monkeypatch, capsys):
    normalize_mod = importlib.import_module("repro.core.normalize")

    def _crash(self, *args, **kwargs):
        raise WorkerCrashError("worker task 'hyfd_validate' crashed")

    monkeypatch.setattr(normalize_mod.Normalizer, "run", _crash)
    assert main([str(emp_csv)]) == EXIT_WORKER_CRASH
    assert "hyfd_validate" in capsys.readouterr().err


def test_sigterm_handler_is_restored(emp_csv, monkeypatch):
    previous = signal.getsignal(signal.SIGTERM)
    normalize_mod = importlib.import_module("repro.core.normalize")

    def _interrupt(self, *args, **kwargs):
        raise KeyboardInterrupt()

    monkeypatch.setattr(normalize_mod.Normalizer, "run", _interrupt)
    main([str(emp_csv)])
    assert signal.getsignal(signal.SIGTERM) is previous
