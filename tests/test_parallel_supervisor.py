"""Self-healing worker-pool tests: supervision, retry, quarantine.

The contract under test (docs/PARALLEL.md, failure-modes matrix): a
worker that crashes, is OOM-killed, or hangs mid-shard costs the run a
respawn and a retry — never the result.  A payload that kills workers
repeatedly is quarantined to an in-process execution, and when
respawning itself keeps failing the whole pool degrades to serial.
Every healed run must stay byte-identical to the serial baseline,
which ``chaos_probe``'s echo payloads and the HyFD acceptance test at
the bottom both check.
"""

import os

import pytest

import repro.parallel.pool as pool_mod
import repro.parallel.supervisor as supervisor_mod
from repro.discovery.hyfd import HyFD
from repro.discovery.hyfd import hyfd as hyfd_module
from repro.parallel import (
    WorkerCrashError,
    WorkerError,
    get_pool,
    reap_orphan_segments,
    shutdown_pool,
)
from repro.parallel.shm import SEGMENT_PREFIX, owned_segments
from repro.runtime.errors import InputError
from repro.runtime.faults import WORKER_FAULT_MODES, FaultPlan
from repro.runtime.governor import Budget, Governor, activate, checkpoint
from repro.verification.planted import plant_instance


@pytest.fixture(autouse=True)
def _clean_pool():
    yield
    shutdown_pool()


def _echoes(count):
    return [{"action": "echo", "value": index} for index in range(count)]


def _values(results):
    return [result["value"] for result in results]


class TestCrashRecovery:
    def test_transient_kill_respawns_and_retries(self, tmp_path):
        pool = get_pool(2)
        payloads = _echoes(4)
        payloads[1] = {
            "action": "kill",
            "value": 1,
            "marker": str(tmp_path / "kill-once"),
        }
        results = pool.map_tasks("chaos_probe", payloads)
        assert _values(results) == [0, 1, 2, 3]
        assert pool.stats.respawns >= 1
        assert pool.stats.retries >= 1
        assert pool.stats.quarantined == 0
        # The retry ran in a (respawned) worker, not the parent.
        assert results[1]["pid"] != os.getpid()

    def test_exit_status_recovery(self, tmp_path):
        # os._exit(137) — the OOM-killer's signature — instead of SIGKILL.
        pool = get_pool(2)
        payloads = _echoes(3)
        payloads[0] = {
            "action": "exit",
            "status": 137,
            "value": 0,
            "marker": str(tmp_path / "exit-once"),
        }
        results = pool.map_tasks("chaos_probe", payloads)
        assert _values(results) == [0, 1, 2]
        assert pool.stats.respawns >= 1

    def test_worker_dead_between_batches_is_reaped(self):
        pool = get_pool(2)
        results = pool.map_tasks("chaos_probe", _echoes(2))
        assert _values(results) == [0, 1]
        victim = pool._procs[0]
        victim.terminate()
        victim.join(5.0)
        results = pool.map_tasks("chaos_probe", _echoes(3))
        assert _values(results) == [0, 1, 2]
        assert all(worker.is_alive() for worker in pool._procs)

    def test_poison_shard_is_quarantined_in_process(self):
        # No marker: the payload kills every worker that touches it.
        pool = get_pool(2)
        payloads = _echoes(3)
        payloads[2] = {"action": "kill", "value": 2}
        results = pool.map_tasks("chaos_probe", payloads)
        assert _values(results) == [0, 1, 2]
        assert pool.stats.quarantined == 1
        assert pool.stats.in_process_tasks == 1
        # The quarantined execution ran in the parent process.
        assert results[2]["pid"] == os.getpid()
        assert not pool.disabled

    def test_strict_mode_raises_instead_of_retrying(self):
        pool = pool_mod.WorkerPool(2, strict=True)
        try:
            with pytest.raises(WorkerCrashError) as excinfo:
                pool.map_tasks("chaos_probe", [{"action": "kill", "value": 0}])
            assert excinfo.value.task_kind == "chaos_probe"
            assert excinfo.value.payload_index == 0
        finally:
            pool.close()


class TestHangDetection:
    def test_transient_hang_is_killed_and_retried(self, tmp_path, monkeypatch):
        monkeypatch.setattr(supervisor_mod, "HANG_TIMEOUT", 0.5)
        pool = get_pool(2)
        payloads = _echoes(3)
        payloads[1] = {
            "action": "hang",
            "value": 1,
            "marker": str(tmp_path / "hang-once"),
        }
        results = pool.map_tasks("chaos_probe", payloads)
        assert _values(results) == [0, 1, 2]
        assert pool.stats.heartbeat_misses >= 1
        assert pool.stats.respawns >= 1

    def test_poison_hang_is_quarantined(self, monkeypatch):
        monkeypatch.setattr(supervisor_mod, "HANG_TIMEOUT", 0.5)
        pool = get_pool(2)
        results = pool.map_tasks("chaos_probe", [{"action": "hang", "value": 9}])
        assert _values(results) == [9]
        assert pool.stats.quarantined == 1
        assert results[0]["pid"] == os.getpid()

    def test_hang_timeout_env_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_HANG_TIMEOUT", "12.5")
        assert supervisor_mod._hang_timeout_default() == 12.5
        monkeypatch.setenv("REPRO_HANG_TIMEOUT", "nope")
        with pytest.raises(InputError):
            supervisor_mod._hang_timeout_default()
        monkeypatch.setenv("REPRO_HANG_TIMEOUT", "0")
        with pytest.raises(InputError):
            supervisor_mod._hang_timeout_default()


class TestGracefulDegradation:
    def test_respawn_exhaustion_disables_pool(self, monkeypatch):
        monkeypatch.setattr(supervisor_mod, "RESPAWN_LIMIT", 0)
        pool = get_pool(2)
        payloads = _echoes(3)
        payloads[0] = {"action": "kill", "value": 0}
        results = pool.map_tasks("chaos_probe", payloads)
        assert _values(results) == [0, 1, 2]
        assert pool.disabled
        assert pool.stats.pool_disabled == 1
        # Later batches run serially in-process, still correct.
        probe = pool.map_tasks("pool_probe", [{"value": 7}])
        assert probe[0]["value"] == 7
        assert probe[0]["pid"] == os.getpid()
        assert probe[0]["in_worker"] is False

    def test_respawned_worker_still_refuses_nesting(self, tmp_path):
        pool = get_pool(2)
        payloads = [
            {
                "action": "kill",
                "value": 0,
                "marker": str(tmp_path / "nest-once"),
            }
        ]
        pool.map_tasks("chaos_probe", payloads)
        assert pool.stats.respawns >= 1
        probes = pool.map_tasks("pool_probe", [{"value": i} for i in range(4)])
        for probe in probes:
            assert probe["in_worker"] is True
            assert probe["resolved_workers"] == 1


class TestWorkerFaultPlans:
    def test_worker_mode_is_noop_in_parent(self):
        plan = FaultPlan(mode="worker_kill", at_tick=1)
        governor = Governor(Budget(check_interval=1), fault_plan=plan)
        with activate(governor):
            for _ in range(100):
                checkpoint("parent-stage")
        assert not plan.fired  # still alive, nothing fired

    @pytest.mark.parametrize("mode", WORKER_FAULT_MODES)
    def test_fault_fires_once_and_pool_heals(self, mode, monkeypatch):
        monkeypatch.setattr(supervisor_mod, "HANG_TIMEOUT", 0.75)
        plan = FaultPlan(mode=mode, at_tick=2)
        governor = Governor(Budget(check_interval=1), fault_plan=plan)
        pool = get_pool(2)
        payloads = [{"ticks": 5, "value": index} for index in range(4)]
        with activate(governor):
            results = pool.map_tasks("pool_probe", payloads)
        assert [result["value"] for result in results] == [0, 1, 2, 3]
        assert plan.fired
        assert plan.fired_at_stage == "worker"
        assert pool.stats.worker_faults_fired == 1
        assert pool.stats.respawns >= 1


class TestTracebackPreservation:
    def test_raw_error_surfaces_remote_traceback(self):
        pool = get_pool(2)
        with pytest.raises(WorkerError) as excinfo:
            pool.map_tasks(
                "chaos_probe",
                [{"action": "raise_value", "message": "broke remotely"}],
            )
        error = excinfo.value
        assert "chaos_probe" in str(error)
        assert error.remote_traceback is not None
        assert "ValueError" in error.remote_traceback
        assert "broke remotely" in error.remote_traceback
        assert error.__cause__ is not None
        assert "broke remotely" in str(error.__cause__)

    def test_taxonomy_errors_rethrow_with_chained_cause(self):
        pool = get_pool(2)
        with pytest.raises(InputError, match="bad shard input") as excinfo:
            pool.map_tasks(
                "chaos_probe",
                [{"action": "raise_input", "message": "bad shard input"}],
            )
        assert excinfo.value.__cause__ is not None
        assert "InputError" in str(excinfo.value.__cause__)


class TestSegmentReaper:
    def test_dead_owner_segments_are_reaped_live_ones_kept(self):
        from multiprocessing import shared_memory
        import subprocess
        import sys

        proc = subprocess.Popen([sys.executable, "-c", "pass"])
        proc.wait()
        dead_name = f"{SEGMENT_PREFIX}-{proc.pid}-deadbeef"
        orphan = shared_memory.SharedMemory(
            create=True, size=16, name=dead_name
        )
        orphan.close()
        live_name = f"{SEGMENT_PREFIX}-{os.getpid()}-cafe0001"
        live = shared_memory.SharedMemory(create=True, size=16, name=live_name)
        try:
            assert reap_orphan_segments() >= 1
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=dead_name)
            survivor = shared_memory.SharedMemory(name=live_name)
            survivor.close()
        finally:
            live.close()
            try:
                live.unlink()
            except FileNotFoundError:
                pass


def _shm_leftovers():
    prefix = f"{SEGMENT_PREFIX}-{os.getpid()}-"
    try:
        return [n for n in os.listdir("/dev/shm") if n.startswith(prefix)]
    except OSError:  # pragma: no cover - no scannable shm dir
        return []


class TestAcceptance:
    def test_hyfd_cover_identical_after_worker_kill_no_shm_leak(
        self, monkeypatch
    ):
        """A SIGKILLed worker mid-batch: identical cover, clean /dev/shm."""
        monkeypatch.setattr(hyfd_module, "ALL_PAIRS_BUDGET", 0)
        monkeypatch.setattr(pool_mod, "SERIAL_THRESHOLD", 0)
        instance = plant_instance(7, num_columns=6, num_rows=60).instance
        serial = HyFD().discover(instance)

        plan = FaultPlan(mode="worker_kill", at_tick=1)
        governor = Governor(Budget(check_interval=1), fault_plan=plan)
        algorithm = HyFD(workers=2)
        with activate(governor):
            healed = algorithm.discover(instance)
        assert list(serial.items()) == list(healed.items())
        assert plan.fired
        stats = algorithm.last_pool_stats
        assert stats is not None and stats.worker_faults_fired == 1
        shutdown_pool()
        assert not owned_segments()
        assert _shm_leftovers() == []

    def test_small_worker_fault_campaign_passes(self):
        from repro.verification.faults_campaign import run_fault_campaign

        report = run_fault_campaign(
            range(4), num_rows=25, max_columns=5, workers=2
        )
        assert report.ok, report.to_str()
        assert report.worker_faults >= 1
        assert report.respawns + report.quarantined >= 1
