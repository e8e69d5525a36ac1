"""Unit tests for the process-pool backend and shared-memory export.

Everything here exercises the machinery of ``repro.parallel`` in
isolation: worker resolution, the cost model, zero-copy export/attach
round trips, order-preserving dispatch, budget propagation into
workers, error surfacing, and the fork-hygiene resets.  The
byte-identity of whole algorithm runs lives in
``test_parallel_determinism.py``.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro.parallel.pool as pool_mod
from repro.model.instance import RelationInstance
from repro.model.schema import Relation
from repro.parallel import (
    MAX_WORKERS,
    PoolStats,
    RelationRun,
    WorkerError,
    attach_encoding,
    export_encoding,
    get_pool,
    resolve_workers,
    should_parallelize,
    shutdown_pool,
    split_ranges,
)
from repro.runtime.errors import BudgetExceeded, InputError
from repro.runtime.governor import Budget, Governor, activate
from repro.structures import partitions as partitions_module
from repro.verification.planted import plant_instance


SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(autouse=True)
def _clean_pool():
    yield
    shutdown_pool()


class TestResolveWorkers:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers() == 1
        assert resolve_workers(None) == 1

    def test_explicit_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "8")
        assert resolve_workers(2) == 2

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers() == 3

    def test_env_must_be_integer(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(InputError):
            resolve_workers()

    def test_below_one_rejected(self):
        with pytest.raises(InputError):
            resolve_workers(0)

    def test_capped_at_max(self):
        assert resolve_workers(10_000) == MAX_WORKERS

    def test_inside_worker_always_serial(self, monkeypatch):
        monkeypatch.setattr(pool_mod, "_IN_WORKER", True)
        assert resolve_workers(8) == 1


class TestCostModel:
    def test_threshold_gates_dispatch(self, monkeypatch):
        monkeypatch.setattr(pool_mod, "SERIAL_THRESHOLD", 100)
        assert not should_parallelize(99, 2)
        assert should_parallelize(100, 2)

    def test_single_worker_never_parallel(self):
        assert not should_parallelize(10**9, 1)

    def test_relation_run_counts_fallbacks(self, monkeypatch):
        monkeypatch.setattr(pool_mod, "SERIAL_THRESHOLD", 100)
        run = RelationRun(2)
        try:
            assert not run.should(1)
            assert run.should(1_000_000)
        finally:
            run.close()
        assert run.stats.serial_fallbacks == 1


class TestSplitRanges:
    def test_empty(self):
        assert split_ranges(0, 4) == []
        assert split_ranges(-3, 4) == []

    def test_fewer_items_than_parts(self):
        assert split_ranges(2, 8) == [(0, 1), (1, 2)]

    def test_even_and_remainder(self):
        assert split_ranges(10, 2) == [(0, 5), (5, 10)]
        assert split_ranges(10, 3) == [(0, 4), (4, 7), (7, 10)]

    def test_contiguous_cover(self):
        for count in (1, 7, 23, 100):
            for parts in (1, 2, 5, 9):
                ranges = split_ranges(count, parts)
                assert ranges[0][0] == 0
                assert ranges[-1][1] == count
                for (_, stop), (start, _) in zip(ranges, ranges[1:]):
                    assert stop == start


class TestSharedMemoryRoundTrip:
    def test_roundtrip_preserves_codes(self):
        instance = plant_instance(5, num_columns=4, num_rows=30).instance
        encoding = instance.encoded(True)
        shared = export_encoding(encoding)
        attached = None
        try:
            attached, shm = attach_encoding(shared.handle)
            assert attached.num_rows == encoding.num_rows
            assert attached.arity == encoding.arity
            for mine, theirs in zip(encoding.codes, attached.codes):
                assert list(mine) == list(theirs)
            assert attached.cardinalities == list(encoding.cardinalities)
            assert attached.null_codes == list(encoding.null_codes)
        finally:
            if attached is not None:
                for codes in attached.codes:
                    codes.release()
                shm.close()
            shared.close()

    def test_agree_sets_match_through_shm(self):
        instance = plant_instance(9, num_columns=5, num_rows=25).instance
        encoding = instance.encoded(True)
        shared = export_encoding(encoding)
        try:
            attached, shm = attach_encoding(shared.handle)
            try:
                for left, right in ((0, 1), (3, 17), (24, 2)):
                    assert encoding.agree_set(left, right) == attached.agree_set(
                        left, right
                    )
            finally:
                for codes in attached.codes:
                    codes.release()
                shm.close()
        finally:
            shared.close()

    def test_empty_relation(self):
        instance = RelationInstance.from_rows(Relation("e", ("a", "b")), [])
        encoding = instance.encoded(True)
        shared = export_encoding(encoding)
        try:
            attached, shm = attach_encoding(shared.handle)
            assert attached.num_rows == 0
            assert len(attached.codes) == 2
            shm.close()
        finally:
            shared.close()

    def test_close_is_idempotent(self):
        instance = plant_instance(1, num_columns=3, num_rows=10).instance
        shared = export_encoding(instance.encoded(True))
        shared.close()
        shared.close()  # no FileNotFoundError / double unlink


class TestDispatch:
    def test_results_come_back_in_payload_order(self):
        pool = get_pool(2)
        results = pool.map_tasks("pool_probe", [{"value": i} for i in range(6)])
        # Each probe echoes its payload's value, tagging which payload
        # produced the result at each position.
        assert [result["value"] for result in results] == list(range(6))
        assert all(result["in_worker"] for result in results)
        assert pool.stats.tasks_dispatched == 6
        assert pool.stats.batches == 1

    def test_worker_error_is_surfaced_with_traceback(self):
        pool = get_pool(2)
        with pytest.raises(WorkerError, match="chaos_probe") as excinfo:
            pool.map_tasks(
                "chaos_probe", [{"action": "raise_value", "message": "boom"}]
            )
        assert "ValueError: boom" in excinfo.value.remote_traceback

    def test_pool_recreated_on_size_change(self):
        first = get_pool(2)
        again = get_pool(2)
        assert first is again
        resized = get_pool(3)
        assert resized is not first
        assert resized.workers == 3

    def test_dead_worker_is_reaped(self):
        pool = get_pool(2)
        pool.ensure_started()
        victim = pool._procs[0]
        victim.terminate()
        victim.join(5.0)
        results = pool.map_tasks("pool_probe", [{"value": 1}])
        assert results[0]["value"] == 1
        assert all(worker.is_alive() for worker in pool._procs)


class TestBudgetPropagation:
    def test_deadline_breach_raises_budget_exceeded(self):
        # check_interval=1 makes the worker's very first cooperative
        # checkpoint probe the (already expired) propagated deadline.
        governor = Governor(Budget(deadline_seconds=1e-9, check_interval=1))
        pool = get_pool(2)
        with activate(governor):
            with pytest.raises(BudgetExceeded):
                pool.map_tasks("pool_probe", [{"value": 1}], stage="test")

    def test_worker_candidates_fold_into_parent(self):
        # A worker's checkpoints (its candidate work: partition builds,
        # lattice nodes) tick its own governor; the batch merge folds
        # those ticks into the parent's, which also ticks while it waits.
        governor = Governor(Budget())
        pool = get_pool(2)
        with activate(governor):
            results = pool.map_tasks(
                "pool_probe", [{"ticks": 1000}, {"ticks": 1000}], stage="test"
            )
        assert all(result["in_worker"] for result in results)
        assert governor.ticks >= 2000


class TestStats:
    def test_as_dict_prefixes_and_units(self):
        stats = PoolStats(
            workers=4,
            batches=2,
            tasks_dispatched=8,
            serial_fallbacks=1,
            attach_seconds=0.002,
            export_seconds=0.001,
            largest_shard=5,
            shard_items=20,
        )
        as_dict = stats.as_dict()
        assert as_dict["pool_workers"] == 4
        assert as_dict["pool_tasks"] == 8
        assert as_dict["pool_serial_fallbacks"] == 1
        assert as_dict["pool_attach_us"] == 2000
        assert as_dict["pool_export_us"] == 1000
        assert all(key.startswith("pool_") for key in as_dict)

    def test_delta_since(self):
        before = PoolStats(workers=2, batches=3, tasks_dispatched=10)
        after = PoolStats(workers=2, batches=5, tasks_dispatched=16)
        delta = after.delta_since(before)
        assert delta.batches == 2
        assert delta.tasks_dispatched == 6

    def test_profile_surfaces_pool_counters(self, monkeypatch):
        from repro.discovery.hyfd import hyfd as hyfd_module

        monkeypatch.setattr(hyfd_module, "ALL_PAIRS_BUDGET", 0)
        monkeypatch.setattr(pool_mod, "SERIAL_THRESHOLD", 0)
        from repro.profiling import profile

        instance = plant_instance(3, num_columns=5, num_rows=40).instance
        report = profile(instance, workers=2)
        assert report.counters.get("pool_workers") == 2
        assert report.counters.get("pool_tasks", 0) > 0


_SIGTERM_PROBE = """
import os, signal
from repro import cli
from repro.parallel import get_pool, shutdown_pool

def on_sigterm(signum, frame):  # what cli.main installs
    raise cli._Terminated()

signal.signal(signal.SIGTERM, on_sigterm)
pool = get_pool(2)
pool.map_tasks("pool_probe", [{"value": 0}])
victim = pool._procs[0]
os.kill(victim.pid, signal.SIGTERM)
victim.join(30)
print(victim.exitcode)
shutdown_pool()
"""


class TestForkHygiene:
    def test_reset_process_state_clears_probe_buffers(self):
        from repro.kernels import pybackend

        pybackend._PROBE_BUFFER.extend([1, 2, 3])
        pybackend._NEG_ONES.extend([-1, -1])
        partitions_module.reset_process_state()
        assert len(pybackend._PROBE_BUFFER) == 0
        assert len(pybackend._NEG_ONES) == 0
        # Partition operations rebuild the scratch space on demand.
        instance = plant_instance(2, num_columns=3, num_rows=12).instance
        encoding = instance.encoded(True)
        from repro.structures.partitions import StrippedPartition

        partition = StrippedPartition.from_value_ids(
            encoding.codes[0], encoding.null_codes[0]
        )
        partition.intersect_ids(encoding.codes[1])  # must not crash

    def test_reset_worker_state_clears_run_owned_globals(self, monkeypatch):
        from repro.parallel import tasks as tasks_module
        from repro.runtime import governor as governor_module

        monkeypatch.setattr(governor_module, "_ACTIVE", object())
        monkeypatch.setattr(pool_mod, "_IN_WORKER", False)
        monkeypatch.setattr(pool_mod, "_POOL", object())
        signals = (signal.SIGTERM, signal.SIGINT)
        handlers = {sig: signal.getsignal(sig) for sig in signals}
        try:
            pool_mod._reset_worker_state()
            assert signal.getsignal(signal.SIGTERM) is signal.SIG_DFL
            assert signal.getsignal(signal.SIGINT) is signal.SIG_IGN
        finally:
            for sig, previous in handlers.items():
                signal.signal(sig, previous)
        assert governor_module._ACTIVE is None
        assert pool_mod._IN_WORKER is True
        assert pool_mod._POOL is None
        assert tasks_module._ATTACHMENTS == {}
        assert tasks_module._ATTACH_SECONDS == 0.0

    def test_sigterm_ends_a_worker_without_traceback(self):
        # Forked while the CLI's SIGTERM handler is installed, a worker
        # must still die by the signal, not raise the CLI's exception.
        proc = subprocess.run(
            [sys.executable, "-c", _SIGTERM_PROBE],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == [str(-signal.SIGTERM)]
        assert "Traceback" not in proc.stderr

    def test_workers_env_roundtrip(self, monkeypatch):
        # REPRO_WORKERS drives normalize() without an explicit kwarg.
        monkeypatch.setenv("REPRO_WORKERS", "2")
        from repro.core.normalize import Normalizer

        assert Normalizer().workers == 2
        monkeypatch.delenv("REPRO_WORKERS")
        assert Normalizer().workers == 1
        assert "REPRO_WORKERS" not in os.environ


class TestPoolLifecycle:
    def test_atexit_hook_registered_once(self, monkeypatch):
        registered = []
        monkeypatch.setattr(pool_mod.atexit, "register", registered.append)
        monkeypatch.setattr(pool_mod, "_SHUTDOWN_AT_EXIT", False)
        for workers in (2, 3, 2, 3):  # each size change builds a new pool
            get_pool(workers)
        assert registered.count(shutdown_pool) == 1

    def test_exit_stops_workers_before_multiprocessing_does(self):
        # At exit the pool must stop its workers with sentinels before
        # multiprocessing's own hook SIGTERMs them, and the run must end
        # cleanly either way.
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "verify", "--seeds", "4",
             "--workers", "2"],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr

    def test_restart_after_shutdown(self):
        payloads = [{"value": 1}]
        first = get_pool(2)
        assert first.map_tasks("pool_probe", payloads)[0]["value"] == 1
        shutdown_pool()
        second = get_pool(2)
        assert second is not first
        assert second.map_tasks("pool_probe", payloads)[0]["value"] == 1

    def test_no_shm_leak_across_epochs(self, monkeypatch):
        from repro.parallel.shm import owned_segments

        monkeypatch.setattr(pool_mod, "SERIAL_THRESHOLD", 0)
        instance = plant_instance(5, num_columns=5, num_rows=40).instance
        encoding = instance.encoded(True)
        for _ in range(3):
            with RelationRun(2, encoding) as run:
                run.map(
                    "hyfd_validate",
                    [{"handle": run.handle, "items": [(0b1, [1])]}],
                    stage="test",
                )
            assert not owned_segments()
        prefix = f"repro-shm-{os.getpid()}-"
        try:
            leftovers = [
                name
                for name in os.listdir("/dev/shm")
                if name.startswith(prefix)
            ]
        except OSError:
            leftovers = []
        assert leftovers == []

    def test_closed_pool_refuses_dispatch(self):
        pool = get_pool(2)
        pool.close()
        with pytest.raises(InputError):
            pool.map_tasks("pool_probe", [{"value": 1}])
