"""The out-of-core columnar store: policy registry, chunked ingestion,
spill-tier parity, and the end-to-end byte-identity guarantees.

The contract under test (ISSUE 10 acceptance criteria): every artifact
the pipeline produces — codes, cardinalities, null codes, discovered
covers, DDL — is **byte-identical** whether encoded columns live on the
Python heap, were chunk-ingested, or spilled to mmap-backed page files;
the spill path additionally keeps the encoder's staging heap O(chunk).
"""

from __future__ import annotations

import csv
import os
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

from repro.cli import main
from repro.io.csv_io import read_csv, write_csv
from repro.io.datasets import (
    address_example,
    denormalized_university,
    planets_example,
)
from repro.model.instance import RelationInstance
from repro.model.schema import Relation
from repro.runtime.errors import InputError
from repro.runtime.governor import Budget, Governor, activate
from repro.structures import storage
from repro.structures.encoding import ChunkedEncoder, EncodedRelation

# ----------------------------------------------------------------------
# Hygiene: every test starts with a clean policy and counters
# ----------------------------------------------------------------------
@pytest.fixture(autouse=True)
def _clean_storage_state(monkeypatch):
    monkeypatch.delenv("REPRO_STORAGE", raising=False)
    monkeypatch.delenv("REPRO_SPILL_THRESHOLD", raising=False)
    monkeypatch.delenv("REPRO_CHUNK_ROWS", raising=False)
    storage.set_policy(None)
    storage.reset_counters()
    yield
    storage.set_policy(None)
    storage.reset_counters()


def _codes_as_lists(encoding: EncodedRelation) -> list[list[int]]:
    return [list(column) for column in encoding.codes]


def _assert_encodings_identical(
    left: EncodedRelation, right: EncodedRelation
) -> None:
    assert _codes_as_lists(left) == _codes_as_lists(right)
    assert left.cardinalities == right.cardinalities
    assert left.null_codes == right.null_codes
    assert left.num_rows == right.num_rows
    assert left.null_equals_null == right.null_equals_null


FIXTURES = {
    "address": address_example,
    "planets": planets_example,
    "university": denormalized_university,
}


def _nullable_instance() -> RelationInstance:
    base = address_example()
    columns = [list(column) for column in base.columns_data]
    columns[0][1] = None
    columns[2][0] = None
    columns[2][3] = None
    return RelationInstance(base.relation, columns)


FIXTURES["nullable"] = _nullable_instance


# ----------------------------------------------------------------------
# Policy registry
# ----------------------------------------------------------------------
class TestPolicyRegistry:
    def test_default_is_memory(self):
        assert storage.policy_name() == "memory"

    def test_env_selects_policy(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORAGE", "spill")
        assert storage.policy_name() == "spill"

    def test_set_policy_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORAGE", "spill")
        storage.set_policy("memory")
        assert storage.policy_name() == "memory"

    def test_unknown_policy_is_input_error(self):
        with pytest.raises(InputError):
            storage.set_policy("floppy")

    def test_bad_env_policy_is_input_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORAGE", "floppy")
        with pytest.raises(InputError):
            storage.policy_name()

    def test_override_nests_and_restores(self):
        assert storage.policy_name() == "memory"
        with storage.policy_override("spill"):
            assert storage.policy_name() == "spill"
            with storage.policy_override("auto"):
                assert storage.policy_name() == "auto"
            assert storage.policy_name() == "spill"
        assert storage.policy_name() == "memory"

    def test_none_override_is_a_no_op(self):
        with storage.policy_override(None):
            assert storage.policy_name() == "memory"

    def test_resolve_tier_by_policy(self, monkeypatch):
        assert storage.resolve_tier(1 << 40) == "memory"
        with storage.policy_override("spill"):
            assert storage.resolve_tier(1) == "spill"
        with storage.policy_override("auto"):
            monkeypatch.setenv("REPRO_SPILL_THRESHOLD", "1kb")
            assert storage.resolve_tier(2048) == "spill"
            assert storage.resolve_tier(16) == "memory"

    def test_memory_budget_feeds_auto_threshold(self):
        with storage.policy_override("auto"):
            with storage.memory_budget(400):
                # budget/4 = 100 bytes
                assert storage.resolve_tier(101) == "spill"
                assert storage.resolve_tier(99) == "memory"

    def test_governor_budget_feeds_auto_threshold(self):
        governor = Governor(Budget(max_memory_bytes=400))
        with activate(governor), storage.policy_override("auto"):
            assert storage.resolve_tier(101) == "spill"

    def test_chunk_rows_env(self, monkeypatch):
        assert storage.chunk_rows() == 4096
        monkeypatch.setenv("REPRO_CHUNK_ROWS", "7")
        assert storage.chunk_rows() == 7
        monkeypatch.setenv("REPRO_CHUNK_ROWS", "zero")
        with pytest.raises(InputError):
            storage.chunk_rows()


# ----------------------------------------------------------------------
# Encode parity: every fixture, both NULL semantics
# ----------------------------------------------------------------------
class TestEncodeParity:
    @pytest.mark.parametrize("fixture", sorted(FIXTURES))
    @pytest.mark.parametrize("null_equals_null", [True, False])
    def test_spilled_encode_is_byte_identical(
        self, fixture, null_equals_null
    ):
        instance = FIXTURES[fixture]()
        mem = EncodedRelation.encode(instance.columns_data, null_equals_null)
        with storage.policy_override("spill"):
            spilled = EncodedRelation.encode(
                instance.columns_data, null_equals_null
            )
        assert mem.tier == "memory"
        assert spilled.tier == "spill"
        _assert_encodings_identical(mem, spilled)
        spilled.store.close()

    @pytest.mark.parametrize("fixture", sorted(FIXTURES))
    @pytest.mark.parametrize("null_equals_null", [True, False])
    def test_chunked_encoder_matches_encode(self, fixture, null_equals_null):
        instance = FIXTURES[fixture]()
        mem = EncodedRelation.encode(instance.columns_data, null_equals_null)
        rows = list(zip(*instance.columns_data))
        with storage.policy_override("spill"):
            encoder = ChunkedEncoder(
                instance.arity, null_equals_null=null_equals_null
            )
            for start in range(0, len(rows), 3):
                encoder.add_rows(rows[start : start + 3])
            chunked = encoder.finish()
        _assert_encodings_identical(mem, chunked)
        # The decode tables invert the dictionaries exactly.
        tables = encoder.decode_tables()
        for attr, column in enumerate(instance.columns_data):
            decoded = [tables[attr][code] for code in chunked.codes[attr]]
            if null_equals_null:
                assert decoded == list(column)
        chunked.store.close()

    @pytest.mark.parametrize("policy", ["memory", "spill", "auto"])
    def test_streaming_read_csv_matches_classic(
        self, tmp_path, monkeypatch, policy
    ):
        instance = denormalized_university()
        path = tmp_path / "u.csv"
        write_csv(instance, path)
        # Oracle independent of the chunked encoder: parse every row up
        # front, then build the instance from one tuple per row.
        with open(path, newline="", encoding="utf-8-sig") as handle:
            header, *rows = csv.reader(handle)
        classic = RelationInstance.from_rows(
            Relation(path.stem, tuple(header)),
            [tuple(value or None for value in row) for row in rows],
        )
        monkeypatch.setenv("REPRO_CHUNK_ROWS", "5")
        if policy == "auto":
            monkeypatch.setenv("REPRO_SPILL_THRESHOLD", "64")
        with storage.policy_override(policy):
            streamed = read_csv(path)
        assert streamed.columns == classic.columns
        assert [list(c) for c in streamed.columns_data] == [
            list(c) for c in classic.columns_data
        ]
        for semantics in (True, False):
            _assert_encodings_identical(
                classic.encoded(semantics), streamed.encoded(semantics)
            )
        expected_tier = "memory" if policy == "memory" else "spill"
        assert streamed.encoded(True).tier == expected_tier


# ----------------------------------------------------------------------
# Chunked ingestion stays O(chunk)
# ----------------------------------------------------------------------
class TestChunkedIngestion:
    def test_peak_staging_is_bounded_by_chunk_and_page(
        self, tmp_path, monkeypatch
    ):
        rows, arity = 5000, 4
        path = tmp_path / "big.csv"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("a,b,c,d\n")
            for i in range(rows):
                handle.write(f"{i % 97},{i % 13},{i},{i % 7}\n")
        chunk = 64
        monkeypatch.setenv("REPRO_CHUNK_ROWS", str(chunk))
        # A "memory budget" far below the encoded footprint: the run
        # must complete by spilling, never by staging everything.
        monkeypatch.setenv("REPRO_SPILL_THRESHOLD", "1kb")
        storage.reset_counters()
        with storage.policy_override("auto"):
            instance = read_csv(path)
            encoding = instance.encoded(True)
        assert encoding.tier == "spill"
        assert encoding.num_rows == rows
        peak = storage.peak_buffered_cells()
        assert peak > 0
        # Staged cells never exceed one flush page plus one input chunk
        # per column — independent of the 5000-row dataset size.
        assert peak <= (storage.PAGE_ROWS + chunk) * arity
        counters = storage.counters_snapshot()
        assert counters["spill_columns"] == arity
        assert counters["spill_pages_written"] >= arity
        assert counters["spill_cells_written"] == rows * arity

    def test_auto_policy_keeps_small_relations_in_memory(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPILL_THRESHOLD", "1gb")
        with storage.policy_override("auto"):
            encoding = EncodedRelation.encode(
                address_example().columns_data, True
            )
        assert encoding.tier == "memory"

    def test_finish_twice_raises(self):
        encoder = ChunkedEncoder(2)
        encoder.add_rows([("x", "y")])
        encoder.finish()
        with pytest.raises(ValueError):
            encoder.finish()

    def test_governor_counts_spills(self):
        governor = Governor(Budget(max_memory_bytes=1 << 30))
        with activate(governor), storage.policy_override("spill"):
            encoding = EncodedRelation.encode(
                address_example().columns_data, True
            )
        assert governor.spills == 1
        encoding.store.close()


# ----------------------------------------------------------------------
# Mutation parity: extend / remove_rows against spilled stores
# ----------------------------------------------------------------------
class TestMutationParity:
    def _pair(self):
        instance = address_example()
        mem = EncodedRelation.encode(instance.columns_data, True)
        with storage.policy_override("spill"):
            spilled = EncodedRelation.encode(instance.columns_data, True)
        return instance, mem, spilled

    def test_extend_parity(self):
        instance, mem, spilled = self._pair()
        delta = [
            ["Zoe", "Max"],
            ["90210", "10001"],
            ["Beverly", "NYC"],
            ["CA", "NY"],
        ][: instance.arity]
        while len(delta) < instance.arity:
            delta.append(["x", "y"])
        mem.extend(delta)
        spilled.extend(delta)
        _assert_encodings_identical(mem, spilled)
        spilled.store.close()

    def test_remove_rows_parity(self):
        instance, mem, spilled = self._pair()
        mem.remove_rows([0, 2])
        spilled.remove_rows([0, 2])
        _assert_encodings_identical(mem, spilled)
        spilled.store.close()

    def test_interleaved_generations_parity(self):
        instance, mem, spilled = self._pair()
        delta = [[f"v{attr}-{row}" for row in range(3)] for attr in range(instance.arity)]
        for encoding in (mem, spilled):
            encoding.extend(delta)
            encoding.remove_rows([1, encoding.num_rows - 1])
            encoding.extend(delta)
        _assert_encodings_identical(mem, spilled)
        spilled.store.close()

    def test_ragged_extend_rejected_before_any_write(self):
        _, mem, spilled = self._pair()
        bad = [["a"], ["b", "extra"]] + [["c"]] * (spilled.arity - 2)
        with pytest.raises(ValueError):
            spilled.extend(bad)
        # Nothing was appended: still identical to the untouched twin.
        _assert_encodings_identical(mem, spilled)
        spilled.store.close()


# ----------------------------------------------------------------------
# End-to-end byte identity: covers and DDL
# ----------------------------------------------------------------------
class TestPipelineByteIdentity:
    @pytest.fixture()
    def university_csv(self, tmp_path):
        path = tmp_path / "university.csv"
        write_csv(denormalized_university(), path)
        return path

    def test_ddl_identical_under_spill(
        self, university_csv, tmp_path, monkeypatch, capsys
    ):
        ddl_mem = tmp_path / "mem.sql"
        ddl_spill = tmp_path / "spill.sql"
        assert main([str(university_csv), "--ddl", str(ddl_mem)]) == 0
        monkeypatch.setenv("REPRO_CHUNK_ROWS", "7")
        assert (
            main(
                [
                    str(university_csv),
                    "--storage",
                    "spill",
                    "--ddl",
                    str(ddl_spill),
                ]
            )
            == 0
        )
        assert ddl_mem.read_bytes() == ddl_spill.read_bytes()

    def test_ddl_identical_with_workers_against_spilled_columns(
        self, university_csv, tmp_path, monkeypatch, capsys
    ):
        ddl_serial = tmp_path / "serial.sql"
        ddl_pool = tmp_path / "pool.sql"
        assert main([str(university_csv), "--ddl", str(ddl_serial)]) == 0
        monkeypatch.setenv("REPRO_CHUNK_ROWS", "7")
        assert (
            main(
                [
                    str(university_csv),
                    "--storage",
                    "spill",
                    "--workers",
                    "2",
                    "--ddl",
                    str(ddl_pool),
                ]
            )
            == 0
        )
        assert ddl_serial.read_bytes() == ddl_pool.read_bytes()

    def test_profile_reports_spill_counters(
        self, university_csv, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CHUNK_ROWS", "9")
        assert (
            main([str(university_csv), "--profile", "--storage", "spill"])
            == 0
        )
        out = capsys.readouterr().out
        assert "storage_policy=spill" in out
        assert "storage_tier=spill" in out
        assert "spill_pages_written=" in out

    def test_auto_completes_under_tight_memory_budget(
        self, tmp_path, monkeypatch, capsys
    ):
        """A dataset whose encoded footprint exceeds the configured
        budget by >= 4x completes under auto with O(chunk) staging."""
        rows, arity = 4000, 4
        path = tmp_path / "wide.csv"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("a,b,c,d\n")
            for i in range(rows):
                handle.write(f"{i % 53},{i % 11},{i},{i % 5}\n")
        encoded_bytes = 4 * rows * arity  # 64000
        budget = encoded_bytes // 4  # spill threshold = budget/4 = 4000
        monkeypatch.setenv("REPRO_SPILL_THRESHOLD", str(budget // 4))
        monkeypatch.setenv("REPRO_CHUNK_ROWS", "128")
        storage.reset_counters()
        ddl_mem = tmp_path / "mem.sql"
        ddl_auto = tmp_path / "auto.sql"
        assert main([str(path), "--ddl", str(ddl_mem)]) == 0
        assert (
            main([str(path), "--storage", "auto", "--ddl", str(ddl_auto)])
            == 0
        )
        assert ddl_mem.read_bytes() == ddl_auto.read_bytes()
        assert storage.counters_snapshot()["spill_columns"] >= arity
        assert storage.peak_buffered_cells() <= (
            (storage.PAGE_ROWS + 128) * arity
        )


# ----------------------------------------------------------------------
# Parallel workers attach spilled pages like shm segments
# ----------------------------------------------------------------------
class TestWorkerAttachment:
    def test_export_attach_round_trip(self):
        from repro.parallel.shm import attach_encoding, export_encoding

        instance = denormalized_university()
        with storage.policy_override("spill"):
            spilled = EncodedRelation.encode(instance.columns_data, True)
        handle_holder = export_encoding(spilled)
        assert isinstance(handle_holder, storage.SpilledRelation)
        attached, attachment = attach_encoding(handle_holder.handle)
        try:
            mem = EncodedRelation.encode(instance.columns_data, True)
            _assert_encodings_identical(mem, attached)
        finally:
            attachment.close()
            spilled.store.close()

    def test_segment_key_changes_across_generations(self):
        instance = address_example()
        with storage.policy_override("spill"):
            spilled = EncodedRelation.encode(instance.columns_data, True)
        key_before = spilled.store.handle(spilled).segment
        delta = [["q"] for _ in range(instance.arity)]
        spilled.extend(delta)
        key_after = spilled.store.handle(spilled).segment
        assert key_before != key_after
        spilled.store.close()


# ----------------------------------------------------------------------
# Spill directory lifecycle
# ----------------------------------------------------------------------
class TestSpillLifecycle:
    def test_orphan_reaper_removes_dead_owner_dirs(self, tmp_path):
        dead = tmp_path / f"{storage.SPILL_PREFIX}-999999999-dead"
        dead.mkdir()
        (dead / "store-0").mkdir()
        (dead / "store-0" / "col0-g0.i32").write_bytes(b"\0" * 8)
        live = tmp_path / f"{storage.SPILL_PREFIX}-{os.getpid()}-live"
        live.mkdir()
        unrelated = tmp_path / "keep-me"
        unrelated.mkdir()
        removed = storage.reap_orphan_spill_dirs(tmp_path)
        assert removed == 1
        assert not dead.exists()
        assert live.exists()
        assert unrelated.exists()

    def test_release_process_spill_removes_own_dir(
        self, tmp_path, monkeypatch
    ):
        storage.release_process_spill()  # drop any cached dir from earlier tests
        monkeypatch.setenv("REPRO_SPILL_DIR", str(tmp_path))
        with storage.policy_override("spill"):
            encoding = EncodedRelation.encode(
                address_example().columns_data, True
            )
        spill_dirs = list(tmp_path.glob(f"{storage.SPILL_PREFIX}-*"))
        assert len(spill_dirs) == 1
        # Live mappings stay readable after the unlink (POSIX).
        assert storage.release_process_spill() == 1
        assert not spill_dirs[0].exists()
        assert list(encoding.codes[0])  # still readable
        encoding.store.close()

    def test_spill_dir_override_routes_stores(self, tmp_path):
        target = tmp_path / "session" / "spill"
        with storage.spill_dir_override(target), storage.policy_override(
            "spill"
        ):
            encoding = EncodedRelation.encode(
                address_example().columns_data, True
            )
        assert encoding.store.directory.parent == target
        encoding.store.close()

    def test_resume_with_stale_spill_dir_present(
        self, tmp_path, monkeypatch, capsys
    ):
        """A crashed run's spill directory must not confuse a resumed
        run: the resume completes and produces the memory-policy DDL."""
        csv_path = tmp_path / "u.csv"
        write_csv(denormalized_university(), csv_path)
        ddl_mem = tmp_path / "mem.sql"
        assert main([str(csv_path), "--ddl", str(ddl_mem)]) == 0

        spill_base = tmp_path / "spillbase"
        spill_base.mkdir()
        stale = spill_base / f"{storage.SPILL_PREFIX}-999999999-stale"
        stale.mkdir()
        (stale / "store-0").mkdir()
        (stale / "store-0" / "col0-g0.i32").write_bytes(b"\0" * 64)
        monkeypatch.setenv("REPRO_SPILL_DIR", str(spill_base))

        checkpoint = tmp_path / "run.ckpt"
        ddl_first = tmp_path / "first.sql"
        assert (
            main(
                [
                    str(csv_path),
                    "--storage",
                    "spill",
                    "--checkpoint",
                    str(checkpoint),
                    "--ddl",
                    str(ddl_first),
                ]
            )
            == 0
        )
        ddl_resumed = tmp_path / "resumed.sql"
        assert (
            main(
                [
                    str(csv_path),
                    "--storage",
                    "spill",
                    "--resume",
                    str(checkpoint),
                    "--ddl",
                    str(ddl_resumed),
                ]
            )
            == 0
        )
        assert ddl_resumed.read_bytes() == ddl_mem.read_bytes()
        # The stale orphan is reclaimed by the worker-pool reaper path.
        storage.reap_orphan_spill_dirs(spill_base)
        assert not stale.exists()

    def test_resume_after_kill_with_spill(self, tmp_path):
        """Kill a spilled run mid-flight, then resume from its
        checkpoint under the same spill policy: identical DDL, and the
        dead process's spill directory is reapable."""
        csv_path = tmp_path / "u.csv"
        write_csv(denormalized_university(), csv_path)
        ddl_mem = tmp_path / "mem.sql"
        assert main([str(csv_path), "--ddl", str(ddl_mem)]) == 0

        spill_base = tmp_path / "spillbase"
        spill_base.mkdir()
        checkpoint = tmp_path / "run.ckpt"
        env = dict(
            os.environ,
            PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
            REPRO_SPILL_DIR=str(spill_base),
            REPRO_STORAGE="spill",
        )
        script = (
            "import sys\n"
            "from repro.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        proc = subprocess.Popen(
            [
                sys.executable,
                "-c",
                script,
                str(csv_path),
                "--checkpoint",
                str(checkpoint),
                "--ddl",
                str(tmp_path / "never.sql"),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        # Kill as soon as the process had a chance to start spilling.
        import time

        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                break
            if list(spill_base.glob(f"{storage.SPILL_PREFIX}-*")):
                proc.kill()
                break
            time.sleep(0.01)
        proc.wait(timeout=30)

        ddl_resumed = tmp_path / "resumed.sql"
        args = [str(csv_path), "--ddl", str(ddl_resumed), "--storage", "spill"]
        if checkpoint.exists():
            args += ["--resume", str(checkpoint)]
        result = subprocess.run(
            [sys.executable, "-c", script, *args],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert ddl_resumed.read_bytes() == ddl_mem.read_bytes()
        # Whatever the killed process stranded is attributable and dies
        # with the reaper (the resumed run's own dir is gone already —
        # its atexit hook released it).
        storage.reap_orphan_spill_dirs(spill_base)
        leftovers = [
            entry
            for entry in spill_base.glob(f"{storage.SPILL_PREFIX}-*")
            if entry.is_dir()
        ]
        assert leftovers == []


# ----------------------------------------------------------------------
# Approximate discovery (--approximate)
# ----------------------------------------------------------------------
class TestApproximateMode:
    def test_sampled_g3_is_sound_at_zero_error(self):
        from repro.discovery.hyfd import HyFD
        from repro.discovery.sampled import SampledG3FD

        from .helpers import canon_fds, fd_holds

        instance = denormalized_university()
        algorithm = SampledG3FD(sample_rows=5, approx_error=0.0, seed=3)
        fds = algorithm.discover(instance)
        assert algorithm.last_sampled_rows == 5
        exact = canon_fds(HyFD().discover(instance))
        for lhs, attr in canon_fds(fds):
            assert fd_holds(instance, lhs, 1 << attr)
            assert algorithm.last_errors[(lhs, attr)] == 0.0
        assert canon_fds(fds) <= exact

    def test_positive_error_keeps_approximate_fds(self):
        from repro.discovery.sampled import SampledG3FD

        columns = [
            ["k1", "k2", "k3", "k4", "k5", "k6", "k7", "k8"],
            ["a", "a", "a", "a", "b", "b", "b", "z"],
        ]
        # col0 -> col1 holds exactly; col1 -> col0 has g3 > 0.
        from repro.model.schema import Relation

        instance = RelationInstance(
            Relation("t", ("x", "y")), columns
        )
        algorithm = SampledG3FD(sample_rows=4, approx_error=0.5, seed=1)
        algorithm.discover(instance)
        assert all(
            error <= 0.5 for error in algorithm.last_errors.values()
        )

    def test_cli_reports_bounds(self, tmp_path, capsys):
        csv_path = tmp_path / "u.csv"
        write_csv(denormalized_university(), csv_path)
        assert (
            main([str(csv_path), "--approximate", "--sample-rows", "6"]) == 0
        )
        out = capsys.readouterr().out
        assert "approximate discovery (g3 error bounds)" in out
        assert "g3=" in out

    def test_cli_profile_reports_bounds(self, tmp_path, capsys):
        csv_path = tmp_path / "u.csv"
        write_csv(denormalized_university(), csv_path)
        assert (
            main(
                [
                    str(csv_path),
                    "--profile",
                    "--approximate",
                    "--sample-rows",
                    "6",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "approximate FDs (g3 error bounds):" in out
        assert "fd_sampled_rows=6" in out

    def test_approximate_conflicts_with_load_fds(self, tmp_path):
        csv_path = tmp_path / "u.csv"
        write_csv(denormalized_university(), csv_path)
        with pytest.raises(SystemExit):
            main(
                [
                    str(csv_path),
                    "--approximate",
                    "--load-fds",
                    str(tmp_path / "whatever.json"),
                ]
            )

    def test_exact_when_sample_covers_relation(self, capsys, tmp_path):
        from repro.discovery.hyfd import HyFD
        from repro.discovery.sampled import SampledG3FD

        from .helpers import canon_fds

        instance = address_example()
        algorithm = SampledG3FD(sample_rows=10_000)
        fds = algorithm.discover(instance)
        assert algorithm.last_sampled_rows is None
        assert canon_fds(fds) == canon_fds(HyFD().discover(instance))


# ----------------------------------------------------------------------
# Server: streamed uploads + spilled sessions
# ----------------------------------------------------------------------
class TestServerSpill:
    def _csv_bytes(self, rows: int = 300) -> bytes:
        lines = ["emp,dept,mgr"]
        for i in range(rows):
            lines.append(f"{i},{i % 5},m{i % 5}")
        return ("\n".join(lines) + "\n").encode()

    def test_spooled_upload_matches_buffered_upload(self, tmp_path):
        from .test_server import ServerThread

        payload = self._csv_bytes()
        with ServerThread(
            resume_dir=str(tmp_path / "state"), spool_threshold_bytes=64
        ) as harness:
            client = harness.client("alice")
            info = client.create_session(payload, name="emp", session="s1")
            assert info["rows"] == 300
            ddl_spooled = client.ddl("s1")
            # The upload was streamed to disk, then *moved* into the
            # session directory — bytes intact.
            dataset = tmp_path / "state" / "alice" / "s1" / "dataset.csv"
            assert dataset.read_bytes() == payload
            # No spool file leaks behind.
            spool = tmp_path / "state" / ".spool"
            assert not any(spool.glob("*")) if spool.exists() else True
        with ServerThread(resume_dir=str(tmp_path / "state2")) as harness:
            client = harness.client("alice")
            client.create_session(payload, name="emp", session="s1")
            ddl_buffered = client.ddl("s1")
        assert ddl_spooled == ddl_buffered

    def test_spilled_session_ddl_matches_memory_session(self, tmp_path):
        from .test_server import ServerThread

        payload = self._csv_bytes()
        with ServerThread(
            resume_dir=str(tmp_path / "state"), spool_threshold_bytes=64
        ) as harness:
            client = harness.client("bob")
            client.create_session(
                payload, name="emp", session="mem", storage="memory"
            )
            client.create_session(
                payload, name="emp", session="spilled", storage="spill"
            )
            assert client.ddl("mem") == client.ddl("spilled")
            # The spilled session's pages live under its own directory.
            spill_dir = tmp_path / "state" / "bob" / "spilled" / "spill"
            assert spill_dir.exists()
            assert list(spill_dir.glob("store-*"))

    def test_failed_upload_leaves_no_session_directory(self, tmp_path):
        from repro.server import ServerError

        from .test_server import ServerThread

        bad = b"a,a\n1,2\n" + b"x" * 128  # duplicate header -> 400
        with ServerThread(
            resume_dir=str(tmp_path / "state"), spool_threshold_bytes=64
        ) as harness:
            client = harness.client("carol")
            with pytest.raises(ServerError):
                client.create_session(bad, name="emp", session="broken")
            assert not (tmp_path / "state" / "carol" / "broken").exists()
