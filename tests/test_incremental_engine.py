"""Tests for the incremental normalization engine (repro.incremental)."""

import json

import pytest

from repro.core.normalize import Normalizer, normalize
from repro.core.selection import AutoDecider
from repro.discovery.base import discover_fds
from repro.discovery.hyucc import HyUCC
from repro.incremental import (
    ChangeBatch,
    ChangeLog,
    IncrementalNormalizer,
    LiveRelation,
    MutableColumnPartition,
    resume_engine,
)
from repro.incremental.cover import IncrementalCover
from repro.incremental.journal import load_journal, save_journal
from repro.io.ddl import schema_to_ddl
from repro.io.serialization import (
    changelog_from_json,
    changelog_to_json,
    load_changelog,
    save_changelog,
)
from repro.model.instance import RelationInstance
from repro.model.schema import Relation
from repro.runtime.errors import CheckpointError, InputError
from repro.structures.encoding import EncodedRelation
from repro.structures.partitions import StrippedPartition
from repro.verification.incremental import (
    generate_batch_stream,
    run_incremental_differential,
)
from repro.verification.planted import plant_instance


def _instance(name, columns, rows):
    return RelationInstance(
        Relation(name, tuple(columns)),
        [[row[i] for row in rows] for i in range(len(columns))],
    )


@pytest.fixture()
def dept_instance():
    return _instance(
        "emp",
        ("emp", "dept", "dname", "loc"),
        [
            ("e1", "d1", "Sales", "NY"),
            ("e2", "d1", "Sales", "NY"),
            ("e3", "d2", "Eng", "SF"),
            ("e4", "d2", "Eng", "SF"),
            ("e5", "d3", "HR", "NY"),
        ],
    )


def _groups_of(codes):
    """Row-index groups induced by a code array (order-insensitive)."""
    groups = {}
    for row, code in enumerate(codes):
        groups.setdefault(code, []).append(row)
    return sorted(tuple(g) for g in groups.values())


# ----------------------------------------------------------------------
# Change batches and logs
# ----------------------------------------------------------------------
class TestChangeBatch:
    def test_normalizes_and_validates(self):
        batch = ChangeBatch(inserts=[["a", "b"]], deletes=[3, 1], relation="r")
        assert batch.inserts == (("a", "b"),)
        assert batch.deletes == (3, 1)
        assert not batch.is_empty

    def test_rejects_negative_and_duplicate_ids(self):
        with pytest.raises(InputError):
            ChangeBatch(inserts=(), deletes=[-1])
        with pytest.raises(InputError):
            ChangeBatch(inserts=(), deletes=[2, 2])

    def test_json_roundtrip(self):
        batch = ChangeBatch(
            inserts=[("x", None), ("y", "z")], deletes=[0], relation="r"
        )
        again = ChangeBatch.from_json(batch.to_json())
        assert again == batch

    def test_coerce_str_stringifies_scalars_not_nulls(self):
        batch = ChangeBatch.from_json(
            {"inserts": [[1, None, 2.5]], "deletes": []}, coerce_str=True
        )
        assert batch.inserts == (("1", None, "2.5"),)


class TestChangeLog:
    def test_document_roundtrip(self, tmp_path):
        log = ChangeLog(
            [ChangeBatch(inserts=[("a",)], deletes=(), relation="r")]
        )
        path = tmp_path / "log.json"
        save_changelog(log, path)
        again = load_changelog(path)
        assert list(again) == list(log)
        assert changelog_from_json(changelog_to_json(log)).batches == log.batches

    def test_jsonl_and_array_forms(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text(
            '{"inserts": [["a"]], "deletes": []}\n'
            '{"inserts": [], "deletes": [0]}\n'
        )
        log = load_changelog(path)
        assert len(log) == 2 and log[1].deletes == (0,)
        path.write_text('[{"inserts": [["b"]], "deletes": []}]')
        assert len(load_changelog(path)) == 1

    def test_malformed_raises_input_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "nope"}')
        with pytest.raises(InputError):
            load_changelog(path)
        path.write_text("{broken\n")
        with pytest.raises(InputError):
            load_changelog(path)
        with pytest.raises(InputError):
            load_changelog(tmp_path / "missing.json")


# ----------------------------------------------------------------------
# Maintained structures
# ----------------------------------------------------------------------
class TestEncodingMaintenance:
    @pytest.mark.parametrize("nen", [True, False])
    def test_extend_matches_fresh_encode(self, nen):
        old = [["a", "b", None, "a"], [1, 1, 2, 2]]
        new = [["b", None, "c"], [2, 3, 1]]
        grown = EncodedRelation.encode([list(c) for c in old], nen)
        grown.extend(new)
        fresh = EncodedRelation.encode(
            [old[i] + new[i] for i in range(2)], nen
        )
        assert grown.num_rows == fresh.num_rows == 7
        assert grown.cardinalities == fresh.cardinalities
        for col in range(2):
            assert _groups_of(grown.codes[col]) == _groups_of(fresh.codes[col])

    @pytest.mark.parametrize("nen", [True, False])
    def test_remove_rows_matches_fresh_encode(self, nen):
        data = [["a", "b", None, "a", "b"], [1, 2, 2, 1, 3]]
        shrunk = EncodedRelation.encode([list(c) for c in data], nen)
        shrunk.remove_rows([1, 3])
        fresh = EncodedRelation.encode(
            [[c[0], c[2], c[4]] for c in data], nen
        )
        assert shrunk.num_rows == 3
        for col in range(2):
            assert _groups_of(shrunk.codes[col]) == _groups_of(fresh.codes[col])

    def test_extend_validates_shape(self):
        encoding = EncodedRelation.encode([["a"], ["b"]], True)
        with pytest.raises(ValueError):
            encoding.extend([["x"]])  # wrong arity
        with pytest.raises(ValueError):
            encoding.extend([["x", "y"], ["z"]])  # ragged

    def test_remove_rows_validates_range(self):
        encoding = EncodedRelation.encode([["a", "b"]], True)
        with pytest.raises(ValueError):
            encoding.remove_rows([5])


class TestMutableColumnPartition:
    def test_appends_match_from_value_ids(self):
        codes = [0, 1, 0, 2, 1, 0]
        partition = MutableColumnPartition()
        partition.append_codes(codes[:4], 0)
        partition.append_codes(codes[4:], 4)
        built = partition.to_stripped(codes, null_code=None)
        oracle = StrippedPartition.from_value_ids(codes, None)
        assert built.clusters == oracle.clusters

    def test_null_cluster_sorts_last(self):
        codes = [5, 0, 5, 1, 1]
        partition = MutableColumnPartition()
        partition.append_codes(codes, 0)
        built = partition.to_stripped(codes, null_code=5)
        oracle = StrippedPartition.from_value_ids(codes, 5)
        assert built.clusters == oracle.clusters

    def test_dirty_rebuild(self):
        partition = MutableColumnPartition()
        partition.append_codes([0, 0, 1], 0)
        partition.mark_dirty()
        partition.append_codes([2], 3)  # ignored while dirty
        partition.rebuild([0, 1, 1])
        built = partition.to_stripped([0, 1, 1], None)
        assert built.clusters == [[1, 2]]


class TestLiveRelation:
    def test_insert_and_delete_bookkeeping(self, dept_instance):
        live = LiveRelation(dept_instance)
        start, ids = live.insert_rows([("e6", "d3", "HR", "NY")])
        assert start == 5 and ids == [5]
        assert live.num_rows == 6
        live.delete_ids([0, 5])
        assert live.num_rows == 4
        assert live.row_ids == [1, 2, 3, 4]
        # ids are never recycled
        _, ids = live.insert_rows([("e7", "d4", "Ops", "LA")])
        assert ids == [6]
        with pytest.raises(InputError):
            live.position_of(0)
        # the caller's instance is never mutated
        assert dept_instance.num_rows == 5

    def test_snapshot_is_independent(self, dept_instance):
        live = LiveRelation(dept_instance)
        snap = live.snapshot_instance()
        live.insert_rows([("e6", "d3", "HR", "NY")])
        assert snap.num_rows == 5


# ----------------------------------------------------------------------
# Cover maintenance against scratch discovery
# ----------------------------------------------------------------------
class TestIncrementalCover:
    @pytest.mark.parametrize("nen", [True, False])
    def test_inserts_track_scratch_hyfd(self, nen):
        base = plant_instance(7, num_columns=4, num_rows=12)
        live = LiveRelation(base.instance, nen)
        cover = IncrementalCover(
            live.arity,
            discover_fds(base.instance, "hyfd", null_equals_null=nen),
            HyUCC(null_equals_null=nen).discover(base.instance),
            nen,
        )
        _, batches = generate_batch_stream(
            7, base.instance, base.key_mask, 4, kind="key-flip"
        )
        for batch in batches:
            if batch.deletes:
                positions = sorted(
                    live.position_of(row_id) for row_id in batch.deletes
                )
                cover.apply_delete(live.encoding, positions)
                live.delete_ids(batch.deletes)
            if batch.inserts:
                start, _ = live.insert_rows(batch.inserts)
                cover.apply_insert(live.encoding, start, live.pli_cache())
            snapshot = live.snapshot_instance()
            scratch = discover_fds(snapshot, "hyfd", null_equals_null=nen)
            assert list(cover.fds().items()) == list(scratch.items())
            assert cover.uccs() == list(
                HyUCC(null_equals_null=nen).discover(snapshot)
            )

    def test_delete_recovers_coarser_cover(self, dept_instance):
        # dept -> dname,loc holds; add a violating row, then delete it:
        # the cover must return exactly to the scratch result both times.
        live = LiveRelation(dept_instance)
        cover = IncrementalCover(
            live.arity,
            discover_fds(dept_instance, "hyfd"),
            HyUCC().discover(dept_instance),
            True,
        )
        start, ids = live.insert_rows([("e9", "d1", "Sales", "SF")])
        cover.apply_insert(live.encoding, start, live.pli_cache())
        dirty = live.snapshot_instance()
        assert list(cover.fds().items()) == list(
            discover_fds(dirty, "hyfd").items()
        )
        cover.apply_delete(live.encoding, [live.position_of(ids[0])])
        live.delete_ids(ids)
        clean = live.snapshot_instance()
        assert list(cover.fds().items()) == list(
            discover_fds(clean, "hyfd").items()
        )
        assert cover.uccs() == list(HyUCC().discover(clean))


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class TestIncrementalNormalizer:
    def test_ddl_matches_scratch_after_every_batch(self, dept_instance):
        engine = IncrementalNormalizer(dept_instance)
        batches = [
            ChangeBatch(inserts=[("e6", "d4", "Ops", "LA")], deletes=()),
            ChangeBatch(inserts=[("e7", "d1", "Sales", "SF")], deletes=(1,)),
            ChangeBatch(inserts=(), deletes=(5,)),
        ]
        for batch in batches:
            engine.apply_batch(batch)
            scratch = Normalizer(
                algorithm="hyfd",
                decider=AutoDecider(),
                degrade=False,
            ).run(engine.live("emp").snapshot_instance())
            assert engine.ddl() == schema_to_ddl(
                scratch.schema, scratch.instances
            )

    def test_reports_violations_and_migration(self, dept_instance):
        engine = IncrementalNormalizer(dept_instance)
        # d1 currently maps to (Sales, NY); this row flips the dependents.
        outcome = engine.apply_batch(
            ChangeBatch(inserts=[("e9", "d1", "Sales", "SF")], deletes=())
        )
        assert outcome.inserts_applied == 1
        assert any(
            v.kind == "functional-dependency" for v in outcome.violations
        )
        assert outcome.delta.changed
        assert outcome.schema_changed
        sql = outcome.migration.to_sql()
        assert "CREATE TABLE" in sql and "INSERT INTO" in sql
        text = outcome.to_str()
        assert "constraint violation" in text and "fidelity: exact" in text

    def test_empty_batch_is_a_noop(self, dept_instance):
        engine = IncrementalNormalizer(dept_instance)
        before = engine.ddl()
        outcome = engine.apply_batch(ChangeBatch(inserts=(), deletes=()))
        assert not outcome.delta.changed
        assert not outcome.schema_changed
        assert engine.ddl() == before

    def test_unknown_relation_and_unknown_id(self, dept_instance):
        engine = IncrementalNormalizer(dept_instance)
        with pytest.raises(InputError):
            engine.apply_batch(
                ChangeBatch(inserts=(), deletes=(), relation="nope")
            )
        with pytest.raises(InputError):
            engine.apply_batch(ChangeBatch(inserts=(), deletes=(99,)))

    def test_multi_relation_requires_name(self, dept_instance):
        other = _instance("proj", ("p", "q"), [("1", "x"), ("2", "y")])
        engine = IncrementalNormalizer([dept_instance, other])
        with pytest.raises(InputError):
            engine.apply_batch(ChangeBatch(inserts=[("3", "z")], deletes=()))
        outcome = engine.apply_batch(
            ChangeBatch(inserts=[("3", "z")], deletes=(), relation="proj")
        )
        assert outcome.relation == "proj"
        assert engine.live("proj").num_rows == 3

    def test_closure_cache_stays_correct_across_refreshes(self, dept_instance):
        engine = IncrementalNormalizer(dept_instance)
        assert engine._closure_cache  # the initial run populated it
        engine.apply_batch(ChangeBatch(inserts=(), deletes=()))
        scratch = normalize(
            engine.live("emp").snapshot_instance(), algorithm="hyfd"
        )
        assert engine.schema.to_str() == scratch.schema.to_str()


# ----------------------------------------------------------------------
# Journal / resume
# ----------------------------------------------------------------------
class TestJournal:
    def _stream(self, dept_instance):
        return [
            ChangeBatch(inserts=[("e6", "d4", "Ops", "LA")], deletes=()),
            ChangeBatch(inserts=[("e7", "d1", "Sales", "SF")], deletes=(0,)),
            ChangeBatch(inserts=(), deletes=(2, 5)),
        ]

    def test_resume_matches_uninterrupted_run(self, dept_instance, tmp_path):
        journal = tmp_path / "journal.json"
        batches = self._stream(dept_instance)
        engine = IncrementalNormalizer(dept_instance, journal_path=journal)
        engine.apply_batch(batches[0])
        engine.apply_batch(batches[1])
        # "crash": rebuild from the journal and the same change log.
        resumed = resume_engine([dept_instance], batches, journal)
        assert resumed.applied_batches == 2
        assert resumed.ddl() == engine.ddl()
        assert list(resumed.fd_cover("emp").items()) == list(
            engine.fd_cover("emp").items()
        )
        resumed.apply_batch(batches[2])
        engine.apply_batch(batches[2])
        assert resumed.ddl() == engine.ddl()
        assert resumed.live("emp").row_ids == engine.live("emp").row_ids

    def test_save_load_roundtrip(self, dept_instance, tmp_path):
        journal = tmp_path / "journal.json"
        engine = IncrementalNormalizer(dept_instance)
        save_journal(engine, journal)
        state = load_journal(journal)
        assert state["applied_batches"] == 0
        assert state["relations"][0]["name"] == "emp"

    def test_rejects_modified_changelog(self, dept_instance, tmp_path):
        journal = tmp_path / "journal.json"
        batches = self._stream(dept_instance)
        engine = IncrementalNormalizer(dept_instance, journal_path=journal)
        engine.apply_batch(batches[0])
        tampered = [
            ChangeBatch(inserts=[("eX", "d9", "Z", "Z")], deletes=(0,))
        ] + batches[1:]
        with pytest.raises(CheckpointError):
            resume_engine([dept_instance], tampered, journal)

    def test_rejects_config_mismatch(self, dept_instance, tmp_path):
        journal = tmp_path / "journal.json"
        engine = IncrementalNormalizer(dept_instance, journal_path=journal)
        engine.apply_batch(ChangeBatch(inserts=(), deletes=()))
        with pytest.raises(CheckpointError):
            resume_engine(
                [dept_instance],
                [ChangeBatch(inserts=(), deletes=())],
                journal,
                target="3nf",
            )

    def test_rejects_malformed_journal(self, dept_instance, tmp_path):
        journal = tmp_path / "journal.json"
        journal.write_text(json.dumps({"format": "other"}))
        with pytest.raises(CheckpointError):
            resume_engine([dept_instance], [], journal)
        journal.write_text("{not json")
        with pytest.raises(CheckpointError):
            load_journal(journal)


# ----------------------------------------------------------------------
# Seeded differential campaign (small slice inline; the full matrix is
# `repro verify --incremental` / `make fuzz-incremental`)
# ----------------------------------------------------------------------
class TestDifferential:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seeds_hold_the_byte_identical_bar(self, seed):
        assert run_incremental_differential(seed, num_batches=4) == []

    @pytest.mark.fuzz
    @pytest.mark.parametrize("seed", range(10))
    def test_fuzz_campaign_slice(self, seed):
        mismatches = run_incremental_differential(seed, num_batches=8)
        assert mismatches == [], "\n".join(
            m.describe() for m in mismatches
        )
