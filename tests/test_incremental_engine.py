"""Tests for the incremental normalization engine (repro.incremental)."""

import json

import pytest

from repro.core.normalize import Normalizer, normalize
from repro.core.selection import AutoDecider
from repro.discovery.base import discover_fds
from repro.discovery.ucc import NaiveUCC
from repro.incremental import (
    ChangeBatch,
    ChangeLog,
    IncrementalNormalizer,
    LiveRelation,
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
from repro.structures.partitions import PLICache
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
            NaiveUCC(null_equals_null=nen).discover(base.instance),
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
                cover.apply_insert(live.encoding, start)
            snapshot = live.snapshot_instance()
            scratch = discover_fds(snapshot, "hyfd", null_equals_null=nen)
            assert list(cover.fds().items()) == list(scratch.items())
            assert cover.uccs() == list(
                NaiveUCC(null_equals_null=nen).discover(snapshot)
            )

    def test_delete_recovers_coarser_cover(self, dept_instance):
        # dept -> dname,loc holds; add a violating row, then delete it:
        # the cover must return exactly to the scratch result both times.
        live = LiveRelation(dept_instance)
        cover = IncrementalCover(
            live.arity,
            discover_fds(dept_instance, "hyfd"),
            NaiveUCC().discover(dept_instance),
            True,
        )
        start, ids = live.insert_rows([("e9", "d1", "Sales", "SF")])
        cover.apply_insert(live.encoding, start)
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
        assert cover.uccs() == list(NaiveUCC().discover(clean))


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

    def test_empty_batch_refresh_equals_scratch_run(self, dept_instance):
        engine = IncrementalNormalizer(dept_instance)
        engine.apply_batch(ChangeBatch(inserts=(), deletes=()))
        scratch = normalize(
            engine.live("emp").snapshot_instance(), algorithm="hyfd"
        )
        assert engine.schema.to_str() == scratch.schema.to_str()


class TestValidationCache:
    """The cover builds a PLICache over the live encoding only for a
    batch whose candidates need validation."""

    @staticmethod
    def _spy(monkeypatch):
        """Record the ``encoding`` of every PLICache built from one."""
        built = []
        original = PLICache.__init__

        def spy(self, instance, null_equals_null=True, **kwargs):
            built.append(kwargs.get("encoding"))
            original(self, instance, null_equals_null, **kwargs)

        monkeypatch.setattr(PLICache, "__init__", spy)
        return built

    def test_absorbed_batches_build_no_partitions(self, monkeypatch):
        # The served benchmark's shape: planted rows, deletes then inserts.
        planted = plant_instance(
            7, num_columns=8, num_rows=212, null_rate=0.02, max_domain=20
        )
        rows = list(zip(*planted.instance.columns_data))
        base = _instance("served", planted.instance.columns, rows[:200])
        engine = IncrementalNormalizer(base)
        live = engine.live("served")
        built = self._spy(monkeypatch)
        for index in range(3):
            outcome = engine.apply_batch(
                ChangeBatch(
                    inserts=rows[200 + 4 * index : 204 + 4 * index],
                    deletes=(3 * index, 3 * index + 1),
                )
            )
            assert outcome.delta.validations == 0
            assert not outcome.delta.changed
        assert not any(encoding is live.encoding for encoding in built)

    def test_refuting_insert_builds_one_cache(self, dept_instance, monkeypatch):
        live = LiveRelation(dept_instance)
        cover = IncrementalCover(
            live.arity,
            discover_fds(dept_instance, "hyfd"),
            NaiveUCC().discover(dept_instance),
            True,
        )
        built = self._spy(monkeypatch)
        # refutes dept -> dname: its specializations must be validated
        start, _ = live.insert_rows([("e9", "d1", "Eng", "NY")])
        delta = cover.apply_insert(live.encoding, start)
        assert delta.validations > 0
        assert built == [live.encoding]
        monkeypatch.undo()
        snapshot = live.snapshot_instance()
        assert list(cover.fds().items()) == list(
            discover_fds(snapshot, "hyfd").items()
        )
        assert cover.uccs() == NaiveUCC().discover(snapshot)

    @pytest.mark.parametrize("nen", [True, False])
    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_key_cover_matches_naive(self, seed, nen):
        base = plant_instance(seed, num_columns=5, num_rows=30, null_rate=0.1)
        engine = IncrementalNormalizer(base.instance, null_equals_null=nen)
        assert engine.key_cover(base.instance.name) == NaiveUCC(
            null_equals_null=nen
        ).discover(base.instance)


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
