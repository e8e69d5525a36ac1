"""End-to-end integration: the full system wired together at tiny scale.

These tests run the complete reproduction path — generate → denormalize
→ discover → normalize → evaluate → audit → export — on miniature
versions of the paper's datasets.  The benchmark suite runs the same
pipelines at the (larger) reporting scale; these tests make the whole
chain part of every `pytest tests/` run.
"""

import sqlite3

import pytest

from repro.core.normalize import normalize
from repro.datagen.musicbrainz import (
    MUSICBRAINZ_GOLD,
    MusicBrainzScale,
    denormalized_musicbrainz,
)
from repro.datagen.tpch import TPCH_GOLD, TpchScale, denormalized_tpch
from repro.discovery.ind import verify_foreign_keys
from repro.evaluation.metrics import evaluate_schema_recovery
from repro.evaluation.snowflake import schema_tree
from repro.incremental import ConstraintMonitor
from repro.io.ddl import schema_to_ddl
from repro.io.serialization import result_to_json, schema_from_json

TINY_TPCH = TpchScale(
    regions=3,
    nations=5,
    suppliers=8,
    parts=12,
    partsupps=24,
    customers=8,
    orders=20,
    lineitems=60,
)

TINY_MB = MusicBrainzScale(
    areas=4,
    places=6,
    artists=10,
    artist_credits=8,
    artist_credit_names=14,
    labels=5,
    releases=10,
    release_labels=14,
    mediums=14,
    recordings=20,
    tracks=40,
    max_joined_rows=120,
)


@pytest.fixture(scope="module")
def tpch_result():
    universal = denormalized_tpch(TINY_TPCH)
    return universal, normalize(universal)


@pytest.fixture(scope="module")
def musicbrainz_result():
    universal = denormalized_musicbrainz(TINY_MB)
    return universal, normalize(universal)


class TestTpchEndToEnd:
    def test_recovery_quality(self, tpch_result):
        _, result = tpch_result
        report = evaluate_schema_recovery(result.schema, TPCH_GOLD)
        assert report.pair_precision > 0.8
        assert report.pair_recall > 0.8
        assert len(report.perfectly_recovered) >= 5

    def test_lossless(self, tpch_result):
        universal, result = tpch_result
        rebuilt = result.reconstruct(universal.name)
        assert sorted(rebuilt.iter_rows()) == sorted(universal.iter_rows())

    def test_all_foreign_keys_audit_clean(self, tpch_result):
        _, result = tpch_result
        audits = verify_foreign_keys(result.instances)
        assert audits
        broken = [a.to_str() for a in audits if not a.valid]
        assert broken == []

    def test_ddl_executes_and_loads_on_sqlite(self, tpch_result):
        _, result = tpch_result
        ddl = schema_to_ddl(result.schema, result.instances)
        conn = sqlite3.connect(":memory:")
        conn.executescript(ddl)
        # insert every relation's rows; FK constraints stay off by
        # default in sqlite, so this checks arity/typing only
        for name, instance in result.instances.items():
            placeholders = ",".join("?" * instance.arity)
            conn.executemany(
                f'INSERT INTO "{name}" VALUES ({placeholders})',
                list(instance.iter_rows()),
            )
        counted = {
            name: conn.execute(f'SELECT COUNT(*) FROM "{name}"').fetchone()[0]
            for name in result.instances
        }
        assert counted == {
            name: instance.num_rows
            for name, instance in result.instances.items()
        }

    def test_schema_json_roundtrip(self, tpch_result):
        _, result = tpch_result
        payload = result_to_json(result)
        schema = schema_from_json(payload["schema"])
        assert set(schema.relation_names) == set(result.instances)

    def test_tree_renders_every_relation(self, tpch_result):
        _, result = tpch_result
        tree = schema_tree(result.schema)
        for name in result.instances:
            assert f"{name}(" in tree

    def test_monitor_accepts_replayed_rows(self, tpch_result):
        universal, result = tpch_result
        monitor = ConstraintMonitor(result)
        # replaying an existing universal row must never violate
        assert monitor.route_universal_row(universal.name, universal.row(0)) == []


class TestMusicBrainzEndToEnd:
    def test_recovery_quality(self, musicbrainz_result):
        _, result = musicbrainz_result
        report = evaluate_schema_recovery(result.schema, MUSICBRAINZ_GOLD)
        assert report.pair_precision > 0.7
        assert report.pair_recall > 0.7
        assert len(report.perfectly_recovered) >= 5

    def test_lossless(self, musicbrainz_result):
        universal, result = musicbrainz_result
        rebuilt = result.reconstruct(universal.name)
        assert sorted(rebuilt.iter_rows()) == sorted(universal.iter_rows())

    def test_every_relation_bcnf(self, musicbrainz_result):
        from tests.test_normalize import assert_target_conform

        _, result = musicbrainz_result
        for instance in result.instances.values():
            assert_target_conform(instance)

    def test_foreign_keys_audit_clean(self, musicbrainz_result):
        _, result = musicbrainz_result
        broken = [
            a.to_str()
            for a in verify_foreign_keys(result.instances)
            if not a.valid
        ]
        assert broken == []
