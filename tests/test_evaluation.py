"""Tests for the schema-recovery metrics and table rendering."""

import pytest

from repro.evaluation.metrics import GoldRelation, evaluate_schema_recovery
from repro.evaluation.reporting import format_table
from repro.model.schema import ForeignKey, Relation, Schema


def _fs(*names):
    return frozenset(names)


def gold_pair():
    return [
        GoldRelation(
            "orders",
            _fs("oid", "customer", "date"),
            key=_fs("oid"),
            references=(("customer", "customers"),),
        ),
        GoldRelation("customers", _fs("customer", "name"), key=_fs("customer")),
    ]


class TestPerfectRecovery:
    def make_recovered(self):
        customers = Relation(
            "customers_rec", ("customer", "name"), primary_key=("customer",)
        )
        orders = Relation(
            "orders_rec",
            ("oid", "customer", "date"),
            primary_key=("oid",),
            foreign_keys=[
                ForeignKey(("customer",), "customers_rec", ("customer",))
            ],
        )
        return Schema([orders, customers])

    def test_perfect_scores(self):
        report = evaluate_schema_recovery(self.make_recovered(), gold_pair())
        assert report.pair_precision == 1.0
        assert report.pair_recall == 1.0
        assert report.pair_f1 == 1.0
        assert report.mean_jaccard == 1.0
        assert report.key_accuracy == 1.0
        assert report.fk_recall == 1.0
        assert sorted(report.perfectly_recovered) == ["customers", "orders"]

    def test_to_str_lists_matches(self):
        text = evaluate_schema_recovery(self.make_recovered(), gold_pair()).to_str()
        assert "orders -> orders_rec" in text
        assert "precision=1.000" in text


class TestImperfectRecovery:
    def test_universal_relation_has_low_precision(self):
        universal = Schema(
            [Relation("u", ("oid", "customer", "date", "name"))]
        )
        report = evaluate_schema_recovery(universal, gold_pair())
        assert report.pair_recall == 1.0
        assert report.pair_precision < 1.0

    def test_oversplit_has_low_recall(self):
        split = Schema(
            [
                Relation("a", ("oid",)),
                Relation("b", ("customer", "name")),
                Relation("c", ("date",)),
            ]
        )
        report = evaluate_schema_recovery(split, gold_pair())
        assert report.pair_precision == 1.0
        assert report.pair_recall < 1.0

    def test_wrong_key_counted(self):
        customers = Relation(
            "c", ("customer", "name"), primary_key=("name",)
        )
        orders = Relation(
            "o", ("oid", "customer", "date"), primary_key=("oid",)
        )
        report = evaluate_schema_recovery(Schema([orders, customers]), gold_pair())
        assert report.key_accuracy == pytest.approx(0.5)

    def test_wildcard_attributes_ignored(self):
        gold = [
            GoldRelation(
                "r",
                _fs("a", "b", "const"),
                key=_fs("a"),
                wildcard=_fs("const"),
            ),
            GoldRelation("s", _fs("c", "d"), key=_fs("c")),
        ]
        # const placed "wrongly" with s — must not hurt any score
        recovered = Schema(
            [
                Relation("r1", ("a", "b"), primary_key=("a",)),
                Relation("s1", ("c", "d", "const"), primary_key=("c",)),
            ]
        )
        report = evaluate_schema_recovery(recovered, gold)
        assert report.pair_precision == 1.0
        assert report.pair_recall == 1.0
        assert report.mean_jaccard == 1.0


class TestFormatTable:
    def test_alignment(self):
        table = format_table(
            ["name", "value"], [["a", 1], ["longer", 22]], title="T"
        )
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[2]
        header_pipe = lines[2].index("|")
        for line in lines[4:]:
            assert line.index("|") == header_pipe

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="row width"):
            format_table(["a"], [["x", "y"]])

    def test_no_title(self):
        table = format_table(["h"], [["v"]])
        assert table.splitlines()[0] == "h"
