"""Evaluation harness: schema-recovery metrics and report tables."""

from repro.evaluation.metrics import (
    GoldRelation,
    SchemaRecoveryReport,
    evaluate_schema_recovery,
)
from repro.evaluation.redundancy import redundancy_report
from repro.evaluation.reporting import format_table
from repro.evaluation.snowflake import schema_tree

__all__ = [
    "GoldRelation",
    "SchemaRecoveryReport",
    "evaluate_schema_recovery",
    "format_table",
    "redundancy_report",
    "schema_tree",
]
