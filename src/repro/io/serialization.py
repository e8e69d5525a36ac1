"""JSON serialization for FD sets, schemas, and normalization results.

Profiling a large dataset once and reusing the FD set across many
normalization experiments is the natural workflow (the paper's own
evaluation does exactly that, via Metanome result files).  This module
provides the stable on-disk format:

* FD sets are stored by *attribute names*, so a saved FD set remains
  valid for any instance with the same columns (order included),
* schemas round-trip with primary keys and foreign keys,
* a normalization result exports its decomposition log, statistics,
  and timings for downstream analysis.

Loaded FD sets plug straight back into the pipeline via
:class:`~repro.discovery.precomputed.PrecomputedFDs`.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from pathlib import Path
from typing import TYPE_CHECKING

from repro.model.attributes import mask_of_names, names_of
from repro.model.fd import FDSet
from repro.model.schema import ForeignKey, Relation, Schema

if TYPE_CHECKING:
    from repro.core.result import NormalizationResult

__all__ = [
    "changelog_from_json",
    "changelog_to_json",
    "checkpoint_from_json",
    "checkpoint_to_json",
    "fdset_from_json",
    "fdset_to_json",
    "load_changelog",
    "load_fdset",
    "result_to_json",
    "save_changelog",
    "save_fdset",
    "schema_from_json",
    "schema_to_json",
]


# ----------------------------------------------------------------------
# FD sets
# ----------------------------------------------------------------------
def fdset_to_json(fds: FDSet, columns: Sequence[str]) -> dict:
    """Serialize an FD set against its column list."""
    if len(columns) != fds.num_attributes:
        raise ValueError(
            f"FD set covers {fds.num_attributes} attributes but "
            f"{len(columns)} column names were given"
        )
    return {
        "format": "repro/fdset",
        "version": 1,
        "columns": list(columns),
        "fds": [
            {
                "lhs": list(names_of(lhs, columns)),
                "rhs": list(names_of(rhs, columns)),
            }
            for lhs, rhs in sorted(fds.items())
        ],
    }


def fdset_from_json(payload: dict) -> tuple[FDSet, tuple[str, ...]]:
    """Deserialize; returns the FD set and the column tuple it is bound to."""
    if payload.get("format") != "repro/fdset":
        raise ValueError("not a repro FD-set document")
    columns = tuple(payload["columns"])
    fds = FDSet(len(columns))
    for entry in payload["fds"]:
        fds.add_masks(
            mask_of_names(entry["lhs"], columns),
            mask_of_names(entry["rhs"], columns),
        )
    return fds, columns


def save_fdset(fds: FDSet, columns: Sequence[str], path: str | Path) -> None:
    """Write an FD set to a JSON file."""
    Path(path).write_text(
        json.dumps(fdset_to_json(fds, columns), indent=2), encoding="utf-8"
    )


def load_fdset(path: str | Path) -> tuple[FDSet, tuple[str, ...]]:
    """Read an FD set from a JSON file."""
    return fdset_from_json(json.loads(Path(path).read_text(encoding="utf-8")))


# ----------------------------------------------------------------------
# Schemas
# ----------------------------------------------------------------------
def schema_to_json(schema: Schema) -> dict:
    """Serialize relations with their key and foreign-key constraints."""
    return {
        "format": "repro/schema",
        "version": 1,
        "relations": [
            {
                "name": relation.name,
                "columns": list(relation.columns),
                "primary_key": (
                    list(relation.primary_key)
                    if relation.primary_key is not None
                    else None
                ),
                "foreign_keys": [
                    {
                        "columns": list(fk.columns),
                        "ref_relation": fk.ref_relation,
                        "ref_columns": list(fk.ref_columns),
                    }
                    for fk in relation.foreign_keys
                ],
            }
            for relation in schema
        ],
    }


def schema_from_json(payload: dict) -> Schema:
    """Deserialize a schema document."""
    if payload.get("format") != "repro/schema":
        raise ValueError("not a repro schema document")
    relations = []
    for entry in payload["relations"]:
        relations.append(
            Relation(
                entry["name"],
                tuple(entry["columns"]),
                primary_key=(
                    tuple(entry["primary_key"])
                    if entry["primary_key"] is not None
                    else None
                ),
                foreign_keys=[
                    ForeignKey(
                        tuple(fk["columns"]),
                        fk["ref_relation"],
                        tuple(fk["ref_columns"]),
                    )
                    for fk in entry["foreign_keys"]
                ],
            )
        )
    return Schema(relations)


# ----------------------------------------------------------------------
# Normalization results
# ----------------------------------------------------------------------
def result_to_json(result: NormalizationResult) -> dict:
    """Export a run's schema, decomposition log, stats, and timings."""
    return {
        "format": "repro/normalization-result",
        "version": 1,
        "schema": schema_to_json(result.schema),
        "steps": [
            {
                "parent": step.parent,
                "r1": step.r1,
                "r2": step.r2,
                "lhs": list(step.lhs),
                "rhs": list(step.rhs),
                "chosen_rank": step.chosen_rank,
                "num_candidates": step.num_candidates,
                "score": step.score,
            }
            for step in result.steps
        ],
        "stats": [
            {
                "relation": stat.relation,
                "num_attributes": stat.num_attributes,
                "num_records": stat.num_records,
                "num_fds": stat.num_fds,
                "num_fd_keys": stat.num_fd_keys,
                "avg_rhs_before_closure": stat.avg_rhs_before_closure,
                "avg_rhs_after_closure": stat.avg_rhs_after_closure,
            }
            for stat in result.stats
        ],
        "timings": dict(result.timings),
        "stopped_relations": list(result.stopped_relations),
        "values_before": result.original_values,
        "values_after": result.total_values,
        "fidelity": (
            result.fidelity.to_json() if result.fidelity is not None else None
        ),
    }


# ----------------------------------------------------------------------
# Change logs (see repro.incremental.changes)
# ----------------------------------------------------------------------
def changelog_to_json(log) -> dict:
    """Serialize a :class:`~repro.incremental.changes.ChangeLog`."""
    return {
        "format": "repro/changelog",
        "version": 1,
        "batches": [batch.to_json() for batch in log],
    }


def changelog_from_json(payload: dict, coerce_str: bool = False):
    """Deserialize a change-log document.

    ``coerce_str=True`` stringifies non-NULL scalar values, matching the
    all-strings value domain of CSV-backed instances (the CLI always
    sets it).  Raises :class:`~repro.runtime.errors.InputError` on
    malformed documents so the CLI boundary reports them as bad input.
    """
    from repro.incremental.changes import ChangeBatch, ChangeLog
    from repro.runtime.errors import InputError

    if payload.get("format") != "repro/changelog":
        raise InputError(
            f"not a repro changelog (format={payload.get('format')!r})"
        )
    if payload.get("version") != 1:
        raise InputError(
            f"unsupported changelog version {payload.get('version')!r}"
        )
    try:
        batches = [
            ChangeBatch.from_json(entry, coerce_str=coerce_str)
            for entry in payload["batches"]
        ]
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed changelog document: {exc}") from exc
    return ChangeLog(batches)


def save_changelog(log, path: str | Path) -> None:
    """Write a change log to a JSON file."""
    Path(path).write_text(
        json.dumps(changelog_to_json(log), indent=2), encoding="utf-8"
    )


def load_changelog(path: str | Path, coerce_str: bool = False):
    """Read a change log: one JSON document, or JSON-Lines batches.

    The JSONL form (one batch object per line, no wrapper) is what
    ``repro watch`` tails — producers can append batches with a plain
    ``echo >>``.
    """
    from repro.incremental.changes import ChangeBatch, ChangeLog
    from repro.runtime.errors import InputError

    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read changelog {path}: {exc}") from exc
    stripped = text.strip()
    if not stripped:
        return ChangeLog([])
    try:
        payload = json.loads(stripped)
    except ValueError:
        payload = None
    if isinstance(payload, dict):
        # A single-line JSONL stream parses as one bare batch object;
        # anything else dict-shaped must be a changelog document.
        if "inserts" in payload or "deletes" in payload:
            return ChangeLog(
                [ChangeBatch.from_json(payload, coerce_str=coerce_str)]
            )
        return changelog_from_json(payload, coerce_str=coerce_str)
    if isinstance(payload, list):
        return ChangeLog(
            [
                ChangeBatch.from_json(entry, coerce_str=coerce_str)
                for entry in payload
            ]
        )
    # JSONL: one batch object per non-empty line.
    batches = []
    for number, line in enumerate(stripped.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except ValueError as exc:
            raise InputError(
                f"changelog {path} line {number} is not valid JSON: {exc}"
            ) from exc
        batches.append(ChangeBatch.from_json(entry, coerce_str=coerce_str))
    return ChangeLog(batches)


# ----------------------------------------------------------------------
# Pipeline checkpoints (see repro.runtime.checkpointing)
# ----------------------------------------------------------------------
def checkpoint_to_json(state) -> dict:
    """Serialize a :class:`~repro.runtime.checkpointing.PipelineState`.

    FD sets are stored by attribute names (the same convention as
    :func:`fdset_to_json`), so the checkpoint stays readable and is
    robust against column re-encoding.
    """
    columns_by_name = {
        entry["name"]: entry["columns"] for entry in state.inputs
    }
    return {
        "format": "repro/pipeline-checkpoint",
        "version": 1,
        "config": dict(state.config),
        "inputs": [dict(entry) for entry in state.inputs],
        "discovered": {
            name: fdset_to_json(fds, columns_by_name[name])
            for name, fds in state.discovered.items()
        },
        "fidelity": {
            name: fidelity.to_json()
            for name, fidelity in state.fidelity.items()
        },
        "decisions": [dict(decision) for decision in state.decisions],
        "complete": state.complete,
    }


def checkpoint_from_json(payload: dict):
    """Deserialize a pipeline checkpoint document.

    Raises :class:`~repro.runtime.errors.CheckpointError` on format
    mismatches so the CLI boundary can report them uniformly.
    """
    from repro.runtime.checkpointing import (
        CHECKPOINT_FORMAT,
        CHECKPOINT_VERSION,
        PipelineState,
    )
    from repro.runtime.degrade import RelationFidelity
    from repro.runtime.errors import CheckpointError

    if payload.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"not a pipeline checkpoint (format={payload.get('format')!r})"
        )
    if payload.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {payload.get('version')!r} "
            f"(this build reads version {CHECKPOINT_VERSION})"
        )
    try:
        discovered = {}
        for name, document in payload["discovered"].items():
            fds, _ = fdset_from_json(document)
            discovered[name] = fds
        return PipelineState(
            config=dict(payload["config"]),
            inputs=[dict(entry) for entry in payload["inputs"]],
            discovered=discovered,
            fidelity={
                name: RelationFidelity.from_json(entry)
                for name, entry in payload["fidelity"].items()
            },
            decisions=[dict(decision) for decision in payload["decisions"]],
            complete=bool(payload["complete"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed checkpoint document: {exc}") from exc
