"""Checkpoint/resume journal for incremental runs.

After every applied batch (and once after the initial run) the engine
journals its maintained state: per relation, the stable row ids, the
FD cover, the UCC antichain, and — once deletes switched the cover to
negative-cover mode — the agree-set pair multiset.  The journal does
**not** store the raw data (the change log and the original CSVs are
the durable inputs); :func:`resume_engine` replays the raw edits of
the already-applied batch prefix, verifies the resulting row ids match
the journal, restores the covers, and re-runs one refresh.  A killed
``repro apply-batch`` run therefore loses at most the batch that was
in flight.

Writes are atomic (tmp + fsync + rename), the same discipline as the
pipeline checkpoint in :mod:`repro.runtime.checkpointing`; malformed
or mismatched journals raise
:class:`~repro.runtime.errors.CheckpointError`, which the CLI boundary
maps to exit code 4.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from repro.io.serialization import fdset_from_json, fdset_to_json
from repro.model.attributes import mask_of_names, names_of
from repro.model.instance import RelationInstance
from repro.runtime.errors import CheckpointError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.incremental.changes import ChangeBatch
    from repro.incremental.engine import IncrementalNormalizer

__all__ = [
    "JOURNAL_FORMAT",
    "JOURNAL_VERSION",
    "load_journal",
    "resume_engine",
    "save_journal",
]

JOURNAL_FORMAT = "repro/incremental-journal"
JOURNAL_VERSION = 1


def journal_to_json(engine: "IncrementalNormalizer") -> dict:
    """Serialize an engine's maintained state."""
    relations = []
    for name in engine.relation_names():
        live = engine.live(name)
        cover = engine._covers[name]
        columns = live.columns
        relations.append(
            {
                "name": name,
                "columns": list(columns),
                "row_ids": list(live.row_ids),
                "next_row_id": live.next_row_id,
                "fd_cover": fdset_to_json(cover.fds(), columns),
                "uccs": [
                    list(names_of(mask, columns)) for mask in cover.uccs()
                ],
                "pair_counts": (
                    sorted(cover.pair_counts.items())
                    if cover.pair_counts is not None
                    else None
                ),
            }
        )
    return {
        "format": JOURNAL_FORMAT,
        "version": JOURNAL_VERSION,
        "config": engine.config(),
        "applied_batches": engine.applied_batches,
        "relations": relations,
    }


def save_journal(engine: "IncrementalNormalizer", path: str | Path) -> None:
    """Atomically write the engine's journal."""
    path = Path(path)
    payload = json.dumps(journal_to_json(engine), indent=2)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        raise CheckpointError(f"cannot write journal {path}: {exc}") from exc


def load_journal(path: str | Path) -> dict:
    """Read and validate a journal document."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise CheckpointError(f"cannot read journal {path}: {exc}") from exc
    except ValueError as exc:
        raise CheckpointError(f"journal {path} is not valid JSON: {exc}") from exc
    if payload.get("format") != JOURNAL_FORMAT:
        raise CheckpointError(
            f"not an incremental journal (format={payload.get('format')!r})"
        )
    if payload.get("version") != JOURNAL_VERSION:
        raise CheckpointError(
            f"unsupported journal version {payload.get('version')!r} "
            f"(this build reads version {JOURNAL_VERSION})"
        )
    return payload


def resume_engine(
    sources: Sequence[RelationInstance],
    batches: Sequence["ChangeBatch"],
    journal_path: str | Path,
    **engine_kwargs,
) -> "IncrementalNormalizer":
    """Rebuild an engine from its journal, original data, and change log.

    ``batches`` must be the same change log the killed run was
    consuming; the journal's already-applied prefix is replayed as raw
    data edits (no discovery, no per-batch refresh), the covers are
    restored verbatim, and a single refresh re-materializes the
    normalized result.  The caller then continues with
    ``batches[engine.applied_batches:]``.
    """
    from repro.incremental.cover import IncrementalCover
    from repro.incremental.engine import IncrementalNormalizer

    state = load_journal(journal_path)
    engine = IncrementalNormalizer(
        list(sources),
        journal_path=journal_path,
        defer_initial_run=True,
        **engine_kwargs,
    )
    # Every knob of this build must match; a key it has no knob for
    # (DUCC's random-walk seed, which never changed a key it found) is
    # skipped, as pipeline checkpoints skip it.
    config = engine.config()
    recorded = state["config"]
    if not isinstance(recorded, dict) or {
        key: recorded.get(key) for key in config
    } != config:
        raise CheckpointError(
            "journal was written with a different configuration: "
            f"{recorded} != {config}"
        )
    applied = state["applied_batches"]
    if not isinstance(applied, int) or applied < 0 or applied > len(batches):
        raise CheckpointError(
            f"journal records {applied!r} applied batches but the change "
            f"log has {len(batches)}"
        )

    try:
        for batch in list(batches)[:applied]:
            name = engine._resolve_relation(batch)
            live = engine.live(name)
            if batch.deletes:
                live.delete_ids(batch.deletes)
            if batch.inserts:
                live.insert_rows(batch.inserts)

        journal_names = [entry["name"] for entry in state["relations"]]
        if sorted(journal_names) != sorted(engine.relation_names()):
            raise CheckpointError(
                f"journal covers relations {sorted(journal_names)} but the "
                f"engine manages {sorted(engine.relation_names())}"
            )
        for entry in state["relations"]:
            live = engine.live(entry["name"])
            columns = live.columns
            if tuple(entry["columns"]) != columns:
                raise CheckpointError(
                    f"journal columns {entry['columns']} do not match "
                    f"relation {entry['name']!r} columns {list(columns)}"
                )
            if list(entry["row_ids"]) != live.row_ids or int(
                entry["next_row_id"]
            ) != live.next_row_id:
                raise CheckpointError(
                    f"replaying the change log for {entry['name']!r} "
                    "produced different row ids than the journal records; "
                    "the change log was modified since the journal was "
                    "written"
                )
            fds, _ = fdset_from_json(entry["fd_cover"])
            uccs = [
                mask_of_names(names, columns) for names in entry["uccs"]
            ]
            cover = IncrementalCover(
                live.arity, fds, uccs, engine.null_equals_null
            )
            if entry["pair_counts"] is not None:
                cover.pair_counts = Counter(
                    {
                        int(mask): int(count)
                        for mask, count in entry["pair_counts"]
                    }
                )
            engine._covers[entry["name"]] = cover
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed journal document: {exc}") from exc

    engine.applied_batches = applied
    engine._refresh()
    return engine
