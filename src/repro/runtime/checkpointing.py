"""Pipeline checkpoint state: record progress, replay it on resume.

A long normalization run is a sequence of *expensive facts* (the
discovered FD sets) followed by a sequence of *decisions* (which
violating FD to decompose on, what RHS to keep, which primary key to
assign).  Both are recorded into a :class:`PipelineState` as they
happen and flushed to disk after every event (atomic write: tmp +
rename), so a run killed at any point loses at most the step in
flight.

On resume the state is loaded, validated against the run's
configuration and input columns, and consumed front-to-back: relations
whose FDs are recorded skip discovery entirely, and recorded decisions
are *replayed by content* — the resumed ranking must contain the
recorded FD, which both restores the original choice and verifies the
replay is consistent.  Everything downstream of the recorded prefix is
recomputed, which the deterministic pipeline turns into the identical
final schema.

The JSON wire format lives in :mod:`repro.io.serialization`
(``checkpoint_to_json`` / ``checkpoint_from_json``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.model.fd import FDSet
from repro.runtime.degrade import RelationFidelity
from repro.runtime.errors import CheckpointError

__all__ = ["PipelineState", "load_state", "save_state"]

CHECKPOINT_FORMAT = "repro/pipeline-checkpoint"
CHECKPOINT_VERSION = 1

#: The ``algorithm`` older builds recorded for sampled discovery
#: (``repro --approximate``), which no build can run any more.  Its
#: FDs are replayed with the unsound fidelity recorded beside them, so
#: whatever discoverer the resuming run has may continue it.
SAMPLED_ALGORITHM = "sampled-g3"


@dataclass(slots=True)
class PipelineState:
    """Everything a killed run needs to continue where it stopped.

    ``config`` pins the pipeline knobs that influence the outcome
    (algorithm, target, closure, NULL semantics, scoring); resuming
    under different knobs is refused.  ``discovered`` maps input
    relation names to their minimal FD sets; ``fidelity`` keeps the
    per-relation fidelity verdicts alongside.  ``decisions`` is the
    ordered decision log (see :meth:`record_decision`).
    """

    config: dict[str, Any] = field(default_factory=dict)
    inputs: list[dict[str, Any]] = field(default_factory=list)
    discovered: dict[str, FDSet] = field(default_factory=dict)
    fidelity: dict[str, RelationFidelity] = field(default_factory=dict)
    decisions: list[dict[str, Any]] = field(default_factory=list)
    complete: bool = False
    #: replay cursor — not serialized; advanced by :meth:`next_decision`
    cursor: int = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_inputs(self, instances) -> None:
        self.inputs = [
            {"name": instance.name, "columns": list(instance.columns)}
            for instance in instances
        ]

    def record_discovery(
        self, name: str, fds: FDSet, fidelity: RelationFidelity
    ) -> None:
        self.discovered[name] = fds.copy()
        self.fidelity[name] = fidelity

    def record_decision(self, decision: dict[str, Any]) -> None:
        """Append one decision event.

        Shapes:
            {"kind": "fd", "relation": R, "lhs": [...], "rhs": [...],
             "edited_rhs": [...], "refuted_rhs": [...]}
                                              — decomposition chosen; an
                                                empty ``edited_rhs`` with a
                                                non-empty ``refuted_rhs``
                                                means the FD did not hold
                                                and R was re-ranked
            {"kind": "stop", "relation": R}   — user stopped the relation
            {"kind": "key", "relation": R, "key": [...] | None}
        """
        self.decisions.append(decision)
        # Freshly recorded decisions must never be replayed by the run
        # that recorded them (a resumed run appends past the prefix).
        self.cursor = len(self.decisions)

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    @property
    def replaying(self) -> bool:
        return self.cursor < len(self.decisions)

    def next_decision(self, kind: str, relation: str) -> dict[str, Any] | None:
        """Pop the next recorded decision, validating it matches the
        replay position; ``None`` once the recorded prefix is spent."""
        if self.cursor >= len(self.decisions):
            return None
        decision = self.decisions[self.cursor]
        if kind in ("fd", "stop") and decision.get("kind") == "key":
            # The decomposition prefix is spent; the log continues with
            # the key-selection phase recorded by the interrupted run.
            return None
        if decision.get("relation") != relation:
            raise CheckpointError(
                f"checkpoint replay diverged: expected a decision for "
                f"relation {relation!r} but the log has "
                f"{decision.get('relation')!r} (decision #{self.cursor})"
            )
        if decision.get("kind") != kind and not (
            kind == "fd" and decision.get("kind") == "stop"
        ):
            raise CheckpointError(
                f"checkpoint replay diverged: expected kind {kind!r} but "
                f"the log has {decision.get('kind')!r} "
                f"(decision #{self.cursor})"
            )
        self.cursor += 1
        return decision

    # ------------------------------------------------------------------
    # Validation against a resuming run
    # ------------------------------------------------------------------
    def validate_against(self, config: dict[str, Any], instances) -> None:
        for key, value in self.config.items():
            if key == "algorithm" and value == SAMPLED_ALGORITHM:
                continue
            if key in config and config[key] != value:
                raise CheckpointError(
                    f"checkpoint was written with {key}={value!r} but this "
                    f"run uses {key}={config[key]!r}; refusing to resume"
                )
        recorded = {
            entry["name"]: tuple(entry["columns"]) for entry in self.inputs
        }
        current = {
            instance.name: tuple(instance.columns) for instance in instances
        }
        if recorded and recorded != current:
            raise CheckpointError(
                "checkpoint inputs do not match this run's relations "
                f"(checkpoint: {sorted(recorded)}, run: {sorted(current)})"
            )


# ----------------------------------------------------------------------
# Disk round-trip (format in repro.io.serialization)
# ----------------------------------------------------------------------
def write_durably(path: str | Path, text: str) -> None:
    """Replace ``path`` with ``text`` atomically and durably.

    Writes a sibling ``.tmp`` file, fsyncs it, renames it over ``path``
    and fsyncs the directory, so a crash or power cut leaves either the
    old file or the whole new one, and a completed call survives.
    Raises ``OSError``; callers map it to their own errors.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def save_state(state: PipelineState, path: str | Path) -> None:
    """Atomically persist ``state`` (see :func:`write_durably`)."""
    import json

    from repro.io.serialization import checkpoint_to_json

    write_durably(path, json.dumps(checkpoint_to_json(state), indent=2))


def load_state(path: str | Path) -> PipelineState:
    """Load a checkpoint; raises :class:`CheckpointError` on any defect."""
    import json

    from repro.io.serialization import checkpoint_from_json

    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise CheckpointError(f"checkpoint file not found: {path}") from None
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    return checkpoint_from_json(payload)
