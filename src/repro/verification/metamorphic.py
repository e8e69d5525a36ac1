"""Metamorphic properties of the Normalize pipeline.

Instead of comparing against a second implementation, these checks
assert relations *between* runs of the pipeline that must hold for any
input — the algebraic guarantees the paper proves:

* **closure agreement** — Algorithms 1/2/3 (naive, improved, optimized)
  compute the same ``F+`` whenever the input is a complete set of
  minimal FDs (Lemma 1 is what lets Algorithm 3 join the other two),
* **closure idempotence** — closing a closed set changes nothing,
* **normal-form compliance** — every relation the normalizer emits must
  pass the independent :func:`~repro.core.nf_check.check_normal_form`
  audit for the requested target,
* **lossless join** (Lemma 3) — natural-joining the decomposed
  relations back along the recorded foreign keys reproduces the
  original instance row-for-row (as a multiset),
* **dependency preservation** — accounting: which originally discovered
  FDs are no longer enforceable within a single relation of the result.
  BCNF decomposition legitimately loses dependencies (the paper accepts
  this; the classical counterexamples cannot be avoided), so losses are
  reported as accounting only; asserting emptiness is opt-in for
  callers that construct synthesis-style inputs,
* **storage parity** — a list-backed instance and its
  ``write_csv`` → ``read_csv`` round trip (lazy, code-backed columns)
  normalize to byte-identical DDL, and neither run changes its input.
"""

from __future__ import annotations

import tempfile
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

from repro.core.closure import improved_closure, naive_closure, optimized_closure
from repro.core.nf_check import check_normal_form
from repro.core.normalize import Normalizer
from repro.core.result import NormalizationResult
from repro.core.selection import AutoDecider
from repro.discovery.base import discover_fds
from repro.io.csv_io import read_csv, write_csv
from repro.io.ddl import schema_to_ddl
from repro.model.attributes import mask_of_names, names_of
from repro.model.fd import FD, FDSet
from repro.model.instance import RelationInstance
from repro.model.schema import Relation
from repro.verification.differential import attribute_closure, canonical_fds

__all__ = [
    "PropertyViolation",
    "as_text",
    "check_closure_properties",
    "check_pipeline_properties",
    "check_storage_parity",
    "lost_dependencies",
]


@dataclass(slots=True)
class PropertyViolation:
    """One broken metamorphic property."""

    prop: str
    detail: str

    def describe(self) -> str:
        return f"[{self.prop}] {self.detail}"


# ----------------------------------------------------------------------
# Closure layer
# ----------------------------------------------------------------------
def check_closure_properties(fds: FDSet) -> list[PropertyViolation]:
    """Cross-check the three closure algorithms on one FD set.

    ``fds`` must be a complete set of minimal FDs (any discoverer's
    output) — the precondition under which all three algorithms are
    specified to agree.
    """
    violations: list[PropertyViolation] = []
    closed = optimized_closure(fds)
    for label, algorithm in (("naive", naive_closure), ("improved", improved_closure)):
        other = algorithm(fds)
        if canonical_fds(other) != canonical_fds(closed):
            violations.append(
                PropertyViolation(
                    "closure-agreement",
                    f"{label} closure disagrees with optimized closure",
                )
            )
    # Idempotence via the algorithm valid for arbitrary inputs.
    if canonical_fds(improved_closure(closed)) != canonical_fds(closed):
        violations.append(
            PropertyViolation(
                "closure-idempotence", "closing a closed FD set changed it"
            )
        )
    return violations


# ----------------------------------------------------------------------
# Whole-pipeline properties
# ----------------------------------------------------------------------
def lost_dependencies(
    original: RelationInstance,
    result: NormalizationResult,
    audit_algorithm: str = "bruteforce",
) -> list[FD]:
    """FDs of the original not enforceable inside any single final relation.

    Re-discovers the FDs of every final relation, maps them back into
    the original attribute space, and returns each originally discovered
    minimal FD that the union does not imply.  An empty list means the
    decomposition is dependency-preserving.
    """
    union = FDSet(original.arity)
    for part in result.instances.values():
        part_fds = discover_fds(part, audit_algorithm)
        for lhs, rhs in part_fds.items():
            union.add_masks(
                mask_of_names(names_of(lhs, part.columns), original.columns),
                mask_of_names(names_of(rhs, part.columns), original.columns),
            )
    lost: list[FD] = []
    for lhs, rhs in result.discovered_fds[original.name].items():
        implied = attribute_closure(union, lhs)
        if rhs & ~implied:
            lost.append(FD(lhs, rhs & ~implied))
    return lost


def check_pipeline_properties(
    instance: RelationInstance,
    target: str = "bcnf",
    algorithm: str = "hyfd",
    closure_algorithm: str = "optimized",
    audit_algorithm: str = "bruteforce",
    require_dependency_preservation: bool = False,
) -> tuple[list[PropertyViolation], NormalizationResult]:
    """Normalize ``instance`` and check the end-to-end guarantees.

    The audit re-discovers FDs with ``audit_algorithm`` (brute force by
    default) so a bug in the pipeline's discoverer cannot hide itself
    from its own verdict.  Returns the violations plus the result for
    further inspection.
    """
    violations: list[PropertyViolation] = []
    decider = _RecordingDecider()
    result = Normalizer(
        algorithm=algorithm,
        decider=decider,
        target=target,
        closure_algorithm=closure_algorithm,
    ).run(instance)

    # Normal-form compliance of every output relation.  The audit uses
    # the constraint context the decomposition loop actually guaranteed:
    # primary keys selected *afterwards* (step 7, DUCC) are stripped,
    # because Algorithm 4's "never tear the primary key apart" rule is
    # non-monotone in 3NF mode — a late-assigned key removes attributes
    # from violating RHSs, which removes mutual-exclusion vetoes and can
    # resurface decompositions the loop never saw.  (Found by this very
    # harness; see docs/TESTING.md.)
    for part in result.instances.values():
        if part.name in result.stopped_relations:
            continue
        audited = part
        if part.name in decider.step7_relations:
            audited = RelationInstance(
                Relation(
                    part.name,
                    part.columns,
                    foreign_keys=list(part.relation.foreign_keys),
                ),
                part.columns_data,
            )
        report = check_normal_form(
            audited, target=target, algorithm=audit_algorithm
        )
        if not report.conforms:
            rendered = "; ".join(
                fd.to_str(part.columns) for fd in report.violating_fds
            )
            violations.append(
                PropertyViolation(
                    "nf-compliance",
                    f"relation {part.name!r} violates {target}: {rendered}",
                )
            )

    # Lossless join (Lemma 3): rebuild and compare as row multisets.
    try:
        rebuilt = _rows(result.reconstruct(instance.name))
    except ValueError as error:
        violations.append(PropertyViolation("lossless-join", str(error)))
    else:
        expected = _rows(instance)
        if rebuilt != expected:
            spurious = rebuilt - expected
            missing = expected - rebuilt
            violations.append(
                PropertyViolation(
                    "lossless-join",
                    f"reconstruction differs: {sum(missing.values())} rows "
                    f"missing, {sum(spurious.values())} rows spurious",
                )
            )

    # Dependency-preservation accounting.
    lost = lost_dependencies(instance, result, audit_algorithm)
    if lost and require_dependency_preservation:
        rendered = "; ".join(fd.to_str(instance.columns) for fd in lost)
        violations.append(
            PropertyViolation("dependency-preservation", f"lost FDs: {rendered}")
        )
    return violations, result


def as_text(instance: RelationInstance) -> RelationInstance:
    """A bare copy of ``instance`` with every non-NULL cell as ``str``.

    ``read_csv`` reads every value back as ``str``, and the Bloom
    estimator hashes ``repr(row)`` (``repr(12) != repr('12')``), so only
    text cells survive a CSV round trip with the same scores.
    """
    return RelationInstance(
        Relation(instance.name, instance.columns),
        [
            [None if value is None else str(value) for value in column]
            for column in instance.columns_data
        ],
    )


def check_storage_parity(
    instance: RelationInstance, target: str = "bcnf"
) -> list[PropertyViolation]:
    """Normalize ``instance`` and its CSV round trip; compare the DDL.

    ``instance`` should hold text cells (:func:`as_text`).  The round
    trip comes back as lazy views over int32 codes with the encoding
    memoized, the list-backed instance as plain lists: the two storage
    paths must give byte-identical DDL, and neither run may change the
    columns, row count or constraints of its input.
    """
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "relation.csv"
        write_csv(instance, path)
        round_trip = read_csv(path, name=instance.name)
    violations: list[PropertyViolation] = []
    ddl = {}
    for label, source in (("lists", instance), ("csv", round_trip)):
        before = _state(source)
        result = Normalizer(target=target).run(source)
        ddl[label] = schema_to_ddl(result.schema, result.instances)
        if _state(source) != before:
            violations.append(
                PropertyViolation(
                    "storage-input", f"normalizing the {label} input changed it"
                )
            )
    if ddl["lists"] != ddl["csv"]:
        violations.append(
            PropertyViolation(
                "storage-ddl",
                f"{target} DDL of the CSV round trip differs from the "
                "list-backed instance's",
            )
        )
    return violations


def _state(instance: RelationInstance) -> tuple:
    relation = instance.relation
    return (
        [list(column) for column in instance.columns_data],
        instance.num_rows,
        relation.primary_key,
        list(relation.foreign_keys),
    )


class _RecordingDecider(AutoDecider):
    """AutoDecider that remembers which relations got a step-7 key."""

    def __init__(self) -> None:
        self.step7_relations: set[str] = set()

    def choose_primary_key(self, instance, ranking):
        self.step7_relations.add(instance.name)
        return super().choose_primary_key(instance, ranking)


def _rows(instance: RelationInstance) -> Counter:
    return Counter(instance.iter_rows())


def summarize(violations: Sequence[PropertyViolation]) -> str:
    return "\n".join(violation.describe() for violation in violations)
