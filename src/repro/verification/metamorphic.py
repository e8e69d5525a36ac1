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
* **encode round trip** — the input and every result instance hold the
  codes and decode tables that encoding their decoded rows from scratch
  gives, under both NULL semantics, and normalizing leaves the input
  unchanged,
* **row-order invariance** — a seeded permutation of the input's rows
  normalizes to the same FD cover, byte-identical DDL and the same
  per-relation row multisets (value ids are assigned in row order, so
  nothing downstream may depend on them).
"""

from __future__ import annotations

import random
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass

from repro.core.closure import improved_closure, naive_closure, optimized_closure
from repro.core.nf_check import check_normal_form
from repro.core.normalize import Normalizer
from repro.core.result import NormalizationResult
from repro.core.selection import AutoDecider
from repro.discovery.base import discover_fds
from repro.io.ddl import schema_to_ddl
from repro.model.attributes import mask_of_names, names_of
from repro.model.fd import FD, FDSet
from repro.model.instance import RelationInstance
from repro.model.schema import Relation
from repro.structures.encoding import EncodedRelation
from repro.verification.differential import attribute_closure, canonical_fds

__all__ = [
    "PropertyViolation",
    "check_closure_properties",
    "check_pipeline_properties",
    "check_row_order_invariance",
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
    before = _contents(instance)
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

    # Encode round trip: every instance's storage is canonical, and the
    # run read its input without writing it.
    for part in (instance, *result.instances.values()):
        for nen in (True, False):
            if not _canonical(part, nen):
                violations.append(
                    PropertyViolation(
                        "encode-round-trip",
                        f"relation {part.name!r} (null_equals_null={nen}) "
                        "holds codes that re-encoding its rows changes",
                    )
                )
    if _contents(instance) != before:
        violations.append(
            PropertyViolation("input-unchanged", "normalizing changed the input")
        )
    return violations, result


def _contents(instance: RelationInstance) -> tuple:
    relation = instance.relation
    return (
        list(instance.iter_rows()),
        relation.primary_key,
        list(relation.foreign_keys),
    )


def _canonical(instance: RelationInstance, null_equals_null: bool) -> bool:
    """True iff ``instance`` holds what encoding its decoded rows gives."""
    held = instance.encoded(null_equals_null)
    fresh = EncodedRelation.encode(
        [list(column) for column in instance.columns_data], null_equals_null
    )
    return (
        [list(codes) for codes in held.codes]
        == [list(codes) for codes in fresh.codes]
        and held.cardinalities == fresh.cardinalities
        and held.null_codes == fresh.null_codes
        and held.num_rows == fresh.num_rows
        and (
            not null_equals_null
            or [instance.decode_table(i) for i in range(instance.arity)]
            == fresh.tables
        )
    )


def check_row_order_invariance(
    instance: RelationInstance,
    target: str = "bcnf",
    null_equals_null: bool = True,
    seed: int = 0,
) -> list[PropertyViolation]:
    """Normalize ``instance`` and a seeded permutation of its rows.

    Value ids follow row order, so a shuffle renumbers every code; the
    two runs must still agree on the discovered cover, the DDL byte for
    byte, and each result relation's rows as a multiset.
    """
    rows = list(instance.iter_rows())
    random.Random(seed).shuffle(rows)
    shuffled = RelationInstance.from_rows(instance.relation, rows)
    runs = [
        Normalizer(target=target, null_equals_null=null_equals_null).run(source)
        for source in (instance, shuffled)
    ]
    violations: list[PropertyViolation] = []
    covers = [canonical_fds(run.discovered_fds[instance.name]) for run in runs]
    if covers[0] != covers[1]:
        violations.append(
            PropertyViolation("row-order-cover", "shuffled rows changed the FD cover")
        )
    ddl = [schema_to_ddl(run.schema, run.instances) for run in runs]
    if ddl[0] != ddl[1]:
        violations.append(
            PropertyViolation("row-order-ddl", "shuffled rows changed the DDL")
        )
    contents = [
        {name: _rows(part) for name, part in run.instances.items()} for run in runs
    ]
    if contents[0] != contents[1]:
        violations.append(
            PropertyViolation(
                "row-order-rows", "shuffled rows changed a relation's rows"
            )
        )
    return violations


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
