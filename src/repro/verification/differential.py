"""Differential execution of FD and UCC discoverers.

All complete FD discoverers must produce the *identical* set of minimal
non-trivial FDs on any instance — that is the contract the optimized
closure (Algorithm 3, Lemma 1) builds on.  The differential runner makes
the contract executable: run every algorithm on the same instance,
canonicalize the outputs, and report each pairwise disagreement against
a baseline (the brute-force definitional oracle by default).  The same
treatment applies to UCC discovery (NaiveUCC / DUCC / HyUCC), which the
primary-key selection step depends on.

Alongside the cross-algorithm diff, :func:`semantic_fd_errors` checks a
single discoverer's output against the *definition* of a minimal FD —
soundness (every reported FD holds, verified by grouping rows),
minimality (no immediate LHS generalization holds), and planted-cover
containment (every dependency known to hold is implied).  This catches
the pathological case of all discoverers agreeing on a wrong answer.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from repro.discovery.base import FDAlgorithm, resolve_fd_algorithm
from repro.discovery.ucc import resolve_ucc_algorithm
from repro.model.attributes import iter_bits, names_of
from repro.model.fd import FD, FDSet
from repro.model.instance import RelationInstance
from repro.structures.partitions import column_value_ids

__all__ = [
    "DEFAULT_FD_ALGORITHMS",
    "DEFAULT_UCC_ALGORITHMS",
    "Disagreement",
    "attribute_closure",
    "canonical_fds",
    "fd_holds_in",
    "run_fd_differential",
    "run_ucc_differential",
    "semantic_fd_errors",
]

#: baseline first: the brute-force oracle defines the expected output.
DEFAULT_FD_ALGORITHMS: tuple[str, ...] = ("bruteforce", "tane", "hyfd")
DEFAULT_UCC_ALGORITHMS: tuple[str, ...] = ("naive", "ducc", "hyucc")


@dataclass(slots=True)
class Disagreement:
    """One algorithm disagreeing with the baseline on one instance."""

    kind: str  # "fd" | "ucc"
    baseline: str
    algorithm: str
    null_equals_null: bool
    #: canonical items present in the baseline but missing here
    missing: tuple = ()
    #: canonical items reported here but absent from the baseline
    extra: tuple = ()

    def describe(self, columns: Sequence[str]) -> str:
        def render(item) -> str:
            if self.kind == "fd":
                lhs, attr = item
                lhs_names = ",".join(names_of(lhs, columns)) or "{}"
                return f"{lhs_names} -> {columns[attr]}"
            return "{" + ",".join(names_of(item, columns)) + "}"

        parts = [
            f"[{self.kind}] {self.algorithm} vs {self.baseline} "
            f"(null_equals_null={self.null_equals_null})"
        ]
        for label, items in (("missing", self.missing), ("extra", self.extra)):
            if items:
                parts.append(
                    f"  {label}: " + "; ".join(render(item) for item in items)
                )
        return "\n".join(parts)


def canonical_fds(fds: FDSet) -> frozenset[tuple[int, int]]:
    """Single-RHS canonical form: ``{(lhs_mask, rhs_attr_index)}``."""
    out = set()
    for lhs, rhs in fds.items():
        for attr in iter_bits(rhs):
            out.add((lhs, attr))
    return frozenset(out)


def _resolve_fd(
    algorithms: Mapping[str, FDAlgorithm | str] | Sequence[str] | None,
    null_equals_null: bool,
    max_lhs_size: int | None,
) -> list[tuple[str, FDAlgorithm]]:
    """Normalize the ``algorithms`` argument to ``(name, instance)`` pairs.

    Names are resolved with the given semantics; pre-built
    :class:`FDAlgorithm` objects (e.g. deliberately corrupted mutants in
    the harness's own smoke tests) are used as handed in.
    """
    if algorithms is None:
        algorithms = DEFAULT_FD_ALGORITHMS
    if not isinstance(algorithms, Mapping):
        algorithms = {name: name for name in algorithms}
    resolved: list[tuple[str, FDAlgorithm]] = []
    for label, algo in algorithms.items():
        if isinstance(algo, str):
            algo = resolve_fd_algorithm(
                algo,
                null_equals_null=null_equals_null,
                max_lhs_size=max_lhs_size,
            )
        resolved.append((label, algo))
    if len(resolved) < 2:
        raise ValueError("differential execution needs at least two algorithms")
    return resolved


def run_fd_differential(
    instance: RelationInstance,
    algorithms: Mapping[str, FDAlgorithm | str] | Sequence[str] | None = None,
    null_equals_null: bool = True,
    max_lhs_size: int | None = None,
) -> list[Disagreement]:
    """Run all FD discoverers on ``instance`` and diff against the first.

    Returns one :class:`Disagreement` per algorithm that deviates from
    the baseline (the first entry — brute force by default); an empty
    list means unanimous agreement.
    """
    resolved = _resolve_fd(algorithms, null_equals_null, max_lhs_size)
    baseline_name, baseline_algo = resolved[0]
    expected = canonical_fds(baseline_algo.discover(instance))
    disagreements: list[Disagreement] = []
    for label, algo in resolved[1:]:
        got = canonical_fds(algo.discover(instance))
        if got != expected:
            disagreements.append(
                Disagreement(
                    kind="fd",
                    baseline=baseline_name,
                    algorithm=label,
                    null_equals_null=null_equals_null,
                    missing=tuple(sorted(expected - got)),
                    extra=tuple(sorted(got - expected)),
                )
            )
    return disagreements


def run_ucc_differential(
    instance: RelationInstance,
    algorithms: Mapping[str, object] | Sequence[str] | None = None,
    null_equals_null: bool = True,
) -> list[Disagreement]:
    """Diff the minimal-UCC discoverers (keys feed primary-key selection)."""
    if algorithms is None:
        algorithms = DEFAULT_UCC_ALGORITHMS
    if not isinstance(algorithms, Mapping):
        algorithms = {name: name for name in algorithms}
    resolved = []
    for label, algo in algorithms.items():
        if isinstance(algo, str):
            algo = resolve_ucc_algorithm(algo, null_equals_null=null_equals_null)
        resolved.append((label, algo))
    if len(resolved) < 2:
        raise ValueError("differential execution needs at least two algorithms")
    baseline_name, baseline_algo = resolved[0]
    expected = frozenset(baseline_algo.discover(instance))
    disagreements: list[Disagreement] = []
    for label, algo in resolved[1:]:
        got = frozenset(algo.discover(instance))
        if got != expected:
            disagreements.append(
                Disagreement(
                    kind="ucc",
                    baseline=baseline_name,
                    algorithm=label,
                    null_equals_null=null_equals_null,
                    missing=tuple(sorted(expected - got)),
                    extra=tuple(sorted(got - expected)),
                )
            )
    return disagreements


# ----------------------------------------------------------------------
# Definition-level semantic checks (independent of every discoverer)
# ----------------------------------------------------------------------
def fd_holds_in(
    instance: RelationInstance,
    lhs: int,
    rhs: int,
    null_equals_null: bool = True,
) -> bool:
    """Does ``lhs → rhs`` hold, straight from the FD definition?

    Groups rows by their LHS value combination and demands a single RHS
    value combination per group; no partitions, no lattice — this is
    the ground truth every optimization must agree with.
    """
    probes = [
        column_value_ids(instance.columns_data[i], null_equals_null)
        for i in range(instance.arity)
    ]
    lhs_bits = list(iter_bits(lhs))
    rhs_bits = list(iter_bits(rhs))
    seen: dict[tuple, tuple] = {}
    for row in range(instance.num_rows):
        key = tuple(probes[i][row] for i in lhs_bits)
        value = tuple(probes[i][row] for i in rhs_bits)
        if seen.setdefault(key, value) != value:
            return False
    return True


def attribute_closure(fds: FDSet, mask: int) -> int:
    """Attribute closure of ``mask`` under ``fds`` (fixpoint iteration)."""
    closure = mask
    changed = True
    while changed:
        changed = False
        for lhs, rhs in fds.items():
            if lhs & ~closure == 0 and rhs & ~closure:
                closure |= rhs
                changed = True
    return closure


@dataclass(slots=True)
class SemanticErrors:
    """Definition-level violations of one discoverer's output."""

    unsound: list[FD] = field(default_factory=list)  # reported, does not hold
    non_minimal: list[FD] = field(default_factory=list)
    #: planted FDs not implied by the reported set
    uncovered: list[FD] = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(self.unsound or self.non_minimal or self.uncovered)

    def describe(self, columns: Sequence[str]) -> str:
        lines = []
        for label, fds in (
            ("unsound", self.unsound),
            ("non-minimal", self.non_minimal),
            ("uncovered planted", self.uncovered),
        ):
            for fd in fds:
                lines.append(f"  {label}: {fd.to_str(columns)}")
        return "\n".join(lines)


def semantic_fd_errors(
    instance: RelationInstance,
    fds: FDSet,
    null_equals_null: bool = True,
    planted_cover: FDSet | None = None,
) -> SemanticErrors:
    """Check a discovered FD set against the definition of minimal FDs.

    * soundness — every reported FD holds in the data,
    * minimality — removing any single LHS attribute breaks the FD,
    * coverage — every FD of ``planted_cover`` (dependencies known to
      hold by construction) is implied by the reported set.
    """
    errors = SemanticErrors()
    for lhs, rhs in fds.items():
        for attr in iter_bits(rhs):
            bit = 1 << attr
            if not fd_holds_in(instance, lhs, bit, null_equals_null):
                errors.unsound.append(FD(lhs, bit))
                continue
            for gone in iter_bits(lhs):
                if fd_holds_in(instance, lhs & ~(1 << gone), bit, null_equals_null):
                    errors.non_minimal.append(FD(lhs, bit))
                    break
    if planted_cover is not None:
        for lhs, rhs in planted_cover.items():
            implied = attribute_closure(fds, lhs)
            if rhs & ~implied:
                errors.uncovered.append(FD(lhs, rhs & ~implied))
    return errors
