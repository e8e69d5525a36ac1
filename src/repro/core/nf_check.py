"""Normal-form checking: the read-only inverse of Normalize.

Given an instance, report whether it satisfies BCNF (or 3NF/4NF) and,
if not, which dependencies violate it.  This is the question the
paper's step (4) answers internally — "Given a set of FDs and a
relational schema that embodies it, does the schema violate BCNF?"
(Beeri & Bernstein's NP-complete membership problem, §1) — exposed as
a public API so a user can audit existing schemas without normalizing
them.

The checker runs the same pipeline prefix as Normalize (discovery →
closure → key derivation → Algorithm 4), so its verdicts match what
the normalizer would act on, including the NULL/empty-LHS exemptions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.closure import optimized_closure
from repro.core.key_derivation import derive_keys
from repro.core.violations import find_violating_fds
from repro.discovery.base import FDAlgorithm, discover_fds
from repro.model.fd import FD
from repro.model.instance import RelationInstance

__all__ = ["NormalFormReport", "check_normal_form"]


@dataclass(slots=True)
class NormalFormReport:
    """The verdict for one relation instance."""

    relation: str
    target: str
    conforms: bool
    violating_fds: list[FD] = field(default_factory=list)
    violating_mvds: list = field(default_factory=list)
    keys: list[int] = field(default_factory=list)
    num_fds: int = 0

    def to_str(self, columns) -> str:
        verdict = "conforms to" if self.conforms else "VIOLATES"
        lines = [
            f"{self.relation!r} {verdict} {self.target.upper()} "
            f"({self.num_fds} minimal FDs, {len(self.keys)} derivable keys)"
        ]
        for fd in self.violating_fds:
            lines.append(f"  violating FD:  {fd.to_str(columns)}")
        for mvd in self.violating_mvds:
            lines.append(f"  violating MVD: {mvd.to_str(columns)}")
        return "\n".join(lines)


def check_normal_form(
    instance: RelationInstance,
    target: str = "bcnf",
    algorithm: FDAlgorithm | str = "hyfd",
    null_equals_null: bool = True,
    max_mvd_lhs_size: int = 2,
) -> NormalFormReport:
    """Check one relation for BCNF / 3NF / 4NF conformance.

    ``target="4nf"`` additionally discovers MVDs (LHS size bounded by
    ``max_mvd_lhs_size``) and reports the non-FD MVDs whose LHS is no
    superkey; the FD part of the 4NF check is the BCNF check.
    """
    targets = ("bcnf", "3nf", "4nf")
    if target not in targets:
        raise ValueError(f"unknown target {target!r}; choose from {targets}")

    if isinstance(algorithm, str):
        fds = discover_fds(
            instance, algorithm, null_equals_null=null_equals_null
        )
    else:
        fds = algorithm.discover(instance)
    extended = optimized_closure(fds)
    keys = derive_keys(extended, instance.full_mask())

    fd_target = "3nf" if target == "3nf" else "bcnf"
    violating = find_violating_fds(
        extended,
        keys,
        null_mask=instance.null_mask(),
        primary_key=instance.relation.primary_key_mask,
        foreign_keys=instance.relation.foreign_key_masks(),
        target=fd_target,
    )

    violating_mvds: list = []
    if target == "4nf" and instance.arity >= 3:
        from repro.discovery.ucc import DuccUCC
        from repro.extensions.mvd import discover_mvds
        from repro.structures.settrie import SetTrie

        key_trie = SetTrie()
        for key in DuccUCC(null_equals_null=null_equals_null).discover(
            instance
        ):
            key_trie.insert(key)
        for mvd in discover_mvds(
            instance,
            max_lhs_size=min(max_mvd_lhs_size, instance.arity - 2),
            null_equals_null=null_equals_null,
        ):
            if mvd.lhs == 0 or instance.has_null_in(mvd.lhs):
                continue
            if not key_trie.contains_subset_of(mvd.lhs):
                violating_mvds.append(mvd)

    return NormalFormReport(
        relation=instance.name,
        target=target,
        conforms=not violating and not violating_mvds,
        violating_fds=violating,
        violating_mvds=violating_mvds,
        keys=keys,
        num_fds=fds.count_single_rhs(),
    )
