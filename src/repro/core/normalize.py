"""Normalize — the data-driven (semi-)automatic normalization driver.

This is the paper's Figure 1 wired together:

1. FD discovery (any :class:`~repro.discovery.base.FDAlgorithm`,
   HyFD by default),
2. closure calculation (optimized by default — the discoverers
   guarantee complete minimal input),
3. key derivation,
4. violating-FD identification (BCNF by default, 3NF optional),
5. violating-FD selection (scored, ranked, decided),
6. schema decomposition — back to 3 for both halves,
7. primary-key selection (DUCC key discovery + scoring for relations
   that did not inherit a key).

Steps 1–2 run once per input relation up front; steps 3–6 then run
once per visit of a relation, until it is conform or the decider
stops.

The pipeline is *resource-governed*: give it a
:class:`~repro.runtime.governor.Budget` and every hot loop becomes a
cooperative cancellation point.  Discovery makes one attempt and, on a
breach, keeps the partial FDs it salvaged
(:func:`~repro.runtime.degrade.discover_within_budget`); a breach later
in the pipeline stops that stage with whatever is already conform — the
run always returns a usable, fidelity-tagged
:class:`~repro.core.result.NormalizationResult` instead of dying.
Decomposition on less-than-sound FD sets re-verifies the chosen FD
against the data before splitting, so degraded schemas stay lossless.

With a ``checkpoint_path`` the run journals discovered FD sets and
every decision to disk (atomically, after each event); a killed run
resumes via ``run(..., resume_state=load_state(path))`` and replays the
recorded prefix into the identical final schema.
"""

from __future__ import annotations

import time
import warnings
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.core.closure import calculate_closure
from repro.core.decomposition import decompose
from repro.core.key_derivation import derive_keys
from repro.core.result import DecompositionStep, NormalizationResult, PipelineStats
from repro.core.scoring import (
    DistinctEstimator,
    rank_keys,
    rank_violating_fds,
    shared_rhs_attributes,
)
from repro.core.selection import AutoDecider, Decider
from repro.core.violations import find_violating_fds
from repro.discovery.base import FDAlgorithm, resolve_fd_algorithm
from repro.discovery.ucc import DuccUCC
from repro.model.attributes import iter_bits
from repro.model.fd import FD, FDSet
from repro.model.instance import RelationInstance
from repro.runtime.degrade import (
    FidelityReport,
    RelationFidelity,
    discover_within_budget,
)
from repro.runtime.errors import (
    BudgetExceeded,
    CheckpointError,
    DegradedResultWarning,
    InputError,
)
from repro.runtime.governor import Budget, Governor, activate, suspended

if TYPE_CHECKING:
    from repro.runtime.checkpointing import PipelineState

__all__ = ["Normalizer", "normalize"]


@dataclass(slots=True)
class _WorkItem:
    instance: RelationInstance
    fds: FDSet  # extended (closed) FDs of this relation
    #: every FD is *known to hold* on the data (may still be incomplete)
    sound: bool = True
    #: an input's Table 3 row, until its first visit fills in the keys
    stats: PipelineStats | None = None


@contextmanager
def _timed(
    timings: dict[str, float], stage: str, stats: PipelineStats | None = None
) -> Iterator[None]:
    """Add the stage's seconds to ``timings[stage]`` and, given an input's
    ``stats``, set its ``<stage>_seconds``; a stage that raises adds none."""
    started = time.perf_counter()
    yield
    seconds = time.perf_counter() - started
    timings[stage] += seconds
    if stats is not None:
        setattr(stats, f"{stage}_seconds", seconds)


def _record_breach(
    report: FidelityReport, what: str, exc: BudgetExceeded, outcome: str
) -> None:
    """Tell the fidelity report how the run went on after a breach."""
    with suspended():
        report.events.append(f"{what} by budget breach ({exc.reason}); {outcome}")


class Normalizer:
    """Configurable Normalize pipeline.

    Parameters mirror the paper's degrees of freedom: the discovery
    algorithm, the closure algorithm, the normal form target, the
    decision maker, and the scoring mode (Bloom-estimated vs. exact
    distinct counts).

    :meth:`run` follows Figure 1: it discovers and extends each input,
    then visits relations — each visit derives keys, finds violating
    FDs, ranks them, chooses one and decomposes — and finally picks
    primary keys.  Each stage runs once per visit; its seconds go to
    ``NormalizationResult.timings`` and, for an input's discovery,
    closure and first visit, to the input's ``PipelineStats``.

    Robustness knobs (all optional; the default pipeline is ungoverned
    and behaves exactly as before):

    * ``budget`` — resource ceilings enforced at cooperative
      checkpoints throughout the run,
    * ``degrade`` — on a discovery breach, keep the partial FDs the
      algorithm salvaged instead of propagating the breach,
    * ``checkpoint_path`` — journal progress to this file after every
      discovery and decision (atomic writes),
    * ``fault_plan`` — deterministic fault injection for testing
      (:class:`~repro.runtime.faults.FaultPlan`).
    """

    def __init__(
        self,
        algorithm: FDAlgorithm | str = "hyfd",
        decider: Decider | None = None,
        target: str = "bcnf",
        closure_algorithm: str = "optimized",
        null_equals_null: bool = True,
        max_lhs_size: int | None = None,
        exact_distinct: bool = False,
        score_features: tuple[str, ...] = (
            "length",
            "value",
            "position",
            "duplication",
        ),
        budget: Budget | None = None,
        degrade: bool = True,
        checkpoint_path: str | Path | None = None,
        fault_plan=None,
        workers: int | None = None,
    ) -> None:
        from repro.parallel import resolve_workers

        self.workers = resolve_workers(workers)
        if isinstance(algorithm, str):
            algorithm = resolve_fd_algorithm(
                algorithm,
                workers=self.workers,
                null_equals_null=null_equals_null,
                max_lhs_size=max_lhs_size,
            )
        self.algorithm = algorithm
        self.decider = decider if decider is not None else AutoDecider()
        self.target = target
        self.closure_algorithm = closure_algorithm
        self.null_equals_null = null_equals_null
        self.exact_distinct = exact_distinct
        self.score_features = score_features
        self.budget = budget
        self.degrade = degrade
        self.checkpoint_path = checkpoint_path
        self.fault_plan = fault_plan

    # ------------------------------------------------------------------
    # Pipeline
    # ------------------------------------------------------------------
    def run(
        self,
        data: RelationInstance | Iterable[RelationInstance],
        resume_state: PipelineState | None = None,
    ) -> NormalizationResult:
        """Normalize one or more relation instances into BCNF (or 3NF).

        Pass ``resume_state`` (from
        :func:`repro.runtime.checkpointing.load_state`) to continue a
        killed run: recorded discoveries and decisions are replayed,
        everything after the recorded prefix is recomputed.

        The inputs are never modified, but the result's instances may
        share code vectors with them: an input that is already conform
        comes back as a renamed view of it, and every ``R1`` of a split
        is a column subset of its parent.  Instances are immutable
        except :meth:`~repro.model.instance.RelationInstance.append_rows`,
        which copies shared codes on first write.
        """
        inputs = [data] if isinstance(data, RelationInstance) else list(data)
        if not inputs:
            raise InputError("no input relations given")
        used_names = {instance.name for instance in inputs}
        if len(used_names) != len(inputs):
            raise InputError("input relation names must be unique")

        from repro.runtime.checkpointing import PipelineState

        state = resume_state if resume_state is not None else PipelineState()
        if resume_state is not None:
            state.validate_against(self._config(), inputs)
            state.cursor = 0
            state.complete = False
        else:
            state.config = self._config()
            state.record_inputs(inputs)

        governor = self._make_governor()
        report = FidelityReport()
        timings: dict[str, float] = {
            "fd_discovery": 0.0,
            "closure": 0.0,
            "key_derivation": 0.0,
            "violation_detection": 0.0,
            "selection": 0.0,
            "decomposition": 0.0,
            "primary_key_selection": 0.0,
        }
        stats: list[PipelineStats] = []
        steps: list[DecompositionStep] = []
        stopped: list[str] = []

        with activate(governor):
            # Steps 1–2 per input: discover its FDs, then extend them.
            queue: list[_WorkItem] = []
            discovered: dict[str, FDSet] = {}
            for instance in inputs:
                # Work on a fresh Relation object so callers' schemas
                # are never mutated; the codes are shared.
                instance = instance.rename(instance.name)
                input_stats = PipelineStats(
                    instance.name, instance.arity, instance.num_rows
                )
                with _timed(timings, "fd_discovery", input_stats):
                    fds, fidelity = self._discover(instance, state)
                discovered[instance.name] = fds.copy()
                report.relations[instance.name] = fidelity
                input_stats.num_fds = fds.count_single_rhs()
                input_stats.avg_rhs_before_closure = fds.average_rhs_size()
                try:
                    with _timed(timings, "closure", input_stats):
                        fds = calculate_closure(fds, self._closure_for(fidelity))
                except BudgetExceeded as exc:
                    # Keep the raw (unextended) FDs: fewer violations
                    # will be found, but every decomposition stays sound
                    # and lossless.
                    _record_breach(
                        report,
                        f"closure truncated for {instance.name!r}",
                        exc,
                        "proceeding with unextended FDs",
                    )
                input_stats.avg_rhs_after_closure = fds.average_rhs_size()
                stats.append(input_stats)
                queue.append(
                    _WorkItem(instance, fds, fidelity.sound, input_stats)
                )

            # Steps 3–6: visit relations until each is conform or stopped.
            final: list[_WorkItem] = []
            while queue:
                item = queue.pop()
                try:
                    children = self._normalize_one(
                        item, used_names, steps, timings, stopped, state
                    )
                except BudgetExceeded as exc:
                    final += [item, *queue]
                    _record_breach(
                        report,
                        "decomposition loop stopped",
                        exc,
                        f"{len(final)} relation(s) kept without further "
                        "decomposition",
                    )
                    break
                if children is None:
                    final.append(item)
                else:
                    queue.extend(children)

            # Step 7: primary keys for relations that did not inherit one.
            with _timed(timings, "primary_key_selection"):
                for index, item in enumerate(final):
                    try:
                        self._select_primary_key(item, state, report)
                    except BudgetExceeded as exc:
                        _record_breach(
                            report,
                            "primary-key selection stopped",
                            exc,
                            f"{len(final) - index} relation(s) left without "
                            "a selected key",
                        )
                        break

        state.complete = True
        self._flush(state)

        if governor is not None and report.degraded:
            warnings.warn(
                DegradedResultWarning(
                    "normalization completed at reduced fidelity; see the "
                    "result's fidelity report"
                ),
                stacklevel=2,
            )

        return NormalizationResult(
            instances={item.instance.name: item.instance for item in final},
            steps=steps,
            stats=stats,
            timings=timings,
            originals={instance.name: instance for instance in inputs},
            stopped_relations=stopped,
            discovered_fds=discovered,
            fidelity=report if governor is not None else None,
        )

    # ------------------------------------------------------------------
    # Step 1: discovery (governed: one attempt, salvaged on a breach;
    # replayed: straight from the checkpoint)
    # ------------------------------------------------------------------
    def _discover(
        self, instance: RelationInstance, state: PipelineState
    ) -> tuple[FDSet, RelationFidelity]:
        name = instance.name
        recorded = state.discovered.get(name)
        if recorded is not None:
            fidelity = state.fidelity.get(name) or RelationFidelity(
                relation=name
            )
            return recorded.copy(), fidelity
        fds, fidelity = discover_within_budget(
            instance, self.algorithm, degrade=self.degrade
        )
        state.record_discovery(name, fds, fidelity)
        self._flush(state)
        return fds, fidelity

    # ------------------------------------------------------------------
    # Steps 3–6: one visit of a relation
    # ------------------------------------------------------------------
    def _normalize_one(
        self,
        item: _WorkItem,
        used_names: set[str],
        steps: list[DecompositionStep],
        timings: dict[str, float],
        stopped: list[str],
        state: PipelineState,
    ) -> list[_WorkItem] | None:
        """Return the relations to visit next, or None once it is final."""
        instance = item.instance
        relation = instance.relation

        with _timed(timings, "key_derivation", item.stats):
            keys = derive_keys(item.fds, instance.full_mask())
        with _timed(timings, "violation_detection", item.stats):
            violating = find_violating_fds(
                item.fds,
                keys,
                null_mask=instance.null_mask(),
                primary_key=relation.primary_key_mask,
                foreign_keys=relation.foreign_key_masks(),
                target=self.target,
            )
        if item.stats is not None:
            item.stats.num_fd_keys = len(keys)
            item.stats = None
        if not violating:
            return None

        with _timed(timings, "selection"):
            ranking = rank_violating_fds(
                instance,
                violating,
                DistinctEstimator(instance, exact=self.exact_distinct),
                self.score_features,
            )
            decision = self._choose_fd(item, ranking, state)
        if decision is None:
            stopped.append(instance.name)
            return None
        choice, rhs, refuted = decision
        if refuted and not rhs:
            # The whole candidate was bogus (journaled with an empty
            # ``edited_rhs``, so a resume replays it): re-rank without it.
            return [item]

        chosen = ranking[choice]
        with _timed(timings, "decomposition"):
            lhs_names = relation.names_of(chosen.fd.lhs)
            r2_name = _fresh_name(f"{relation.name}_{lhs_names[0]}", used_names)
            outcome = decompose(
                instance, item.fds, FD(chosen.fd.lhs, rhs), r2_name
            )
        steps.append(
            DecompositionStep(
                parent=relation.name,
                parent_columns=relation.columns,
                r1=outcome.r1.name,
                r2=outcome.r2.name,
                lhs=lhs_names,
                rhs=relation.names_of(rhs & ~chosen.fd.lhs),
                chosen_rank=choice,
                num_candidates=len(ranking),
                score=chosen.total,
            )
        )
        return [
            _WorkItem(outcome.r1, outcome.r1_fds, item.sound),
            _WorkItem(outcome.r2, outcome.r2_fds, item.sound),
        ]

    def _choose_fd(
        self, item: _WorkItem, ranking: list, state: PipelineState
    ) -> tuple[int, int, int] | None:
        """Step 5's decision: replay the journaled one or ask the decider,
        re-verify it on FDs not known to hold, and journal it.

        Returns the chosen rank, the RHS to split off and the RHS
        attributes the data refuted, or None when the relation stops.
        """
        instance = item.instance
        relation = instance.relation
        recorded = state.next_decision("fd", instance.name)
        if recorded is not None:
            if recorded["kind"] == "stop":
                return None
            choice = self._match_recorded(relation, ranking, recorded)
            rhs = relation.mask_of(recorded["edited_rhs"])
            refuted = relation.mask_of(recorded.get("refuted_rhs", ()))
        else:
            choice = self.decider.choose_violating_fd(instance, ranking)
            if choice is None:
                state.record_decision(
                    {"kind": "stop", "relation": instance.name}
                )
                self._flush(state)
                return None
            chosen = ranking[choice]
            shared = shared_rhs_attributes(
                chosen.fd, [score.fd for score in ranking]
            )
            rhs = self.decider.edit_rhs(instance, chosen, shared)

            refuted = 0
            if not item.sound:
                # Degraded FD sets may contain unvalidated candidates:
                # verify the FD actually holds before splitting on it —
                # this is what keeps degraded decompositions lossless.
                verified = self._verified_rhs(instance, chosen.fd.lhs, rhs)
                refuted = (rhs & ~chosen.fd.lhs) & ~verified
                rhs = verified

            state.record_decision(
                {
                    "kind": "fd",
                    "relation": instance.name,
                    "lhs": list(relation.names_of(chosen.fd.lhs)),
                    "rhs": list(relation.names_of(chosen.fd.rhs)),
                    "edited_rhs": list(relation.names_of(rhs)),
                    "refuted_rhs": list(relation.names_of(refuted)),
                }
            )
            self._flush(state)
        if refuted:
            # A replay repeats the recording run's refutation, so the
            # children's projected FD sets match that run's exactly.
            item.fds.remove_masks(ranking[choice].fd.lhs, refuted)
        return choice, rhs, refuted

    @staticmethod
    def _match_recorded(relation, ranking, recorded) -> int:
        """Find the recorded decision's FD in the freshly computed ranking.

        Matching by content (attribute names) both restores the original
        choice and proves the replayed pipeline is still consistent with
        the checkpoint.
        """
        lhs = relation.mask_of(recorded["lhs"])
        rhs = relation.mask_of(recorded["rhs"])
        for index, entry in enumerate(ranking):
            if entry.fd.lhs == lhs and entry.fd.rhs == rhs:
                return index
        raise CheckpointError(
            "checkpoint replay diverged: recorded FD "
            f"{recorded['lhs']} -> {recorded['rhs']} is not among the "
            f"violating FDs of relation {relation.name!r}"
        )

    def _verified_rhs(
        self, instance: RelationInstance, lhs: int, rhs: int
    ) -> int:
        """The subset of ``rhs`` for which ``lhs → attr`` holds exactly."""
        from repro.extensions.approximate import g3_error

        verified = 0
        for attr in iter_bits(rhs & ~lhs):
            if g3_error(instance, lhs, attr, self.null_equals_null) == 0.0:
                verified |= 1 << attr
        return verified

    # ------------------------------------------------------------------
    # Step 7: primary-key selection
    # ------------------------------------------------------------------
    def _select_primary_key(
        self,
        item: _WorkItem,
        state: PipelineState,
        report: FidelityReport,
    ) -> None:
        relation = item.instance.relation
        if relation.primary_key is not None:
            return
        recorded = state.next_decision("key", item.instance.name)
        if recorded is not None:
            if recorded["key"] is not None:
                relation.primary_key = tuple(recorded["key"])
            return
        # The paper uses DUCC here: decompositions never assigned this
        # relation a key, and derived FD keys may miss minimal keys.
        try:
            uccs = DuccUCC(null_equals_null=self.null_equals_null).discover(
                item.instance
            )
        except BudgetExceeded as exc:
            # The lattice search salvages verified minimal UCCs; choose
            # among those rather than leaving the relation keyless.
            if not isinstance(exc.partial, list) or not exc.partial:
                raise
            uccs = exc.partial
            _record_breach(
                report,
                f"key discovery for {item.instance.name!r} truncated",
                exc,
                f"choosing among {len(uccs)} salvaged key candidate(s)",
            )
        with suspended():
            null_mask = item.instance.null_mask()
            candidates = [key for key in uccs if key and not key & null_mask]
            key_names = None
            if candidates:
                ranking = rank_keys(item.instance, candidates)
                choice = self.decider.choose_primary_key(
                    item.instance, ranking
                )
                if choice is not None:
                    key_names = relation.names_of(ranking[choice].key)
                    relation.primary_key = key_names
            state.record_decision(
                {
                    "kind": "key",
                    "relation": item.instance.name,
                    "key": list(key_names) if key_names is not None else None,
                }
            )
            self._flush(state)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _make_governor(self) -> Governor | None:
        if self.budget is not None and not self.budget.unbounded:
            return Governor(self.budget, fault_plan=self.fault_plan)
        if self.fault_plan is not None:
            return Governor(self.budget or Budget(), fault_plan=self.fault_plan)
        return None

    def _closure_for(self, fidelity: RelationFidelity) -> str:
        """Degraded FD sets are not complete minimal input, which the
        optimized closure (Lemma 1) requires — fall back to improved."""
        if self.closure_algorithm == "optimized" and not fidelity.exact:
            return "improved"
        return self.closure_algorithm

    def _config(self) -> dict:
        return {
            "algorithm": getattr(
                self.algorithm, "name", type(self.algorithm).__name__
            ),
            "target": self.target,
            "closure_algorithm": self.closure_algorithm,
            "null_equals_null": self.null_equals_null,
            "max_lhs_size": getattr(self.algorithm, "max_lhs_size", None),
            "exact_distinct": self.exact_distinct,
            "score_features": list(self.score_features),
        }

    def _flush(self, state: PipelineState) -> None:
        if self.checkpoint_path is None:
            return
        from repro.runtime.checkpointing import save_state

        with suspended():
            save_state(state, self.checkpoint_path)


def _fresh_name(base: str, used_names: set[str]) -> str:
    name = base
    suffix = 2
    while name in used_names:
        name = f"{base}_{suffix}"
        suffix += 1
    used_names.add(name)
    return name


def normalize(
    data: RelationInstance | Iterable[RelationInstance], **kwargs
) -> NormalizationResult:
    """One-call front door: ``normalize(instance)`` → BCNF schema.

    Keyword arguments are forwarded to :class:`Normalizer`.
    """
    return Normalizer(**kwargs).run(data)
