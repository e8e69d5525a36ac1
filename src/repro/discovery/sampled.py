"""Sampled FD discovery with full-relation g3 verification.

A mode the caller opts into up front — ``repro --approximate`` on the
CLI, with an example in README.md — when an exact cover is too costly.
It is never reached by a budget breach: a breached discovery keeps the
partial FDs it salvaged instead (:mod:`repro.runtime.degrade`).

The procedure follows TANE's error measure [Huhtala et al. 1999] and
the approximate-discovery framing of the paper's §9 discussion:

1. draw a deterministic row sample (order-preserving, seeded),
2. run exact HyFD on the sample — complete for the sample,
3. verify every candidate FD against the **full** relation with the
   g3 error (minimal fraction of rows to drop), keeping those with
   ``g3 <= approx_error``.

With the default ``approx_error = 0.0`` every reported FD holds
exactly on the full relation (the sample only prunes the search
space), so the result is sound but possibly incomplete.  With a
positive error bound the result is an approximate-FD set in the g3
sense.  Either way the measured per-FD errors are retained on the
instance (:attr:`SampledG3FD.last_errors`, :attr:`SampledG3FD.reports`)
so profiles and CLI reports can print the bounds next to the schema.
"""

from __future__ import annotations

from repro.discovery.base import FDAlgorithm
from repro.model.fd import FDSet
from repro.model.instance import RelationInstance
from repro.runtime.errors import BudgetExceeded, InputError
from repro.runtime.governor import checkpoint

__all__ = ["SampledG3FD", "sample_instance_rows"]


class SampledG3FD(FDAlgorithm):
    """Discover FDs on a row sample, then g3-verify on the full data.

    ``sample_rows`` caps the sample size, ``approx_error`` is the g3
    ceiling a candidate must meet to be kept, ``seed`` fixes the sample.

    After each :meth:`discover` call:

    * :attr:`last_sampled_rows` — rows actually sampled, or ``None``
      when the relation fit inside the sample (the result is exact),
    * :attr:`last_errors` — ``{(lhs_mask, rhs_attr): g3}`` for every
      kept FD,
    * :attr:`last_dropped` — candidates discarded for exceeding the
      error bound,
    * :attr:`reports` — per-relation formatted bound lines, keyed by
      relation name, accumulated across calls (one pipeline run
      discovers every relation through the same instance).
    """

    name = "sampled-g3"

    def __init__(
        self,
        null_equals_null: bool = True,
        max_lhs_size: int | None = None,
        sample_rows: int = 512,
        approx_error: float = 0.0,
        seed: int = 42,
    ) -> None:
        super().__init__(null_equals_null, max_lhs_size)
        if sample_rows < 1:
            raise InputError("sample_rows must be >= 1")
        if not 0.0 <= approx_error < 1.0:
            raise InputError("approx_error must be in [0.0, 1.0)")
        self.sample_rows = sample_rows
        self.approx_error = approx_error
        self.seed = seed
        self.last_sampled_rows: int | None = None
        self.last_errors: dict[tuple[int, int], float] = {}
        self.last_dropped: int = 0
        self.reports: dict[str, list[str]] = {}

    def discover(self, instance: RelationInstance) -> FDSet:
        from repro.discovery.hyfd import HyFD

        self.last_sampled_rows = None
        self.last_errors = {}
        self.last_dropped = 0

        sample, sampled = sample_instance_rows(
            instance, self.sample_rows, self.seed
        )
        candidates = HyFD(
            null_equals_null=self.null_equals_null,
            max_lhs_size=self.max_lhs_size,
        ).discover(sample)

        if sampled == instance.num_rows:
            # The sample covered the relation: exact result, zero error.
            for lhs, rhs_mask in sorted(candidates.items()):
                for attr in _bits(rhs_mask):
                    self.last_errors[(lhs, attr)] = 0.0
            self._record_report(instance)
            return candidates

        self.last_sampled_rows = sampled
        kept = FDSet(instance.arity)
        try:
            for lhs, rhs_mask in sorted(candidates.items()):
                for attr in _bits(rhs_mask):
                    checkpoint(
                        "sampled-verify", units=max(instance.num_rows, 1)
                    )
                    error = _g3(instance, lhs, attr, self.null_equals_null)
                    if error <= self.approx_error:
                        kept.add_masks(lhs, 1 << attr)
                        self.last_errors[(lhs, attr)] = error
                    else:
                        self.last_dropped += 1
        except BudgetExceeded as exc:
            # Unverified candidates are dropped, never trusted.
            exc.partial = kept
            exc.partial_exact = self.approx_error == 0.0
            raise
        self._record_report(instance)
        return kept

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _record_report(self, instance: RelationInstance) -> None:
        lines = self.format_bounds(instance.columns)
        self.reports[instance.name] = lines

    def format_bounds(self, columns) -> list[str]:
        """Human-readable ``lhs -> rhs: g3=...`` lines, sorted."""

        def attr_names(mask: int) -> str:
            names = [columns[i] for i in _bits(mask)]
            return ",".join(names) if names else "{}"

        lines = []
        for (lhs, attr), error in sorted(self.last_errors.items()):
            lines.append(
                f"{attr_names(lhs)} -> {columns[attr]}: g3={error:.4f}"
            )
        if self.last_dropped:
            lines.append(
                f"({self.last_dropped} sampled candidates exceeded "
                f"the g3 bound {self.approx_error} and were dropped)"
            )
        return lines


def sample_instance_rows(
    instance: RelationInstance, sample_rows: int, seed: int
) -> tuple[RelationInstance, int]:
    """Deterministic row sample (order-preserving); returns (sample, n)."""
    import random

    rows = instance.num_rows
    if rows <= sample_rows:
        return instance, rows
    picked = sorted(random.Random(seed).sample(range(rows), sample_rows))
    columns_data = [
        [column[i] for i in picked] for column in instance.columns_data
    ]
    return (
        RelationInstance(instance.relation, columns_data),
        sample_rows,
    )


def _g3(instance, lhs, attr, null_equals_null) -> float:
    from repro.extensions.approximate import g3_error

    return g3_error(instance, lhs, attr, null_equals_null)


def _bits(mask: int):
    attr = 0
    while mask:
        if mask & 1:
            yield attr
        mask >>= 1
        attr += 1
