"""Constraint scoring — the paper's §7 quality features.

All syntactically valid keys and violating FDs are equally *correct*;
the features below score how likely each is to be a semantically *true*
constraint, so candidates can be ranked for the (semi-)automatic
selection.  The formulas follow §7 exactly:

Primary-key candidates ``X`` (mean of three scores):

* length  — ``1/|X|``: designers prefer short keys,
* value   — ``1/max(1, maxlen(X) − 7)``: key values are short; values
  of multi-attribute keys are concatenated,
* position — ``(1/(left(X)+1) + 1/(between(X)+1)) / 2``: keys sit left
  and contiguous in the column order.

Violating FDs ``X → Y`` (mean of four scores):

* length  — ``(1/|X| + |Y|/(|R|−2)) / 2``: short LHS (it becomes a
  key), long RHS (larger split-off relation, higher confidence).  The
  RHS can be at most ``|R|−2`` attributes long, which normalizes the
  second term,
* value   — as for keys, on ``X``,
* position — ``(1/(between(X)+1) + 1/(between(Y)+1)) / 2``: coherent
  FDs have contiguous sides; the gap *between* the sides is ignored,
* duplication — ``(2 − uniq(X)/n − uniq(Y)/n) / 2``: many duplicates
  mean much removable redundancy, and duplicate LHS values that never
  violate the FD are evidence it is no accident.  Distinct counts are
  estimated with Bloom filters (``exact=True`` switches to exact
  counting, used by the ablation benchmark).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.model.attributes import count_bits
from repro.model.fd import FD
from repro.model.instance import RelationInstance
from repro.runtime.governor import checkpoint, in_blocks
from repro.structures.bloom import BloomFilter

__all__ = [
    "DistinctEstimator",
    "KeyScore",
    "ViolatingFDScore",
    "rank_keys",
    "rank_violating_fds",
    "score_key",
    "score_violating_fd",
]


# ----------------------------------------------------------------------
# Shared feature helpers
# ----------------------------------------------------------------------
def _length_score_key(mask: int) -> float:
    return 1.0 / max(1, count_bits(mask))


def _value_score(instance: RelationInstance, mask: int) -> float:
    return 1.0 / max(1, instance.max_value_length(mask) - 7)


def _left_count(mask: int) -> int:
    """Attributes positioned before the first attribute of ``mask``."""
    if not mask:
        return 0
    return (mask & -mask).bit_length() - 1


def _between_count(mask: int) -> int:
    """Non-member attributes between the first and last member of ``mask``."""
    if not mask:
        return 0
    span = mask.bit_length() - _left_count(mask)
    return span - count_bits(mask)


class DistinctEstimator:
    """Bloom-filter distinct-count estimation per attribute set (§7.2).

    One filter per queried mask, sized for the row count; estimates are
    cached.  ``exact=True`` bypasses the filters and counts exactly —
    slower, but useful as a baseline and in tests.
    """

    def __init__(self, instance: RelationInstance, exact: bool = False) -> None:
        self.instance = instance
        self.exact = exact
        self._cache: dict[int, float] = {}

    def distinct(self, mask: int) -> float:
        cached = self._cache.get(mask)
        if cached is None:
            if self.exact:
                checkpoint("scoring", units=max(self.instance.num_rows, 1))
                cached = float(self.instance.distinct_count(mask))
            else:
                bloom = BloomFilter.with_capacity(max(16, self.instance.num_rows))
                rows = self.instance.iter_projected_rows(mask)
                for block in in_blocks(rows, "scoring"):
                    for row in block:
                        bloom.add(row)
                cached = bloom.estimated_cardinality()
            self._cache[mask] = cached
        return cached

    def duplication_ratio(self, mask: int) -> float:
        """``1 − uniq(mask)/n``, clamped into [0, 1]."""
        rows = self.instance.num_rows
        if rows == 0:
            return 0.0
        return min(1.0, max(0.0, 1.0 - self.distinct(mask) / rows))


# ----------------------------------------------------------------------
# Primary-key scoring (§7.1)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class KeyScore:
    """A key candidate with its §7.1 feature scores."""

    key: int
    length_score: float
    value_score: float
    position_score: float

    @property
    def total(self) -> float:
        """Mean of the individual scores; a perfect key scores 1.0."""
        return (self.length_score + self.value_score + self.position_score) / 3.0


def score_key(instance: RelationInstance, key: int) -> KeyScore:
    """Score one key candidate of ``instance`` (bitmask) per §7.1."""
    position = 0.5 * (
        1.0 / (_left_count(key) + 1) + 1.0 / (_between_count(key) + 1)
    )
    return KeyScore(
        key=key,
        length_score=_length_score_key(key),
        value_score=_value_score(instance, key),
        position_score=position,
    )


def rank_keys(instance: RelationInstance, keys: list[int]) -> list[KeyScore]:
    """Score and rank key candidates, best first (deterministic ties)."""
    scored = [score_key(instance, key) for key in keys]
    scored.sort(key=lambda s: (-s.total, count_bits(s.key), s.key))
    return scored


# ----------------------------------------------------------------------
# Violating-FD scoring (§7.2)
# ----------------------------------------------------------------------
@dataclass(frozen=True, slots=True)
class ViolatingFDScore:
    """A violating FD with its §7.2 foreign-key-quality feature scores."""

    fd: FD
    length_score: float
    value_score: float
    position_score: float
    duplication_score: float

    @property
    def total(self) -> float:
        """Mean of the individual scores."""
        return (
            self.length_score
            + self.value_score
            + self.position_score
            + self.duplication_score
        ) / 4.0


def score_violating_fd(
    instance: RelationInstance,
    fd: FD,
    estimator: DistinctEstimator | None = None,
    features: tuple[str, ...] = ("length", "value", "position", "duplication"),
) -> ViolatingFDScore:
    """Score a violating FD as a foreign-key candidate per §7.2.

    ``features`` allows ablation: scores of disabled features are fixed
    to 0.5 (neutral), so the mean stays comparable.
    """
    if estimator is None:
        estimator = DistinctEstimator(instance)
    arity = instance.arity
    rhs_capacity = max(1, arity - 2)

    length = 0.5 * (
        1.0 / max(1, count_bits(fd.lhs)) + count_bits(fd.rhs) / rhs_capacity
    )
    value = _value_score(instance, fd.lhs)
    position = 0.5 * (
        1.0 / (_between_count(fd.lhs) + 1) + 1.0 / (_between_count(fd.rhs) + 1)
    )
    # 0.5 * (2 - uniq(X)/n - uniq(Y)/n) == 0.5 * (dup(X) + dup(Y))
    # with dup = 1 - uniq/n.
    if "duplication" in features:
        duplication = 0.5 * (
            estimator.duplication_ratio(fd.lhs)
            + estimator.duplication_ratio(fd.rhs)
        )
    else:
        duplication = 0.5
    return ViolatingFDScore(
        fd=fd,
        length_score=length if "length" in features else 0.5,
        value_score=value if "value" in features else 0.5,
        position_score=position if "position" in features else 0.5,
        duplication_score=duplication,
    )


def rank_violating_fds(
    instance: RelationInstance,
    violating: list[FD],
    estimator: DistinctEstimator | None = None,
    features: tuple[str, ...] = ("length", "value", "position", "duplication"),
) -> list[ViolatingFDScore]:
    """Score and rank violating FDs, best first (deterministic ties)."""
    if estimator is None:
        estimator = DistinctEstimator(instance)
    scored = [
        score_violating_fd(instance, fd, estimator, features) for fd in violating
    ]
    scored.sort(
        key=lambda s: (-s.total, count_bits(s.fd.lhs), s.fd.lhs, s.fd.rhs)
    )
    return scored


def shared_rhs_attributes(fd: FD, others: list[FD]) -> int:
    """RHS attributes of ``fd`` that other violating FDs also determine.

    The paper presents these to the user, who may remove them from the
    chosen FD's RHS so a later decomposition can use them (§7.2 end).
    """
    shared = 0
    for other in others:
        if other.lhs != fd.lhs or other.rhs != fd.rhs:
            shared |= fd.rhs & other.rhs
    return shared
