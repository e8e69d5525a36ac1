"""Stripped partitions (position list indexes) on a flat CSR layout.

A *stripped partition* ``π(X)`` groups the row indices of a relation by
equal values in the attribute set ``X`` and drops singleton clusters
(they can never witness or violate an FD).  This is the classic TANE
representation [Huhtala et al. 1999] that HyFD and DUCC reuse:

* ``X → A`` holds  iff  ``π(X)`` refines ``π(A)``  iff
  ``error(π(X)) == error(π(X ∪ A))``,
* ``X`` is a unique (key candidate) iff ``π(X)`` is empty.

Storage is columnar, not nested: one contiguous ``array('i')`` of row
indices (``row_data``) plus a cluster-offset array (``offsets``), so
cluster ``i`` occupies ``row_data[offsets[i]:offsets[i+1]]``.  Compared
to the former list-of-lists layout this keeps the hot loops (product
intersection, refinement checks) on flat integer arrays and removes a
Python list object per cluster.  ``clusters`` is kept as a materializing
property for compatibility and tests.

The inner loops (grouping, products, violation scans) are *not*
implemented here: every operation dispatches through the
:mod:`repro.kernels` backend layer, which provides an interpreted
pure-Python implementation (always available, the reference) and a
vectorized numpy implementation (optional ``[perf]`` extra).  Both
produce byte-identical CSR output; each call passes its driving
element count to :func:`repro.kernels.for_size`, which picks numpy
for large calls whenever it is importable (see docs/KERNELS.md).

NULL handling is configurable: with ``null_equals_null=True`` (the
Metanome/paper default) all NULLs land in one cluster; otherwise each
NULL is its own singleton and is stripped away.  Value-id probes come
from the shared :mod:`repro.structures.encoding` layer.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro import kernels
from repro.model.attributes import bits_of
from repro.runtime.governor import add_candidates, checkpoint
from repro.structures.encoding import encode_column

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.model.instance import RelationInstance

__all__ = [
    "CacheStats",
    "PLICache",
    "StrippedPartition",
    "column_value_ids",
    "reset_process_state",
]


def reset_process_state() -> None:
    """Reinitialize shared kernel scratch state (fork hygiene).

    Called by forked pool workers on start: the python backend's probe
    buffer is owned by the process that fills it, and a child forked
    while a parent ``intersect`` was in flight would otherwise inherit
    a buffer with live (non ``-1``) entries and silently corrupt its
    first product.  Kernel counters are worker-local and restart at
    zero.
    """
    kernels.reset_process_state()


class StrippedPartition:
    """A stripped partition in CSR form: flat rows + cluster offsets."""

    __slots__ = ("row_data", "offsets", "num_rows")

    def __init__(self, clusters: Sequence[Sequence[int]], num_rows: int) -> None:
        row_data = array("i")
        offsets = array("i", [0])
        for cluster in clusters:
            if len(cluster) > 1:
                row_data.extend(cluster)
                offsets.append(len(row_data))
        self.row_data = row_data
        self.offsets = offsets
        self.num_rows = num_rows

    @classmethod
    def _from_csr(
        cls, row_data: array, offsets: array, num_rows: int
    ) -> "StrippedPartition":
        partition = cls.__new__(cls)
        partition.row_data = row_data
        partition.offsets = offsets
        partition.num_rows = num_rows
        return partition

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_column(
        cls, values: Sequence[Any], null_equals_null: bool = True
    ) -> "StrippedPartition":
        """Build the single-attribute partition of a data column."""
        codes, _, null_code = encode_column(values, null_equals_null)
        return cls.from_value_ids(codes, null_code)

    @classmethod
    def from_value_ids(
        cls, codes: Sequence[int], null_code: int | None = None
    ) -> "StrippedPartition":
        """Build a single-attribute partition from dense value ids.

        ``null_code`` is the shared NULL id (if any); its cluster is
        emitted last, preserving the ordering of the historical
        raw-value grouping.
        """
        kernels.record("pli_from_ids", len(codes))
        row_data, offsets = kernels.for_size(len(codes)).from_value_ids(
            codes, null_code
        )
        return cls._from_csr(row_data, offsets, len(codes))

    @classmethod
    def single_cluster(cls, num_rows: int) -> "StrippedPartition":
        """The partition of the empty attribute set: all rows together."""
        if num_rows <= 1:
            return cls([], num_rows)
        return cls._from_csr(
            array("i", range(num_rows)), array("i", [0, num_rows]), num_rows
        )

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def clusters(self) -> list[list[int]]:
        """Materialized list-of-lists view (compatibility/debugging)."""
        offsets = self.offsets
        row_data = self.row_data
        return [
            list(row_data[offsets[i] : offsets[i + 1]])
            for i in range(len(offsets) - 1)
        ]

    def cluster(self, index: int) -> list[int]:
        """Materialize one cluster by position."""
        return list(self.row_data[self.offsets[index] : self.offsets[index + 1]])

    def iter_clusters(self) -> Iterator[array]:
        """Yield each cluster as an ``array('i')`` slice (no row copies)."""
        offsets = self.offsets
        row_data = self.row_data
        for i in range(len(offsets) - 1):
            yield row_data[offsets[i] : offsets[i + 1]]

    @property
    def num_clusters(self) -> int:
        return len(self.offsets) - 1

    @property
    def num_non_singleton_rows(self) -> int:
        return len(self.row_data)

    @property
    def error(self) -> int:
        """TANE's e(X)·|r|: rows that would have to be removed for a key."""
        return len(self.row_data) - self.num_clusters

    @property
    def is_unique(self) -> bool:
        """True iff the attribute set is a unique column combination."""
        return len(self.offsets) == 1

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def as_probe(self) -> list[int]:
        """Row → cluster id (-1 for stripped singleton rows)."""
        probe = [-1] * self.num_rows
        offsets = self.offsets
        row_data = self.row_data
        for cluster_id in range(len(offsets) - 1):
            for row in row_data[offsets[cluster_id] : offsets[cluster_id + 1]]:
                probe[row] = cluster_id
        return probe

    def intersect(self, other: "StrippedPartition") -> "StrippedPartition":
        """Product partition ``π(X) · π(Y) = π(X ∪ Y)``.

        The standard linear-time stripped-product algorithm on the CSR
        layout (python backend: reusable probe buffer; numpy backend:
        scatter + sort/groupby).
        """
        if self.num_rows != other.num_rows:
            raise ValueError("partitions cover different numbers of rows")
        kernels.record(
            "pli_intersect", len(self.row_data) + len(other.row_data)
        )
        new_rows, new_offsets = kernels.for_size(len(self.row_data)).intersect(
            self.row_data,
            self.offsets,
            self.num_rows,
            other.row_data,
            other.offsets,
        )
        return StrippedPartition._from_csr(new_rows, new_offsets, self.num_rows)

    def intersect_ids(self, codes: Sequence[int]) -> "StrippedPartition":
        """Product with a single attribute given as its value-id vector.

        Equivalent to ``self.intersect(StrippedPartition.from_value_ids(codes))``
        but with no probe fill/reset at all: value ids group rows exactly
        like cluster ids do, and rows that are singletons under ``codes``
        form size-1 groups that the ``len > 1`` filter strips — the same
        rows the ``-1`` probe entries would have skipped.
        """
        kernels.record("pli_intersect_ids", len(self.row_data))
        new_rows, new_offsets = kernels.for_size(len(self.row_data)).intersect_ids(
            self.row_data, self.offsets, self.num_rows, codes
        )
        return StrippedPartition._from_csr(new_rows, new_offsets, self.num_rows)

    def refines_column(self, probe: Sequence[int]) -> bool:
        """True iff every cluster agrees on ``probe`` values (FD check).

        ``probe`` maps row → value id for the RHS attribute, with distinct
        non-negative ids per distinct value; NULL handling must already be
        baked into the ids (same id for all NULLs under null==null).
        """
        kernels.record("scan_refines", len(self.row_data))
        return kernels.for_size(len(self.row_data)).refines_column(
            self.row_data, self.offsets, probe
        )

    def find_violating_pair(self, probe: Sequence[int]) -> tuple[int, int] | None:
        """Return one row pair that agrees on X but differs on the probe.

        Both backends return the *same* pair: the first mismatching row
        in CSR order, paired with its cluster's first row.
        """
        kernels.record("scan_violating_pair", len(self.row_data))
        return kernels.for_size(len(self.row_data)).find_violating_pair(
            self.row_data, self.offsets, probe
        )

    def find_violations(
        self, rhs_attrs: Sequence[int], probes: Sequence[Sequence[int]]
    ) -> dict[int, tuple[int, int]]:
        """Refute many RHS candidates in one sweep over the clusters.

        For each attribute in ``rhs_attrs`` (with its row → value-id
        vector in ``probes``) the result maps refuted attributes to one
        violating row pair — exactly the pair the per-attribute
        :meth:`find_violating_pair` scan would have produced, because
        clusters are visited in the same order and each row is compared
        against its cluster's first row.  Attributes whose FD holds are
        absent from the result.  Each cluster's rows are visited once
        per *still-active* attribute, so validating the whole RHS
        fan-out of an LHS node costs a single pass over the partition
        data instead of one full pass per RHS attribute.
        """
        kernels.record(
            "scan_violations", len(self.row_data) * len(rhs_attrs)
        )
        return kernels.for_size(len(self.row_data)).find_violations(
            self.row_data, self.offsets, rhs_attrs, probes
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StrippedPartition({self.num_clusters} clusters, "
            f"{self.num_rows} rows, error={self.error})"
        )


def column_value_ids(
    values: Sequence[Any], null_equals_null: bool = True
) -> list[int]:
    """Map a column to dense value ids (NULL semantics as configured).

    With ``null_equals_null=False`` every NULL receives a fresh id, so no
    two NULL rows ever "agree".  Thin list wrapper over the columnar
    :func:`repro.structures.encoding.encode_column`.
    """
    codes, _, _ = encode_column(values, null_equals_null)
    return codes.tolist()


@dataclass(slots=True)
class CacheStats:
    """Hit/miss/eviction counters of one :class:`PLICache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "pli_hits": self.hits,
            "pli_misses": self.misses,
            "pli_evictions": self.evictions,
        }


class PLICache:
    """Builds and memoizes stripped partitions per attribute-set mask.

    Single-attribute partitions are precomputed from the shared column
    encoding; a multi-attribute partition is produced by intersecting
    its largest cached subset with the missing single columns, and only
    the partition asked for is cached, never the chain products on the
    way to it.  Cached masks are indexed by popcount so the
    best-cached-subset search inspects large subsets first and stops at
    the first hit instead of scanning the whole cache.

    The empty set and single attributes are permanent.  Multi-attribute
    partitions stay until :meth:`forget_below` drops them.  HyFD's
    validation calls it as it climbs the lattice level by level, so it
    keeps only the frontier its next builds start from; every other
    user (HyUCC, DUCC and the incremental engine) keeps every
    partition it asked for, which laptop-scale inputs afford (see
    DESIGN.md §3).  ``stats`` counts hits, misses, and forgotten
    partitions (``evictions``).
    """

    __slots__ = (
        "null_equals_null",
        "stats",
        "_encoding",
        "_cache",
        "_by_popcount",
    )

    def __init__(
        self,
        instance: RelationInstance | None,
        null_equals_null: bool = True,
        *,
        encoding: Any = None,
        singles: Sequence[StrippedPartition] | None = None,
    ) -> None:
        """Cache the partitions of ``instance`` (its ``encoded()``), or of
        ``encoding`` when one is given (``instance`` may then be None)."""
        self.null_equals_null = null_equals_null
        self.stats = CacheStats()
        self._reset(
            encoding if encoding is not None else instance.encoded(null_equals_null),
            singles,
        )

    def _reset(
        self, encoding: Any, singles: Sequence[StrippedPartition] | None
    ) -> None:
        """(Re)build the permanent entries from an encoding.

        ``singles`` optionally supplies precomputed single-attribute
        partitions (the incremental engine materializes them from its
        delta-maintained clusters); otherwise they are grouped from the
        encoded columns.
        """
        self._encoding = encoding
        self._cache = {0: StrippedPartition.single_cluster(encoding.num_rows)}
        # popcount → masks in insertion order ({mask: None} as ordered set)
        self._by_popcount: dict[int, dict[int, None]] = {}
        if singles is not None and len(singles) != encoding.arity:
            raise ValueError(
                f"expected {encoding.arity} single-attribute partitions, "
                f"got {len(singles)}"
            )
        for index in range(encoding.arity):
            mask = 1 << index
            if singles is not None:
                self._cache[mask] = singles[index]
            else:
                checkpoint("pli", units=max(encoding.num_rows, 1))
                self._cache[mask] = StrippedPartition.from_value_ids(
                    encoding.codes[index], encoding.null_codes[index]
                )
            self._by_popcount.setdefault(1, {})[mask] = None

    def refresh(
        self, encoding: Any, singles: Sequence[StrippedPartition] | None = None
    ) -> None:
        """Invalidate every cached partition after the data changed.

        The incremental engine calls this after applying a batch,
        passing the maintained encoding and (optionally) its
        delta-maintained single-attribute partitions; cumulative
        ``stats`` survive the refresh.
        """
        self._reset(encoding, singles)

    @property
    def encoding(self):
        """The shared column encoding this cache (and its callers) use."""
        return self._encoding

    def get(self, mask: int) -> StrippedPartition:
        """Return (building if necessary) the partition for ``mask``."""
        cached = self._cache.get(mask)
        if cached is not None:
            self.stats.hits += 1
            return cached
        self.stats.misses += 1
        return self._build(mask)

    def _build(self, mask: int) -> StrippedPartition:
        # Greedy: start from the largest cached subset, then intersect in
        # remaining single columns smallest-first (small partitions first
        # keeps intermediate products small).
        best_mask = self._best_cached_subset(mask)
        partition = self._cache[best_mask]
        remaining = list(bits_of(mask & ~best_mask))
        remaining.sort(
            key=lambda i: self._cache[1 << i].num_non_singleton_rows
        )
        # A miss is one candidate, but it also ticks the rows its products
        # walk at most, so the governor probes a tall relation every few
        # misses rather than once per 256 of them.
        add_candidates(1, "pli")
        checkpoint("pli", units=len(partition.row_data) * len(remaining))
        codes = self._encoding.codes
        for index in remaining:
            partition = partition.intersect_ids(codes[index])
        self._cache[mask] = partition
        self._by_popcount.setdefault(mask.bit_count(), {})[mask] = None
        return partition

    def _best_cached_subset(self, mask: int) -> int:
        """Largest cached subset of ``mask`` via the popcount index."""
        for popcount in range(mask.bit_count() - 1, 0, -1):
            bucket = self._by_popcount.get(popcount)
            if not bucket:
                continue
            for cached_mask in bucket:
                if cached_mask & ~mask == 0:
                    return cached_mask
        return 0

    def forget_below(self, size: int) -> None:
        """Drop every cached partition of 2 to ``size - 1`` attributes.

        A partition of ``m`` attributes is built from its largest cached
        subset, normally one of ``m - 1`` attributes.  A caller that
        will only ask for masks of more than ``size`` attributes from
        now on therefore keeps every base it normally starts from.
        """
        for popcount in range(2, size):
            bucket = self._by_popcount.pop(popcount, None)
            if bucket:
                for mask in bucket:
                    del self._cache[mask]
                self.stats.evictions += len(bucket)

    def probe(self, attribute: int) -> array:
        """Row → value id for one attribute (the shared encoded column)."""
        return self._encoding.codes[attribute]

    def agree_set(self, left: int, right: int) -> int:
        """Attribute bitmask on which two rows agree (shared helper)."""
        return self._encoding.agree_set(left, right)

    def cache_size(self) -> int:
        return len(self._cache)
