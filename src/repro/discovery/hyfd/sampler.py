"""HyFD sampling phase: focused record-pair comparisons.

Comparing *all* record pairs is quadratic; HyFD instead compares pairs
that are likely to agree on many attributes, because only such pairs
produce large agree sets — the strong non-FD evidence.  The heuristic:
within each column's PLI clusters (records already agree on that
column), sort the cluster by the full record so near neighbours are
similar, then compare each record to its neighbour at window distance
``d``.  Every run of a (column, distance) pair is scored by its
*efficiency* (new evidence per comparison), and the most efficient
column is advanced first — a faithful, single-threaded rendition of the
paper's progressive sampling queue.
"""

from __future__ import annotations

import heapq
from array import array

from repro import kernels
from repro.model.instance import RelationInstance
from repro.runtime.governor import checkpoint
from repro.structures.partitions import PLICache

__all__ = ["Sampler"]


class Sampler:
    """Progressive cluster-window sampler producing agree-set evidence.

    Each attribute's sorted clusters are one CSR: the attribute's PLI
    ``offsets`` plus one ``int32`` vector of its rows, each cluster's
    slice sorted by the full record (stably, so equal records keep
    their PLI order).  When the kernel registry picks numpy for a
    relation's row count (``kernels.for_size(num_rows)``, so at least
    ``kernels.SMALL_INPUT_THRESHOLD`` rows), the sampler ranks every
    record with one stable ``np.lexsort`` over all columns, sorts each
    attribute's rows by (cluster id, rank) and runs a window as one
    gather of the positions whose partner ``d`` places on is still in
    the cluster; otherwise it sorts cluster by cluster into an
    ``array('i')`` and walks the same pairs.  Both visit the pairs in
    the same order (clusters in PLI order, positions ascending) and
    make one ``checkpoint`` per cluster, so the negative cover, the
    efficiency queue and governor tick counts never depend on the path.
    """

    def __init__(self, instance: RelationInstance, cache: PLICache) -> None:
        self.arity = instance.arity
        self.num_rows = instance.num_rows
        self._encoding = cache.encoding
        self._probes = self._encoding.codes
        vectorized = kernels.for_size(self.num_rows).name == "numpy"
        np = self._np = kernels.numpy_module() if vectorized else None
        # Per attribute: cluster offsets, sorted rows, largest cluster.
        self._offsets: list = []
        self._rows: list = []
        self._largest: list[int] = []
        ranks = self._record_ranks() if np is not None else None
        for attr in range(self.arity):
            partition = cache.get(1 << attr)
            if np is not None:
                offsets, rows = self._sorted_csr_numpy(partition, ranks)
                largest = int(np.diff(offsets).max(initial=0))
            else:
                offsets, rows = partition.offsets, self._sorted_rows(partition)
                largest = max(
                    (end - start for start, end in zip(offsets, offsets[1:])),
                    default=0,
                )
            self._offsets.append(offsets)
            self._rows.append(rows)
            self._largest.append(largest)
        self.negative_cover: set[int] = set()
        self._distances = [0] * self.arity
        self._queue: list[tuple[float, int]] = [
            (-1.0, attr) for attr in range(self.arity)
        ]
        heapq.heapify(self._queue)
        self.comparisons = 0

    def _record_key(self, row: int) -> tuple[int, ...]:
        return tuple(probe[row] for probe in self._probes)

    def _sorted_rows(self, partition) -> array:
        """The PLI's rows with every cluster sorted by the full record."""
        rows = array("i")
        for cluster in partition.iter_clusters():
            rows.extend(sorted(cluster, key=self._record_key))
        return rows

    def _record_ranks(self):
        """Each row's rank in full-record order, equal records tied.

        One stable ``np.lexsort`` over every column orders the whole
        relation; a rank bumps wherever neighbouring records differ.
        """
        np = self._np
        columns = [np.asarray(codes, dtype=np.int32) for codes in self._probes]
        num_rows = self._encoding.num_rows
        # lexsort's last key is the primary one.
        order = np.lexsort(columns[::-1]) if columns else np.arange(num_rows)
        new_record = np.zeros(num_rows, dtype=bool)
        for column in columns:
            ordered = column[order]
            new_record[1:] |= ordered[1:] != ordered[:-1]
        ranks = np.empty(num_rows, dtype=np.int64)
        ranks[order] = np.cumsum(new_record)
        return ranks

    def _sorted_csr_numpy(self, partition, ranks):
        """``(offsets, rows)`` ndarrays, each cluster sorted by record.

        A stable sort on (cluster id, record rank) equals a stable
        ``lexsort`` on (cluster id, ``codes[0]``, …, ``codes[n-1]``).
        """
        np = self._np
        offsets = np.array(partition.offsets, dtype=np.int64)
        rows = np.array(partition.row_data, dtype=np.int32)
        cluster_ids = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
        # Both factors are below num_rows < 2**31, so the key fits int64.
        order = np.argsort(cluster_ids * len(ranks) + ranks[rows], kind="stable")
        return offsets, rows[order]

    # ------------------------------------------------------------------
    # Evidence collection
    # ------------------------------------------------------------------
    def _agree_set(self, left: int, right: int) -> int:
        return self._encoding.agree_set(left, right)

    def compare(self, left: int, right: int) -> int | None:
        """Compare one record pair; return its agree set if it is new."""
        self.comparisons += 1
        agree = self._agree_set(left, right)
        if agree in self.negative_cover:
            return None
        self.negative_cover.add(agree)
        return agree

    def _run_window(self, attr: int, distance: int) -> tuple[int, list[int]]:
        """Compare all pairs at ``distance`` within ``attr``'s clusters."""
        if self._np is not None:
            return self._run_window_numpy(attr, distance)
        rows = self._rows[attr]
        offsets = self._offsets[attr]
        compared = 0
        fresh: list[int] = []
        for start, end in zip(offsets, offsets[1:]):
            checkpoint("hyfd-sample", units=max(end - start - distance, 1))
            for index in range(start, end - distance):
                compared += 1
                agree = self.compare(rows[index], rows[index + distance])
                if agree is not None:
                    fresh.append(agree)
        return compared, fresh

    def _run_window_numpy(self, attr: int, distance: int) -> tuple[int, list[int]]:
        """Vectorized window: gather every pair of the round, compute
        their agree sets in one kernel call, then replay the dedup in
        pair order."""
        np = self._np
        rows = self._rows[attr]
        offsets = self._offsets[attr]
        sizes = np.diff(offsets)
        for units in np.maximum(sizes - distance, 1).tolist():
            checkpoint("hyfd-sample", units=units)
        ends = np.repeat(offsets[1:], sizes)
        lefts = np.flatnonzero(np.arange(distance, len(rows) + distance) < ends)
        if not len(lefts):
            return 0, []
        masks = self._encoding.agree_sets_batch(
            rows[lefts], rows[lefts + distance]
        )
        self.comparisons += len(masks)
        fresh: list[int] = []
        for agree in masks:
            if agree not in self.negative_cover:
                self.negative_cover.add(agree)
                fresh.append(agree)
        return len(masks), fresh

    @property
    def exhausted(self) -> bool:
        """True when every column's window has outgrown its clusters."""
        return not self._queue

    def next_round(self) -> list[int]:
        """Advance the most efficient column's window; return new agree sets.

        Returns an empty list when a round produced nothing new; callers
        typically loop until evidence arrives or the sampler is
        exhausted.
        """
        if not self._queue:
            return []
        _, attr = heapq.heappop(self._queue)
        self._distances[attr] += 1
        distance = self._distances[attr]
        compared, fresh = self._run_window(attr, distance)
        if distance < self._largest[attr] - 1:
            efficiency = len(fresh) / compared if compared else 0.0
            heapq.heappush(self._queue, (-efficiency, attr))
        return fresh

    def initial_rounds(self) -> list[int]:
        """Run every column once at distance 1 (HyFD's warm-up pass)."""
        fresh: list[int] = []
        for _ in range(self.arity):
            fresh.extend(self.next_round())
        return fresh
