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

from repro import kernels
from repro.model.instance import RelationInstance
from repro.runtime.governor import checkpoint
from repro.structures.partitions import PLICache

__all__ = ["Sampler"]


class Sampler:
    """Progressive cluster-window sampler producing agree-set evidence."""

    def __init__(self, instance: RelationInstance, cache: PLICache) -> None:
        self.arity = instance.arity
        self.num_rows = instance.num_rows
        self._encoding = cache.encoding
        self._probes = self._encoding.codes
        # Sort each cluster so that neighbouring records are similar.
        self._clusters: list[list[list[int]]] = []
        for attr in range(self.arity):
            sorted_clusters = [
                sorted(cluster, key=self._record_key)
                for cluster in cache.get(1 << attr).iter_clusters()
            ]
            self._clusters.append(sorted_clusters)
        # Per-attribute numpy copies of the sorted clusters, built lazily
        # on the first vectorized window (numpy backend only).
        self._np_clusters: dict[int, list] = {}
        self.negative_cover: set[int] = set()
        self._distances = [0] * self.arity
        self._queue: list[tuple[float, int]] = [
            (-1.0, attr) for attr in range(self.arity)
        ]
        heapq.heapify(self._queue)
        self.comparisons = 0

    def _record_key(self, row: int) -> tuple[int, ...]:
        return tuple(probe[row] for probe in self._probes)

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
        if kernels.backend_name() == "numpy":
            return self._run_window_numpy(attr, distance)
        compared = 0
        fresh: list[int] = []
        for cluster in self._clusters[attr]:
            checkpoint("hyfd-sample", units=max(len(cluster) - distance, 1))
            for index in range(len(cluster) - distance):
                compared += 1
                agree = self.compare(cluster[index], cluster[index + distance])
                if agree is not None:
                    fresh.append(agree)
        return compared, fresh

    def _run_window_numpy(self, attr: int, distance: int) -> tuple[int, list[int]]:
        """Vectorized window: batch every pair of the round into one
        agree-set kernel call, then replay the dedup in pair order.

        The pair order (clusters in PLI order, window positions
        ascending) and the checkpoint granularity (one call per cluster,
        same units) match the interpreted loop exactly, so the negative
        cover, the efficiency queue, and governor tick counts evolve
        identically.
        """
        np = kernels.numpy_module()
        arrays = self._np_clusters.get(attr)
        if arrays is None:
            arrays = [
                np.asarray(cluster, dtype=np.intp)
                for cluster in self._clusters[attr]
            ]
            self._np_clusters[attr] = arrays
        lefts = []
        rights = []
        for cluster in arrays:
            width = len(cluster) - distance
            checkpoint("hyfd-sample", units=max(width, 1))
            if width > 0:
                lefts.append(cluster[:width])
                rights.append(cluster[distance:])
        if not lefts:
            return 0, []
        masks = self._encoding.agree_sets_batch(
            np.concatenate(lefts), np.concatenate(rights)
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
        largest = max((len(c) for c in self._clusters[attr]), default=0)
        compared, fresh = self._run_window(attr, distance)
        if distance < largest - 1:
            efficiency = len(fresh) / compared if compared else 0.0
            heapq.heappush(self._queue, (-efficiency, attr))
        return fresh

    def initial_rounds(self) -> list[int]:
        """Run every column once at distance 1 (HyFD's warm-up pass)."""
        fresh: list[int] = []
        for _ in range(self.arity):
            fresh.extend(self.next_round())
        return fresh
