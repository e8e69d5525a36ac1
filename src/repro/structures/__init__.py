"""Core data structures: set-tries, FD trees, stripped partitions, Bloom filters.

These are the performance-critical substrates the paper relies on:

* :mod:`repro.structures.settrie` — the "prefix tree, aka trie" used by
  the improved/optimized closure algorithms and the violation detector
  for subset lookups over attribute sets, and for the DUCC
  lattice-search boundary sets,
* :mod:`repro.structures.fdtree` — HyFD's positive cover as a
  level-indexed bitset lattice,
* :mod:`repro.structures.encoding` — columnar dictionary encoding of
  relation values, the shared substrate of the PLI hot path,
* :mod:`repro.structures.partitions` — stripped partitions (position
  list indexes, CSR layout) with intersection, the backbone of
  TANE/HyFD/DUCC,
* :mod:`repro.structures.bloom` — Bloom filters with cardinality
  estimation for the duplication score (paper §7.2).
"""

from repro.structures.bloom import BloomFilter
from repro.structures.encoding import EncodedRelation
from repro.structures.fdtree import FDTree
from repro.structures.partitions import CacheStats, PLICache, StrippedPartition
from repro.structures.settrie import SetTrie

__all__ = [
    "BloomFilter",
    "CacheStats",
    "EncodedRelation",
    "FDTree",
    "PLICache",
    "SetTrie",
    "StrippedPartition",
]
