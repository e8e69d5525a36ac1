"""HyFD — hybrid FD discovery (Papenbrock & Naumann, SIGMOD 2016).

HyFD is the discoverer Normalize uses in the paper.  It alternates two
phases until a fixpoint:

1. **Sampling** (:mod:`repro.discovery.hyfd.sampler`) — compare
   similar record pairs (cluster-window neighbours) to collect *agree
   sets*, i.e. evidence of non-FDs, into a negative cover,
2. **Induction** (:mod:`repro.discovery.hyfd.induction`) — maintain a
   positive cover (an :class:`~repro.structures.fdtree.FDTree` of
   minimal FD candidates) by specializing away every candidate the
   negative cover refutes,
3. **Validation** (:mod:`repro.discovery.hyfd.validation`) — check the
   remaining candidates level-by-level against the data with stripped
   partitions; failures yield new agree sets, and a high failure rate
   switches back to sampling (the "hybrid" part).

The final tree holds exactly the complete set of minimal FDs.  The
``max_lhs_size`` option implements the paper's §4.3 pruning "for free".

On small relations (fewer than ``hyfd.ALL_PAIRS_BUDGET`` rows per
column) HyFD skips sampling and validation: it compares every row
pair, which makes the negative cover complete, so induction alone
yields the exact cover.
"""

from repro.discovery.hyfd.hyfd import HyFD

__all__ = ["HyFD"]
