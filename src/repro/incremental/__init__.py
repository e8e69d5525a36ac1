"""Incremental normalization — maintain the schema under changing data.

The paper's §9 leaves dynamic data as an open question; this package
answers it for batched inserts and deletes.  Instead of re-profiling
and re-normalizing the whole instance after every change, the engine

* maintains the columnar dictionary encoding and single-attribute
  PLIs append-only (:mod:`repro.incremental.structures`),
* maintains the minimal FD cover and the minimal-UCC (key) cover
  EAIFD-style on the existing HyFD structures — new record pairs only
  refute and specialize; deletes rebuild from a maintained agree-set
  multiset (:mod:`repro.incremental.cover`),
* re-runs only the cheap tail of the pipeline (closure → keys →
  decomposition) with the maintained covers plugged in as
  :class:`~repro.discovery.precomputed.PrecomputedFDs`
  (:mod:`repro.incremental.engine`), and
* emits an ordered migration plan from the previous to the new schema
  (:mod:`repro.incremental.migration`).

The correctness contract, enforced by ``repro verify --incremental``:
after every batch the maintained FD cover, key set, and emitted DDL are
byte-identical to a from-scratch :func:`repro.normalize` of the updated
instance.
"""

from repro._lazy import lazy_exports

__all__ = [
    "BatchOutcome",
    "ChangeBatch",
    "ChangeLog",
    "ConstraintMonitor",
    "ConstraintViolation",
    "CoverDelta",
    "IncrementalCover",
    "IncrementalNormalizer",
    "LiveRelation",
    "MigrationPlan",
    "MutableColumnPartition",
    "load_journal",
    "resume_engine",
    "save_journal",
]

# Reading a change log (``repro submit --changes``) needs only
# ``changes``; the engine and its structures load on first use.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.incremental.changes": ("ChangeBatch", "ChangeLog"),
        "repro.incremental.cover": ("CoverDelta", "IncrementalCover"),
        "repro.incremental.engine": ("BatchOutcome", "IncrementalNormalizer"),
        "repro.incremental.journal": (
            "load_journal",
            "resume_engine",
            "save_journal",
        ),
        "repro.incremental.migration": ("MigrationPlan",),
        "repro.incremental.monitor": ("ConstraintMonitor", "ConstraintViolation"),
        "repro.incremental.structures": ("LiveRelation", "MutableColumnPartition"),
    },
)
