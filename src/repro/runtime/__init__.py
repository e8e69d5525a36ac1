"""Resource governance for the normalization pipeline.

The runtime layer makes the pipeline *interruptible by contract*:

* :mod:`repro.runtime.errors` — the structured exception taxonomy
  (``ReproError`` → ``InputError`` / ``BudgetExceeded`` /
  ``CheckpointError``, plus ``DegradedResultWarning``),
* :mod:`repro.runtime.governor` — :class:`Budget` ceilings enforced at
  cooperative :func:`checkpoint` calls injected into every hot loop,
* :mod:`repro.runtime.faults` — deterministic fault injection so the
  verification harness can exercise every breach and resume path,
* :mod:`repro.runtime.degrade` — budgeted discovery (one attempt, its
  partial FDs kept on a breach) and the fidelity report (every pipeline
  run discovers through it, so :mod:`repro.core.normalize` imports it),
* :mod:`repro.runtime.checkpointing` — pipeline progress persisted so
  ``repro normalize --resume`` continues a killed run (imported when a
  pipeline run starts, not with the pipeline module).

The names above are re-exported lazily: importing this package loads
none of its submodules.  See ``docs/ROBUSTNESS.md`` for the full design.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Budget",
    "BudgetExceeded",
    "CheckpointError",
    "DegradedResultWarning",
    "FaultPlan",
    "Governor",
    "InputError",
    "ReproError",
    "SimulatedKill",
    "activate",
    "add_candidates",
    "checkpoint",
    "current_governor",
    "parse_duration",
    "parse_memory",
    "suspended",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.runtime.errors": (
            "BudgetExceeded",
            "CheckpointError",
            "DegradedResultWarning",
            "InputError",
            "ReproError",
        ),
        "repro.runtime.faults": ("FaultPlan", "SimulatedKill"),
        "repro.runtime.governor": (
            "Budget",
            "Governor",
            "activate",
            "add_candidates",
            "checkpoint",
            "current_governor",
            "parse_duration",
            "parse_memory",
            "suspended",
        ),
    },
)
