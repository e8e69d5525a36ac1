"""repro — data-driven schema normalization.

A from-scratch Python reproduction of

    Thorsten Papenbrock, Felix Naumann:
    "Data-driven Schema Normalization", EDBT 2017.

The package implements the complete Normalize system: FD discovery
(HyFD, TANE, DFD, and a brute-force oracle), the three closure
algorithms, key derivation, BCNF/3NF violation detection, constraint
scoring and (semi-)automatic selection, schema decomposition, and
DUCC-based primary-key discovery — plus the synthetic workloads and the
benchmark harness that regenerate the paper's evaluation.

Quickstart::

    from repro import normalize, address_example

    result = normalize(address_example())
    print(result.to_str())
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "DFD",
    "FD",
    "AutoDecider",
    "BruteForceFD",
    "CallbackDecider",
    "ChangeBatch",
    "ChangeLog",
    "Decider",
    "DuccUCC",
    "FDSet",
    "ForeignKey",
    "HyFD",
    "IncrementalNormalizer",
    "NaiveUCC",
    "NormalizationResult",
    "Normalizer",
    "Relation",
    "RelationInstance",
    "Schema",
    "ScriptedDecider",
    "Tane",
    "address_example",
    "calculate_closure",
    "check_normal_form",
    "discover_fds",
    "discover_uccs",
    "improved_closure",
    "naive_closure",
    "normalize",
    "optimized_closure",
    "load_fdset",
    "planets_example",
    "profile",
    "profile_many",
    "rank_keys",
    "rank_violating_fds",
    "read_csv",
    "result_to_json",
    "save_fdset",
    "schema_to_ddl",
    "schema_to_dot",
    "write_csv",
]

# Each name is imported from its module on first use, so a process
# loads only the modules its command runs (DESIGN.md §6, "Imports").
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.closure": (
            "calculate_closure",
            "improved_closure",
            "naive_closure",
            "optimized_closure",
        ),
        "repro.core.nf_check": ("check_normal_form",),
        "repro.core.normalize": ("Normalizer", "normalize"),
        "repro.core.result": ("NormalizationResult",),
        "repro.core.scoring": ("rank_keys", "rank_violating_fds"),
        "repro.core.selection": (
            "AutoDecider",
            "CallbackDecider",
            "Decider",
            "ScriptedDecider",
        ),
        "repro.discovery.base": ("discover_fds",),
        "repro.discovery.bruteforce": ("BruteForceFD",),
        "repro.discovery.dfd": ("DFD",),
        "repro.discovery.hyfd": ("HyFD",),
        "repro.discovery.tane": ("Tane",),
        "repro.discovery.ucc": ("DuccUCC", "NaiveUCC", "discover_uccs"),
        "repro.incremental": ("ChangeBatch", "ChangeLog", "IncrementalNormalizer"),
        "repro.io.csv_io": ("read_csv", "write_csv"),
        "repro.io.datasets": ("address_example", "planets_example"),
        "repro.io.ddl": ("schema_to_ddl",),
        "repro.io.graphviz": ("schema_to_dot",),
        "repro.io.serialization": ("load_fdset", "result_to_json", "save_fdset"),
        "repro.model": (
            "FD",
            "FDSet",
            "ForeignKey",
            "Relation",
            "RelationInstance",
            "Schema",
        ),
        "repro.profiling": ("profile", "profile_many"),
    },
)
