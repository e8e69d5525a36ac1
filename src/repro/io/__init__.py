"""I/O: CSV and JSON, bundled micro-datasets, SQL DDL and DOT export."""

from repro._lazy import lazy_exports

__all__ = [
    "address_example",
    "denormalized_university",
    "fdset_from_json",
    "fdset_to_json",
    "load_fdset",
    "planets_example",
    "read_csv",
    "result_to_json",
    "save_fdset",
    "schema_from_json",
    "schema_to_ddl",
    "schema_to_dot",
    "schema_to_json",
    "write_csv",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.io.csv_io": ("read_csv", "write_csv"),
        "repro.io.datasets": (
            "address_example",
            "denormalized_university",
            "planets_example",
        ),
        "repro.io.ddl": ("schema_to_ddl",),
        "repro.io.graphviz": ("schema_to_dot",),
        "repro.io.serialization": (
            "fdset_from_json",
            "fdset_to_json",
            "load_fdset",
            "result_to_json",
            "save_fdset",
            "schema_from_json",
            "schema_to_json",
        ),
    },
)
