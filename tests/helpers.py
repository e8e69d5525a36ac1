"""Shared test utilities: semantic FD checks, canonical forms, and a
probe of the modules one CLI command imports."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.model.attributes import iter_bits
from repro.model.fd import FDSet
from repro.model.instance import RelationInstance
from repro.structures.encoding import EncodedRelation
from repro.structures.partitions import column_value_ids

__all__ = [
    "assert_encodings_identical",
    "canon_fds",
    "cli_modules",
    "fd_holds",
    "is_minimal_fd",
    "normalize_modules",
    "semantic_closure_of_set",
]

#: runs the CLI in-process, then reports its exit code and sys.modules
_IMPORT_PROBE = """
import json, sys
from repro.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


def cli_modules(*argv: str) -> tuple[int, set[str]]:
    """Run ``repro <argv>`` in a fresh interpreter; return its exit code
    and every module it imported.

    ``REPRO_*`` variables are stripped from the child's environment, so
    the answer is the same under any settings of the calling shell (a
    suite run under ``REPRO_WORKERS=2`` included).
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    return result["code"], set(result["modules"])


def normalize_modules(tmp_path: Path, num_rows: int, *flags: str) -> set[str]:
    """The modules a normalize run of a planted 6-column CSV imports."""
    from repro.io.csv_io import write_csv
    from repro.verification.planted import plant_instance

    path = tmp_path / "planted.csv"
    write_csv(plant_instance(5, num_columns=6, num_rows=num_rows).instance, path)
    code, modules = cli_modules(
        str(path), "--ddl", str(tmp_path / "schema.sql"), *flags
    )
    assert code == 0
    return modules


def fd_holds(
    instance: RelationInstance,
    lhs: int,
    rhs: int,
    null_equals_null: bool = True,
) -> bool:
    """Definition-level FD check: grouping rows by LHS values."""
    probes = [
        column_value_ids(instance.columns_data[i], null_equals_null)
        for i in range(instance.arity)
    ]
    lhs_bits = list(iter_bits(lhs))
    rhs_bits = list(iter_bits(rhs))
    seen: dict[tuple, tuple] = {}
    for row in range(instance.num_rows):
        key = tuple(probes[i][row] for i in lhs_bits)
        value = tuple(probes[i][row] for i in rhs_bits)
        if key in seen:
            if seen[key] != value:
                return False
        else:
            seen[key] = value
    return True


def is_minimal_fd(
    instance: RelationInstance,
    lhs: int,
    rhs_attr: int,
    null_equals_null: bool = True,
) -> bool:
    """True iff ``lhs → rhs_attr`` holds and no immediate generalization does."""
    rhs = 1 << rhs_attr
    if not fd_holds(instance, lhs, rhs, null_equals_null):
        return False
    for attr in iter_bits(lhs):
        if fd_holds(instance, lhs & ~(1 << attr), rhs, null_equals_null):
            return False
    return True


def canon_fds(fds: FDSet) -> set[tuple[int, int]]:
    """Canonical single-RHS form: set of (lhs_mask, rhs_attr_index)."""
    out = set()
    for lhs, rhs in fds.items():
        for attr in iter_bits(rhs):
            out.add((lhs, attr))
    return out


def semantic_closure_of_set(
    instance: RelationInstance, lhs: int, null_equals_null: bool = True
) -> int:
    """Attribute closure of ``lhs`` straight from the data (no FD set)."""
    closure = lhs
    for attr in range(instance.arity):
        bit = 1 << attr
        if closure & bit:
            continue
        if fd_holds(instance, lhs, bit, null_equals_null):
            closure |= bit
    return closure


def assert_encodings_identical(left: EncodedRelation, right: EncodedRelation) -> None:
    """Codes, cardinalities, NULL codes and shape all equal."""
    assert [list(column) for column in left.codes] == [
        list(column) for column in right.codes
    ]
    assert left.cardinalities == right.cardinalities
    assert left.null_codes == right.null_codes
    assert left.num_rows == right.num_rows
    assert left.null_equals_null == right.null_equals_null
