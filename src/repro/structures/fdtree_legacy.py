"""Alias kept for ``benchmarks/e2e/traced_main.py``, its only importer; drop both together."""
from repro.structures.fdtree import FDTree as LegacyFDTree  # noqa: F401
