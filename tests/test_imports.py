"""Each command imports only the modules it runs (DESIGN.md §6, "Imports").

The re-exporting packages load their names on first use, the CLI
imports a command's modules after its arguments parse, and a serial run
never loads the pool layer.  These tests pin the import set of each
command in a fresh interpreter, and that the lazy packages still export
exactly the objects their defining modules hold.
"""

import json
import os
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from tests.helpers import cli_modules, normalize_modules

SRC = Path(__file__).resolve().parent.parent / "src"

#: the packages whose ``__init__`` re-exports names lazily
LAZY_PACKAGES = (
    "repro",
    "repro.discovery",
    "repro.incremental",
    "repro.io",
    "repro.parallel",
    "repro.runtime",
    "repro.server",
)

DISCOVERERS = {
    "repro.discovery.bruteforce",
    "repro.discovery.dfd",
    "repro.discovery.hyfd",
    "repro.discovery.tane",
}


def loaded(modules: set[str], *packages: str) -> list[str]:
    """The members of ``modules`` that are, or sit inside, ``packages``."""
    return sorted(
        name
        for name in modules
        if any(name == pkg or name.startswith(pkg + ".") for pkg in packages)
    )


def closed_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestCommandImports:
    def test_help_loads_no_pipeline(self):
        code, modules = cli_modules("--help")
        assert code == 0
        assert loaded(
            modules,
            "repro.core",
            "repro.discovery",
            "repro.incremental",
            "repro.server",
            "repro.parallel",
            "multiprocessing",
            "asyncio",
            "numpy",
        ) == []

    def test_submit_loads_only_the_client(self):
        code, modules = cli_modules(
            "submit", "--port", str(closed_port()), "--stats"
        )
        assert code == 2  # the daemon is unreachable
        assert "repro.server.client" in modules
        assert loaded(modules, "asyncio", "repro.core", "repro.incremental") == []

    def test_submit_changes_loads_no_engine(self, tmp_path):
        changes = tmp_path / "changes.json"
        changes.write_text(
            json.dumps(
                {
                    "format": "repro/changelog",
                    "version": 1,
                    "batches": [{"relation": "r", "inserts": [["a"]], "deletes": []}],
                }
            )
        )
        code, modules = cli_modules(
            "submit", "--port", str(closed_port()), "--session", "s",
            "--changes", str(changes),
        )
        assert code == 2  # the change log parsed; the daemon is unreachable
        assert loaded(modules, "repro.incremental") == ["repro.incremental",
                                                        "repro.incremental.changes"]
        assert loaded(modules, "asyncio", "repro.core") == []

    def test_serial_normalize_loads_no_pool(self, tmp_path):
        modules = normalize_modules(tmp_path, 200)
        assert loaded(
            modules,
            "multiprocessing",
            "repro.parallel.pool",
            "repro.incremental",
            "repro.server",
            "repro.verification",
            "repro.evaluation",
            "repro.profiling",
            "repro.discovery.tane",
            "repro.discovery.dfd",
            "repro.discovery.bruteforce",
        ) == []

    def test_named_discoverer_loads_alone(self, tmp_path):
        modules = normalize_modules(tmp_path, 200, "--algorithm", "tane")
        assert DISCOVERERS & modules == {"repro.discovery.tane"}


_EXPORTS_PROBE = """
import importlib, json, sys

# First, while nothing has imported repro.discovery yet.
import repro
subpackage_ok = repro.discovery.HyFD is importlib.import_module(
    "repro.discovery.hyfd.hyfd").HyFD

packages = sys.argv[1:]
mismatched = []
for package in packages:
    module = importlib.import_module(package)
    for name in module.__all__:
        value = getattr(module, name)
        home = getattr(value, "__module__", package)
        if getattr(importlib.import_module(home), name) is not value:
            mismatched.append(f"{package}.{name}")

namespace = {}
exec("from repro import *", namespace)
star_ok = (
    sorted(k for k in namespace if not k.startswith("__")) == sorted(repro.__all__)
    and namespace["normalize"]
    is importlib.import_module("repro.core.normalize").normalize
)
print(json.dumps({"mismatched": mismatched, "subpackage": subpackage_ok,
                  "star": star_ok}))
"""


class TestLazyExports:
    def test_every_export_is_its_defining_modules_object(self):
        # A fresh interpreter, so every name resolves through the lazy
        # path rather than from modules other tests already imported.
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(SRC)
        proc = subprocess.run(
            [sys.executable, "-c", _EXPORTS_PROBE, *LAZY_PACKAGES],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result == {"mismatched": [], "subpackage": True, "star": True}

    def test_unknown_name_raises_attribute_error(self):
        import repro.discovery

        # hasattr() and `from package import submodule` rely on this.
        with pytest.raises(AttributeError, match="NoSuchDiscoverer"):
            repro.discovery.NoSuchDiscoverer

    def test_core_normalize_names_its_module(self):
        import repro
        import repro.core.normalize as module

        assert module.Normalizer is repro.Normalizer
        assert repro.normalize is module.normalize

    def test_dir_lists_lazy_names(self):
        import repro.io

        assert set(repro.io.__all__) <= set(dir(repro.io))
