"""Each command imports only the modules it runs (DESIGN.md §6, "Imports").

The re-exporting packages load their names on first use, the CLI
imports a command's modules after its arguments parse, and a serial run
never loads the pool layer.  These tests pin the import set of each
command in a fresh interpreter, and that the lazy packages still export
exactly the objects their defining modules hold.
"""

import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
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
            "repro.discovery.bruteforce",
        ) == []

    def test_named_discoverer_loads_alone(self, tmp_path):
        modules = normalize_modules(tmp_path, 200, "--algorithm", "tane")
        assert DISCOVERERS & modules == {"repro.discovery.tane"}


#: runs ``repro <argv[2:]>`` logging each module it imports to argv[1],
#: with a marker line where the daemon announces ``listening on``
_DAEMON_LAUNCHER = """
import sys

log = open(sys.argv[1], "w", buffering=1)


class ImportLog:
    def find_spec(self, name, path=None, target=None):
        log.write(name + "\\n")
        return None


class Announce:
    def __init__(self, stream):
        self._stream = stream

    def write(self, text):
        if text.startswith("listening on"):
            log.write("--listening\\n")
        return self._stream.write(text)

    def __getattr__(self, name):
        return getattr(self._stream, name)


sys.meta_path.insert(0, ImportLog())
sys.stdout = Announce(sys.stdout)
from repro.cli import main
sys.exit(main(sys.argv[2:]))
"""


def _announced_port(proc: subprocess.Popen, out: Path) -> int:
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        match = re.search(r"listening on http://[^:]+:(\d+)", out.read_text())
        if match:
            return int(match.group(1))
        assert proc.poll() is None, out.read_text()
        time.sleep(0.05)
    raise AssertionError(f"the daemon never listened:\n{out.read_text()}")


class TestDaemonImports:
    def test_a_small_session_imports_nothing_after_listening(self, tmp_path):
        # Under 512 rows every kernel call runs the python loops, so no
        # request may import numpy; nor any module the preload missed.
        from repro.io.csv_io import write_csv
        from repro.server.client import ReproClient
        from repro.verification.planted import plant_instance

        instance = plant_instance(5, num_columns=6, num_rows=200).instance
        csv_path = tmp_path / "planted.csv"
        write_csv(instance, csv_path)
        log, out = tmp_path / "imports.log", tmp_path / "serve.out"
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(SRC)
        with open(out, "w") as handle:
            proc = subprocess.Popen(
                [sys.executable, "-c", _DAEMON_LAUNCHER, str(log), "serve",
                 "--port", "0", "--resume-dir", str(tmp_path / "resume")],
                stdout=handle, stderr=subprocess.STDOUT, env=env,
            )
        try:
            client = ReproClient("127.0.0.1", _announced_port(proc, out))
            session = client.create_session(
                csv_path.read_bytes(), name="planted"
            )["session"]
            row = [None if value is None else str(value) for value in instance.row(0)]
            client.apply_batch(session, {"inserts": [row], "deletes": [1]})
            client.ddl(session)
            client.migration(session)
            names = log.read_text().split()
        finally:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=30)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        marker = names.index("--listening")
        before, after = set(names[:marker]), names[marker + 1 :]
        assert {"repro.incremental.engine", "repro.discovery.hyfd.validation"} <= before
        assert loaded(set(after), "repro") == []
        assert after == []


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
