"""Lazy re-exports for package ``__init__`` modules (PEP 562).

A package ``__init__`` that imports its submodules to re-export their
names makes every ``import repro.pkg.anything`` pay for all of them.
The re-exporting packages instead declare where each name lives, and a
submodule is imported on the first access to one of its names::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.io.csv_io": ("read_csv", "write_csv"),
    })
"""

from __future__ import annotations

import sys
from importlib import import_module

__all__ = ["lazy_exports"]


def lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """The module ``__getattr__`` and ``__dir__`` of a lazy package.

    ``exports`` maps each defining module to the names the package
    re-exports from it.  A name is imported on first access and cached
    in the package namespace, so ``package.name``, ``from package
    import name`` and ``from package import *`` all give the defining
    module's object.  Any other attribute that names a submodule
    imports it, so ``import repro; repro.discovery.HyFD`` works as it
    did when packages imported their submodules eagerly.
    """
    homes = {name: module for module, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        home = homes.get(name)
        if home is not None:
            value = namespace[name] = getattr(import_module(home), name)
            return value
        if not name.startswith("__"):
            submodule = f"{package}.{name}"
            try:
                return import_module(submodule)
            except ModuleNotFoundError as exc:
                if exc.name != submodule:
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | homes.keys())

    return __getattr__, __dir__
