"""``repro serve`` — the multi-tenant normalization-as-a-service daemon.

ROADMAP item 1.  A stdlib-only asyncio HTTP/JSON server that keeps
per-tenant incremental-normalization sessions hot: upload a CSV once,
then stream change batches and read schema/DDL/migration views without
ever paying rediscovery.  See ``docs/SERVER.md`` for the protocol.

Layers, lowest first:

* :mod:`repro.server.protocol` — HTTP/1.1 + JSON wire format,
* :mod:`repro.server.sessions` — per-tenant state, LRU/expiry,
  journal-backed durability,
* :mod:`repro.server.app` — routing, fairness gate, drain lifecycle,
* :mod:`repro.server.client` — the blocking client (``repro submit``,
  tests, benchmarks).
"""

from repro._lazy import lazy_exports

__all__ = [
    "ReproClient",
    "ReproServer",
    "ServerConfig",
    "ServerError",
    "Session",
    "SessionExistsError",
    "SessionOptions",
    "SessionRegistry",
    "serve",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.server.app": ("ReproServer", "ServerConfig", "serve"),
        "repro.server.client": ("ReproClient", "ServerError"),
        "repro.server.sessions": (
            "Session",
            "SessionExistsError",
            "SessionOptions",
            "SessionRegistry",
        ),
    },
)
