"""The ``repro serve`` daemon: router, fairness gate, and lifecycle.

Layering: :mod:`repro.server.protocol` parses/frames HTTP,
:mod:`repro.server.sessions` owns per-tenant state, and this module
glues them together under asyncio:

* **Compute gate.**  The core library is single-threaded by design —
  the runtime governor tracks the active budget in a process-global,
  and the worker pool is one shared resource — so heavy work
  (discovery, revival, batch maintenance) *and every engine read*
  (schema/DDL/migration/normalize views) runs one-at-a-time in a
  worker thread via :func:`asyncio.to_thread` behind a global FIFO
  :class:`asyncio.Lock`; a read can therefore never observe a
  half-applied batch.  Fairness comes from the per-tenant
  :class:`asyncio.Semaphore` *in front* of that lock: a tenant can hold
  at most one slot in the gate's queue, so a burst of 50 requests from
  one tenant cannot starve another tenant's single request — the lock
  wakes waiters in arrival order and each tenant re-queues behind
  everyone else after every grant.

* **Error taxonomy → status codes.**  ``InputError`` → 400,
  ``BudgetExceeded`` → 429 (with the governed reason/stage/limit and
  fidelity tags in the payload), ``CheckpointError`` → 500,
  ``WorkerCrashError`` → 503, unknown session → 404, draining → 503.
  Every error body has the same shape:
  ``{"error": {"code", "message", "status", ...}}``.

* **Graceful drain.**  SIGINT/SIGTERM stop the listener, let in-flight
  requests finish (bounded by ``drain_timeout``), then release the
  worker pool and any owned shared-memory segments.  A second signal
  aborts immediately.

Result bytes are the offline CLI's bytes: ``/ddl`` serves exactly what
``repro --ddl`` writes, ``/migration`` exactly what
``repro apply-batch --migration`` writes.  The CI smoke job diffs them.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

from repro.incremental.changes import ChangeBatch
from repro.io.serialization import schema_to_json
from repro.parallel import shutdown_pool_if_loaded
from repro.runtime.errors import (
    BudgetExceeded,
    CheckpointError,
    InputError,
    WorkerCrashError,
)
from repro.server.protocol import (
    DEFAULT_SPOOL_THRESHOLD,
    ProtocolError,
    Request,
    Response,
    error_payload,
    json_response,
    read_request,
    text_response,
    write_response,
)
from repro.server.sessions import (
    Session,
    SessionExistsError,
    SessionOptions,
    SessionRegistry,
    validate_name,
)

__all__ = ["ServerConfig", "ReproServer", "serve"]

#: 64 MiB default request-body ceiling (uploaded CSVs)
DEFAULT_MAX_BODY = 64 * 1024 * 1024

TENANT_HEADER = "x-repro-tenant"
DEFAULT_TENANT = "default"


@dataclass(slots=True)
class ServerConfig:
    """Everything ``repro serve`` can tune."""

    host: str = "127.0.0.1"
    port: int = 0
    socket_path: str | None = None
    resume_dir: str | None = None
    max_sessions: int = 64
    idle_ttl: float = 3600.0
    max_body_bytes: int = DEFAULT_MAX_BODY
    drain_timeout: float = 10.0
    #: bodies above this stream to disk instead of the heap
    spool_threshold_bytes: int = DEFAULT_SPOOL_THRESHOLD


class _NotFound(Exception):
    """Unknown session/route; mapped to 404."""


class ReproServer:
    """One daemon instance: registry + routes + lifecycle."""

    def __init__(self, config: ServerConfig | None = None) -> None:
        self.config = config or ServerConfig()
        self.registry = SessionRegistry(
            max_sessions=self.config.max_sessions,
            idle_ttl=self.config.idle_ttl,
            resume_dir=self.config.resume_dir,
        )
        #: global FIFO gate serializing all heavy compute (the governor
        #: and the worker pool are process-global; see module docstring)
        self._compute_gate = asyncio.Lock()
        #: tenant → one-slot semaphore; the fairness layer
        self._tenant_sems: dict[str, asyncio.Semaphore] = {}
        self._shutdown = asyncio.Event()
        self._draining = False
        self._inflight = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self.requests_total = 0
        self._servers: list[asyncio.base_events.Server] = []
        self.bound_port: int | None = None
        #: where oversized request bodies stream to; inside --resume-dir
        #: when persistence is on (same filesystem as the session
        #: directories, so accepting an upload is a rename, not a copy)
        if self.config.resume_dir is not None:
            self._spool_dir = Path(self.config.resume_dir) / ".spool"
        else:
            import tempfile

            self._spool_dir = (
                Path(tempfile.gettempdir()) / f"repro-serve-spool-{os.getpid()}"
            )

    # ------------------------------------------------------------------
    # Fair compute gate
    # ------------------------------------------------------------------
    async def _run_heavy(self, tenant: str, fn, *args):
        """Run blocking library work with per-tenant fairness.

        The tenant semaphore admits one request per tenant into the
        global gate's FIFO queue; the gate serializes actual execution
        (governor + worker pool are process-global singletons).
        """
        sem = self._tenant_sems.setdefault(tenant, asyncio.Semaphore(1))
        async with sem:
            async with self._compute_gate:
                return await asyncio.to_thread(fn, *args)

    # ------------------------------------------------------------------
    # Session access
    # ------------------------------------------------------------------
    async def _session(self, tenant: str, session_id: str) -> Session:
        """In-memory lookup, falling back to a revival from disk."""
        validate_name("session id", session_id)
        session = self.registry.get(tenant, session_id)
        if session is not None:
            return session
        if self.registry.has_persisted(tenant, session_id):
            # Revival replays the journal (or, once, rediscovers); it is
            # heavy work and goes through the gate like everything else.
            session = await self._run_heavy(
                tenant, self._lookup_or_revive, tenant, session_id
            )
            return session
        raise _NotFound(
            f"no session {session_id!r} for tenant {tenant!r}"
        )

    def _lookup_or_revive(self, tenant: str, session_id: str) -> Session:
        """Runs under the compute gate: re-check, then revive.

        Between the loop-side ``registry.get`` miss and this call
        another request may already have revived the session; reviving
        again would register a duplicate engine sharing the same
        changelog/journal files.  The re-check under the gate makes
        revival once-only.
        """
        existing = self.registry.get(tenant, session_id)
        if existing is not None:
            return existing
        return self.registry.revive(tenant, session_id)

    # ------------------------------------------------------------------
    # Connection loop
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while not self._draining:
                try:
                    request = await read_request(
                        reader,
                        self.config.max_body_bytes,
                        spool_dir=self._spool_dir,
                        spool_threshold=self.config.spool_threshold_bytes,
                    )
                except ProtocolError as exc:
                    response = json_response(
                        error_payload(exc.status, "protocol_error", str(exc)),
                        status=exc.status,
                    )
                    with contextlib.suppress(ConnectionError):
                        await write_response(writer, response, False)
                    return
                if request is None:
                    return
                self._inflight += 1
                self._idle.clear()
                self.requests_total += 1
                try:
                    response = await self._dispatch(request)
                finally:
                    # The upload endpoint moves the spool file into the
                    # session directory; for every other outcome the
                    # file is garbage once the request completes.
                    request.discard_body()
                    self._inflight -= 1
                    if self._inflight == 0:
                        self._idle.set()
                keep_alive = request.keep_alive and not self._draining
                with contextlib.suppress(ConnectionError):
                    await write_response(writer, response, keep_alive)
                if not keep_alive:
                    return
        finally:
            with contextlib.suppress(ConnectionError):
                writer.close()
                await writer.wait_closed()

    # ------------------------------------------------------------------
    # Routing + error taxonomy
    # ------------------------------------------------------------------
    async def _dispatch(self, request: Request) -> Response:
        tenant = request.headers.get(TENANT_HEADER, DEFAULT_TENANT)
        try:
            # The tenant header becomes a resume-dir path component; a
            # traversal like '../../target' must die here, before any
            # route can hand it to the registry.
            validate_name("tenant", tenant)
            if self._draining:
                return json_response(
                    error_payload(
                        503, "draining", "server is shutting down"
                    ),
                    status=503,
                )
            return await self._route(tenant, request)
        except ProtocolError as exc:
            return json_response(
                error_payload(exc.status, "protocol_error", str(exc)),
                status=exc.status,
            )
        except _NotFound as exc:
            return json_response(
                error_payload(404, "not_found", str(exc)), status=404
            )
        except BudgetExceeded as exc:
            payload = error_payload(
                429,
                "budget_exceeded",
                str(exc),
                reason=exc.reason,
                stage=exc.stage,
                limit=exc.limit,
                observed=exc.observed,
                elapsed_seconds=exc.elapsed_seconds,
                fidelity="none",
                retryable=self.registry.resume_dir is not None,
            )
            return json_response(payload, status=429)
        except SessionExistsError as exc:
            # Both the pre-check and the registry's own duplicate
            # detection (reached on a create/create race) land here, so
            # the conflict is 409 regardless of timing.
            return json_response(
                error_payload(409, "session_exists", str(exc)), status=409
            )
        except InputError as exc:
            extra = getattr(exc, "context", None) or {}
            return json_response(
                error_payload(400, "input_error", str(exc), **extra),
                status=400,
            )
        except WorkerCrashError as exc:
            return json_response(
                error_payload(503, "worker_crash", str(exc)), status=503
            )
        except CheckpointError as exc:
            return json_response(
                error_payload(500, "checkpoint_error", str(exc)), status=500
            )
        except Exception as exc:  # noqa: BLE001 - last-resort boundary
            traceback.print_exc(file=sys.stderr)
            return json_response(
                error_payload(
                    500, "internal_error", f"{type(exc).__name__}: {exc}"
                ),
                status=500,
            )

    async def _route(self, tenant: str, request: Request) -> Response:
        method, path = request.method, request.path.rstrip("/") or "/"

        if path == "/healthz":
            self._need(method, "GET")
            return json_response(
                {"status": "ok", "draining": self._draining}
            )
        if path == "/v1/stats":
            self._need(method, "GET")
            return json_response(self._stats())
        if path == "/v1/sessions":
            if method == "POST":
                return await self._create_session(tenant, request)
            self._need(method, "GET")
            infos = await self._run_heavy(
                tenant,
                lambda: [
                    s.info() for s in self.registry.sessions_of(tenant)
                ],
            )
            return json_response({"sessions": infos})

        parts = path.split("/")
        # /v1/sessions/{sid}[/{verb}]
        if len(parts) >= 4 and parts[1] == "v1" and parts[2] == "sessions":
            session_id = parts[3]
            verb = parts[4] if len(parts) == 5 else None
            if len(parts) > 5:
                raise _NotFound(f"no route {path!r}")
            return await self._session_route(
                tenant, session_id, verb, method, request
            )
        raise _NotFound(f"no route {path!r}")

    @staticmethod
    def _need(method: str, *allowed: str) -> None:
        if method not in allowed:
            raise ProtocolError(
                405, f"method {method} not allowed here (use "
                f"{', '.join(allowed)})"
            )

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    async def _create_session(
        self, tenant: str, request: Request
    ) -> Response:
        if not request.has_body:
            raise InputError(
                "session creation needs the dataset CSV as the request body"
            )
        options = SessionOptions.from_params(request.query)
        name = request.param("name") or "relation"
        session_id = request.param("session")
        if session_id is not None:
            validate_name("session id", session_id)
            if (
                self.registry.get(tenant, session_id) is not None
                or self.registry.has_persisted(tenant, session_id)
            ):
                # Fast-path refusal; a create/create race that slips
                # past this raises the same SessionExistsError from
                # registry.create, so both paths surface as 409.
                raise SessionExistsError(
                    f"session {session_id!r} already exists for tenant "
                    f"{tenant!r}"
                )
        session = await self._run_heavy(
            tenant,
            self.registry.create,
            tenant,
            # A spooled upload is handed over as its file path; the
            # registry takes ownership (moves it into the session
            # directory) and the CSV is parsed straight off disk.
            request.body_path if request.body_path is not None else request.body,
            name,
            options,
            session_id,
        )
        return json_response(session.info(), status=201)

    async def _session_route(
        self,
        tenant: str,
        session_id: str,
        verb: str | None,
        method: str,
        request: Request,
    ) -> Response:
        session = await self._session(tenant, session_id)

        if verb is None:
            if method == "DELETE":
                if session.busy:
                    return json_response(
                        error_payload(
                            409,
                            "session_busy",
                            "session has in-flight work; retry",
                        ),
                        status=409,
                    )
                self.registry.delete(session)
                return Response(status=204)
            self._need(method, "GET")
            return json_response(await self._run_heavy(tenant, session.info))

        # Reads go through the gate too: a /batch for the same session
        # mutates the engine in a worker thread, and the gate is what
        # keeps these views from observing a half-applied batch.
        if verb == "schema":
            self._need(method, "GET")
            if request.param("format") == "text":
                text = await self._run_heavy(
                    tenant, lambda: session.engine.schema.to_str() + "\n"
                )
                return text_response(text)
            payload = await self._run_heavy(
                tenant, lambda: schema_to_json(session.engine.schema)
            )
            return json_response(payload)
        if verb == "ddl":
            self._need(method, "GET")
            ddl = await self._run_heavy(tenant, lambda: session.engine.ddl())
            return text_response(ddl, content_type="application/sql")
        if verb == "migration":
            self._need(method, "GET")
            sql = await self._run_heavy(tenant, session.migration_sql)
            return text_response(sql, content_type="application/sql")
        if verb == "normalize":
            self._need(method, "POST")
            view = await self._run_heavy(tenant, self._normalize_view, session)
            return json_response(view)
        if verb == "batch":
            self._need(method, "POST")
            return await self._apply_batch(tenant, session, request)
        raise _NotFound(f"no session verb {verb!r}")

    def _normalize_view(self, session: Session) -> dict:
        """The normalization summary; warm reads never recompute."""
        engine = session.engine
        result = engine.result
        assert result is not None
        return {
            "session": session.session_id,
            "applied_batches": engine.applied_batches,
            "fidelity": (
                result.fidelity.to_str()
                if result.fidelity is not None
                else "exact"
            ),
            "relations": {
                name: {
                    "columns": list(instance.columns),
                    "rows": instance.num_rows,
                }
                for name, instance in result.instances.items()
            },
            "fds": {
                name: len(engine.fd_cover(name))
                for name in engine.relation_names()
            },
            "keys": {
                name: len(engine.key_cover(name))
                for name in engine.relation_names()
            },
            "ddl": engine.ddl(),
        }

    async def _apply_batch(
        self, tenant: str, session: Session, request: Request
    ) -> Response:
        payload = request.json()
        if not isinstance(payload, dict):
            raise InputError(
                "change batch must be a JSON object with "
                "'inserts'/'deletes' lists"
            )
        batch = ChangeBatch.from_json(payload, coerce_str=True)
        session.busy += 1
        try:
            outcome = await self._run_heavy(
                tenant, self.registry.apply_batch, session, batch
            )
        except BudgetExceeded:
            # The registry rolled the changelog back and dropped the
            # in-memory engine; persisted sessions revive pre-batch.
            raise
        finally:
            session.busy -= 1
        return json_response(
            {
                "session": session.session_id,
                "batch_index": outcome.batch_index,
                "relation": outcome.relation,
                "inserts_applied": outcome.inserts_applied,
                "deletes_applied": outcome.deletes_applied,
                "violations": [v.to_str() for v in outcome.violations],
                "schema_changed": outcome.schema_changed,
                "migration_sql": (
                    outcome.migration.to_sql()
                    if outcome.schema_changed
                    else ""
                ),
                "fidelity": outcome.fidelity,
                "applied_batches": session.engine.applied_batches,
            }
        )

    def _stats(self) -> dict:
        return {
            "server": {
                "requests_total": self.requests_total,
                "inflight": self._inflight,
                "draining": self._draining,
                "tenants": len(self._tenant_sems),
            },
            "sessions": self.registry.stats(),
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listeners (TCP and/or unix socket)."""
        if self.config.socket_path:
            server = await asyncio.start_unix_server(
                self._handle_connection, path=self.config.socket_path
            )
            self._servers.append(server)
        if self.config.socket_path is None or self.config.port:
            server = await asyncio.start_server(
                self._handle_connection, self.config.host, self.config.port
            )
            self._servers.append(server)
            self.bound_port = server.sockets[0].getsockname()[1]

    def request_shutdown(self) -> None:
        """Begin the drain; idempotent, signal-handler safe."""
        self._draining = True
        self._shutdown.set()

    async def drain(self) -> None:
        """Stop accepting, wait out in-flight work, release resources."""
        self._draining = True
        for server in self._servers:
            server.close()
        for server in self._servers:
            with contextlib.suppress(Exception):
                await server.wait_closed()
        with contextlib.suppress(asyncio.TimeoutError):
            await asyncio.wait_for(
                self._idle.wait(), timeout=self.config.drain_timeout
            )
        await asyncio.to_thread(self._release_resources)
        if self.config.socket_path:
            with contextlib.suppress(OSError):
                os.unlink(self.config.socket_path)

    @staticmethod
    def _release_resources() -> None:
        shutdown_pool_if_loaded()

    async def run_until_shutdown(self, ready: asyncio.Event | None = None) -> None:
        """start() → announce → sweep idle sessions → drain on signal."""
        await self.start()
        if ready is not None:
            ready.set()
        self._announce()
        sweeper = asyncio.create_task(self._sweep_idle())
        try:
            await self._shutdown.wait()
        finally:
            sweeper.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await sweeper
            await self.drain()

    def _announce(self) -> None:
        lines = []
        if self.bound_port is not None:
            lines.append(
                f"listening on http://{self.config.host}:{self.bound_port}"
            )
        if self.config.socket_path:
            lines.append(f"listening on unix:{self.config.socket_path}")
        for line in lines:
            print(line, flush=True)

    async def _sweep_idle(self) -> None:
        interval = max(1.0, min(self.config.idle_ttl / 4.0, 30.0))
        while True:
            await asyncio.sleep(interval)
            self.registry.expire_idle()


def _preload_session_modules() -> None:
    """Import every module a session's requests run, before listening.

    The pipeline imports its FD discoverer by name, checkpointing when a
    run starts and the pool when a run first shards; the first request
    would also load the thread executor behind :func:`asyncio.to_thread`
    and the ``utf-8-sig`` codec of uploads.  The daemon pays for all of
    them at start so that no request does.

    numpy stays out: a kernel call of 512+ elements imports it inside
    the request that makes it.  Measured on a 2-vCPU x86_64 host with
    CPython 3.11.7 and numpy 2.4.6, importing it adds about 170 ms to a
    cold start (median of 11: ``python -c pass`` 46 ms, ``python -c
    "import numpy"`` 220 ms) and 12.6 MB of peak RSS.  Preloading it
    would push the daemon's cold start past the benchmark's 25%
    ``setup_s`` bound, and a daemon whose relations stay small never
    needs it.
    """
    from importlib import import_module

    from repro.discovery.base import FD_ALGORITHMS
    from repro.parallel import resolve_workers

    modules = [path.rpartition(".")[0] for path in FD_ALGORITHMS.values()]
    modules += ["repro.runtime.checkpointing"]
    modules += ["concurrent.futures.thread", "encodings.utf_8_sig"]
    if resolve_workers() > 1:
        modules += ["repro.parallel.pool", "repro.parallel.shm"]
    for module in modules:
        import_module(module)


def serve(config: ServerConfig) -> int:
    """Blocking entry point behind ``repro serve``; returns exit code."""
    import signal

    _preload_session_modules()

    async def _main() -> int:
        server = ReproServer(config)
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, server.request_shutdown)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        await server.run_until_shutdown()
        return 0

    return asyncio.run(_main())
