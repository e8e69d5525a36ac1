"""Blocking client for the ``repro serve`` daemon.

Backs ``repro submit``, the test suite, and the latency benchmark.
Stdlib only (:mod:`http.client`); one connection per request keeps the
failure modes simple, and the daemon's keep-alive is exercised by the
async tests instead.

>>> client = ReproClient("127.0.0.1", 8651, tenant="alice")
>>> info = client.create_session(csv_bytes, name="orders")
>>> client.apply_batch(info["session"], {"inserts": [["1", "2"]]})
>>> print(client.ddl(info["session"]))

Errors mirror the server's taxonomy: any non-2xx response raises
:class:`ServerError` carrying the status and the decoded
``{"error": {...}}`` payload.
"""

from __future__ import annotations

import http.client
import json
import socket
import time
from urllib.parse import urlencode

__all__ = ["ReproClient", "ServerError"]


class ServerError(Exception):
    """A non-2xx response from the daemon."""

    def __init__(self, status: int, payload: dict | None, body: bytes) -> None:
        self.status = status
        self.payload = payload or {}
        self.body = body
        error = (payload or {}).get("error", {})
        message = error.get("message") or body.decode("utf-8", "replace")
        super().__init__(f"HTTP {status}: {message}")

    @property
    def code(self) -> str:
        return self.payload.get("error", {}).get("code", "unknown")


class _UnixHTTPConnection(http.client.HTTPConnection):
    """``http.client`` over an ``AF_UNIX`` socket."""

    def __init__(self, socket_path: str, timeout: float) -> None:
        super().__init__("localhost", timeout=timeout)
        self._socket_path = socket_path

    def connect(self) -> None:  # pragma: no cover - trivial override
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.timeout)
        sock.connect(self._socket_path)
        self.sock = sock


class ReproClient:
    """Thin blocking wrapper over the daemon's HTTP surface."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        tenant: str = "default",
        socket_path: str | None = None,
        timeout: float = 60.0,
    ) -> None:
        self.host = host
        self.port = port
        self.tenant = tenant
        self.socket_path = socket_path
        self.timeout = timeout

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        if self.socket_path:
            return _UnixHTTPConnection(self.socket_path, self.timeout)
        return http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )

    def request(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        content_type: str = "application/json",
    ) -> tuple[int, dict[str, str], bytes]:
        """One raw request; returns (status, headers, body bytes)."""
        conn = self._connection()
        try:
            headers = {"X-Repro-Tenant": self.tenant}
            if body is not None:
                headers["Content-Type"] = content_type
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            data = response.read()
            return (
                response.status,
                {k.lower(): v for k, v in response.getheaders()},
                data,
            )
        finally:
            conn.close()

    def _json(
        self, method: str, path: str, body: bytes | None = None, **kwargs
    ) -> dict:
        status, _, data = self.request(method, path, body=body, **kwargs)
        payload = None
        try:
            payload = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            pass
        if status >= 400:
            raise ServerError(status, payload, data)
        if payload is None and status != 204:
            raise ServerError(status, None, data)
        return payload if payload is not None else {}

    def _text(self, path: str) -> str:
        status, _, data = self.request("GET", path)
        if status >= 400:
            try:
                payload = json.loads(data.decode("utf-8"))
            except (UnicodeDecodeError, ValueError):
                payload = None
            raise ServerError(status, payload, data)
        return data.decode("utf-8")

    # ------------------------------------------------------------------
    # Readiness
    # ------------------------------------------------------------------
    def wait_ready(self, timeout: float = 15.0, interval: float = 0.05) -> None:
        """Poll ``/healthz`` until the daemon answers (or raise)."""
        deadline = time.monotonic() + timeout
        last: Exception | None = None
        while time.monotonic() < deadline:
            try:
                if self.health().get("status") == "ok":
                    return
            except (OSError, ServerError) as exc:
                last = exc
            time.sleep(interval)
        raise TimeoutError(
            f"daemon did not become ready within {timeout}s: {last}"
        )

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def health(self) -> dict:
        return self._json("GET", "/healthz")

    def stats(self) -> dict:
        return self._json("GET", "/v1/stats")

    def create_session(
        self,
        csv_bytes: bytes,
        name: str = "relation",
        session: str | None = None,
        **options: str,
    ) -> dict:
        """Upload a CSV and run governed discovery + normalization.

        ``options`` become query parameters (``algorithm``, ``target``,
        ``closure``, ``deadline``, ``memory_limit``, ``delimiter``,
        ``header``, ``csv_errors``).
        """
        params = {"name": name, **options}
        if session is not None:
            params["session"] = session
        # urlencode: delimiters like '\t', ';', '&', '%' must survive
        # the query string intact (the server parse_qsl-decodes them).
        query = urlencode(params)
        return self._json(
            "POST",
            f"/v1/sessions?{query}",
            body=csv_bytes,
            content_type="text/csv",
        )

    def list_sessions(self) -> list[dict]:
        return self._json("GET", "/v1/sessions")["sessions"]

    def session_info(self, session: str) -> dict:
        return self._json("GET", f"/v1/sessions/{session}")

    def delete_session(self, session: str) -> None:
        self._json("DELETE", f"/v1/sessions/{session}")

    def normalize(self, session: str) -> dict:
        return self._json("POST", f"/v1/sessions/{session}/normalize")

    def apply_batch(self, session: str, batch: dict) -> dict:
        return self._json(
            "POST",
            f"/v1/sessions/{session}/batch",
            body=json.dumps(batch).encode("utf-8"),
        )

    def schema(self, session: str) -> dict:
        return self._json("GET", f"/v1/sessions/{session}/schema")

    def schema_text(self, session: str) -> str:
        return self._text(f"/v1/sessions/{session}/schema?format=text")

    def ddl(self, session: str) -> str:
        return self._text(f"/v1/sessions/{session}/ddl")

    def migration(self, session: str) -> str:
        return self._text(f"/v1/sessions/{session}/migration")
