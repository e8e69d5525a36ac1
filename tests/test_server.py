"""The ``repro serve`` daemon: protocol, sessions, routing, tenancy.

Four layers, tested bottom-up:

* the HTTP/1.1 parser (``repro.server.protocol``) against well-formed
  and hostile inputs,
* the session registry (``repro.server.sessions``) — LRU eviction,
  idle expiry, busy-pinning, journal-backed revival, budget rollback,
* the routed endpoints through a real in-process server + the blocking
  client,
* multi-tenant isolation: N concurrent clients interleaving batches
  must each converge to the DDL a serial single-tenant run produces,
  and eviction under pressure must never drop a session with in-flight
  work (the revive-from-journal path keeps evicted tenants correct).

The subprocess/signal end of the daemon lives in
``tests/test_server_smoke.py``.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.incremental.changes import ChangeBatch
from repro.incremental.engine import IncrementalNormalizer
from repro.io.csv_io import read_csv
from repro.runtime.errors import BudgetExceeded, InputError
from repro.runtime.governor import Budget
from repro.server import (
    ReproClient,
    ReproServer,
    ServerConfig,
    ServerError,
    SessionExistsError,
    SessionOptions,
    SessionRegistry,
)
from repro.server.protocol import ProtocolError, Request, read_request

CSV = b"emp,dept,mgr\n1,sales,ann\n2,sales,ann\n3,eng,bob\n"


def _parse(raw: bytes, max_body: int = 1 << 20):
    """Drive the async request parser over a canned byte stream."""

    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader, max_body)

    return asyncio.run(run())


class TestProtocol:
    def test_parses_request_line_query_and_headers(self):
        request = _parse(
            b"GET /v1/sessions?name=emp&x=1 HTTP/1.1\r\n"
            b"Host: h\r\nX-Repro-Tenant: alice\r\n\r\n"
        )
        assert request.method == "GET"
        assert request.path == "/v1/sessions"
        assert request.query == {"name": "emp", "x": "1"}
        assert request.headers["x-repro-tenant"] == "alice"
        assert request.keep_alive

    def test_reads_content_length_body(self):
        request = _parse(
            b"POST /x HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd"
        )
        assert request.body == b"abcd"

    def test_clean_eof_returns_none(self):
        assert _parse(b"") is None

    def test_mid_request_eof_is_400(self):
        with pytest.raises(ProtocolError) as excinfo:
            _parse(b"GET / HTTP/1.1\r\nHost")
        assert excinfo.value.status == 400

    def test_chunked_is_501(self):
        with pytest.raises(ProtocolError) as excinfo:
            _parse(
                b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
            )
        assert excinfo.value.status == 501

    def test_oversized_body_is_413(self):
        with pytest.raises(ProtocolError) as excinfo:
            _parse(
                b"POST /x HTTP/1.1\r\nContent-Length: 100\r\n\r\n" + b"a" * 100,
                max_body=10,
            )
        assert excinfo.value.status == 413

    def test_connection_close_disables_keep_alive(self):
        request = _parse(
            b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n"
        )
        assert not request.keep_alive

    def test_malformed_request_line_is_400(self):
        with pytest.raises(ProtocolError) as excinfo:
            _parse(b"NONSENSE\r\n\r\n")
        assert excinfo.value.status == 400

    def test_json_body_helper_rejects_garbage(self):
        request = _parse(
            b"POST /x HTTP/1.1\r\nContent-Length: 3\r\n\r\n{{{"
        )
        with pytest.raises(ProtocolError) as excinfo:
            request.json()
        assert excinfo.value.status == 400


class TestSessionOptions:
    def test_rejects_unknown_algorithm(self):
        with pytest.raises(InputError):
            SessionOptions(algorithm="nope")

    def test_rejects_bad_budget_string_eagerly(self):
        with pytest.raises(InputError):
            SessionOptions(deadline="not-a-duration")

    def test_round_trips_through_json(self):
        options = SessionOptions(
            algorithm="tane", target="3nf", deadline="5s", memory_limit="1GB"
        )
        assert SessionOptions.from_json(options.to_json()) == options

    def test_budget_built_from_human_strings(self):
        budget = SessionOptions(deadline="2s", memory_limit="1MB").budget()
        assert budget.deadline_seconds == pytest.approx(2.0)
        assert budget.max_memory_bytes == 1024 * 1024
        assert SessionOptions().budget() is None

    def test_from_params_parses_header_flag_and_ints(self):
        # A parameter naming no option (the retired candidate cap) is
        # ignored, like any unknown query parameter.
        options = SessionOptions.from_params(
            {
                "algorithm": "tane",
                "header": "false",
                "deadline": "2s",
                "memory_limit": "1MB",
                "max_candidates": "3",
            }
        )
        assert options.algorithm == "tane"
        assert not options.has_header
        assert options.budget().deadline_seconds == pytest.approx(2.0)
        assert options.budget().max_memory_bytes == 1024 * 1024
        assert "max_candidates" not in options.to_json()


class TestSessionRegistry:
    def _registry(self, tmp_path=None, **kwargs):
        kwargs.setdefault("max_sessions", 8)
        kwargs.setdefault("idle_ttl", 3600)
        if tmp_path is not None:
            kwargs.setdefault("resume_dir", tmp_path / "state")
        return SessionRegistry(**kwargs)

    def test_create_and_get(self, tmp_path):
        registry = self._registry(tmp_path)
        session = registry.create(
            "t1", CSV, "emp", SessionOptions(), session_id="s1"
        )
        assert registry.get("t1", "s1") is session
        assert registry.get("t2", "s1") is None
        assert session.engine.applied_batches == 0
        assert registry.counters["discovery_runs"] == 1

    def test_duplicate_session_id_rejected(self, tmp_path):
        registry = self._registry(tmp_path)
        registry.create("t1", CSV, "emp", SessionOptions(), session_id="s1")
        # The dedicated conflict type is what the app maps to 409.
        with pytest.raises(SessionExistsError):
            registry.create(
                "t1", CSV, "emp", SessionOptions(), session_id="s1"
            )

    def test_invalid_names_rejected(self):
        registry = self._registry()
        for bad in ("", "../x", "a b", "x" * 65, ".hidden"):
            with pytest.raises(InputError):
                registry.create(bad, CSV, "emp", SessionOptions())

    def test_lookup_paths_reject_traversal(self, tmp_path):
        """has_persisted/revive must refuse hostile identifiers too —
        not just create — or they become path components."""
        registry = self._registry(tmp_path)
        registry.create("t", CSV, "emp", SessionOptions(), "s1")
        for tenant, sid in (("../t", "s1"), ("t", "../s1"), ("t", "..")):
            with pytest.raises(InputError):
                registry.has_persisted(tenant, sid)
            with pytest.raises(InputError):
                registry.revive(tenant, sid)

    def test_lru_eviction_skips_busy_sessions(self):
        registry = self._registry(max_sessions=2)
        s1 = registry.create("t", CSV, "emp", SessionOptions(), "s1")
        s1.busy = 1
        registry.create("t", CSV, "emp", SessionOptions(), "s2")
        registry.create("t", CSV, "emp", SessionOptions(), "s3")
        # s1 is the LRU entry but busy: s2 (next-oldest idle) goes.
        assert registry.get("t", "s1") is not None
        assert registry.get("t", "s2") is None
        assert registry.get("t", "s3") is not None
        assert registry.counters["sessions_evicted"] == 1

    def test_all_busy_runs_over_capacity(self):
        registry = self._registry(max_sessions=1)
        s1 = registry.create("t", CSV, "emp", SessionOptions(), "s1")
        s1.busy = 1
        s2 = registry.create("t", CSV, "emp", SessionOptions(), "s2")
        s2.busy = 1
        assert len(registry) == 2  # over cap rather than killing live work

    def test_idle_expiry_skips_busy_sessions(self):
        registry = self._registry(idle_ttl=10)
        s1 = registry.create("t", CSV, "emp", SessionOptions(), "s1")
        s2 = registry.create("t", CSV, "emp", SessionOptions(), "s2")
        s1.busy = 1
        now = max(s1.last_used, s2.last_used) + 11
        expired = registry.expire_idle(now=now)
        assert [s.session_id for s in expired] == ["s2"]
        assert registry.get("t", "s1") is not None

    def test_delete_removes_persisted_state(self, tmp_path):
        registry = self._registry(tmp_path)
        session = registry.create(
            "t", CSV, "emp", SessionOptions(), "s1"
        )
        assert registry.has_persisted("t", "s1")
        registry.delete(session)
        assert not registry.has_persisted("t", "s1")
        assert registry.get("t", "s1") is None


class TestRevival:
    """Durability: revive == journal replay, never rediscovery."""

    def _baseline(self, tmp_path, batches=()):
        registry = SessionRegistry(resume_dir=tmp_path / "state")
        session = registry.create(
            "t", CSV, "emp", SessionOptions(), "s1"
        )
        for batch in batches:
            registry.apply_batch(session, batch)
        return registry, session

    def test_revive_hits_journal_and_matches(self, tmp_path):
        batch = ChangeBatch(inserts=(("4", "eng", "bob"),), deletes=(0,))
        _, session = self._baseline(tmp_path, [batch])
        fresh = SessionRegistry(resume_dir=tmp_path / "state")
        revived = fresh.revive("t", "s1")
        assert revived.resumed_from_journal
        assert fresh.counters["journal_hits"] == 1
        assert fresh.counters["discovery_runs"] == 0
        assert revived.engine.applied_batches == 1
        assert revived.engine.ddl() == session.engine.ddl()
        assert revived.migration_sql() == session.migration_sql()

    def test_revive_applies_pending_changelog_tail(self, tmp_path):
        registry, session = self._baseline(tmp_path)
        # Simulate a crash after the changelog append but before the
        # engine applied (and journaled) the batch.
        tail = ChangeBatch(inserts=(("9", "ops", "cat"),))
        session._append_changelog(tail)
        fresh = SessionRegistry(resume_dir=tmp_path / "state")
        revived = fresh.revive("t", "s1")
        assert revived.engine.applied_batches == 1
        assert revived.engine.live("emp").num_rows == 4

    def test_revive_drops_torn_final_changelog_line(self, tmp_path):
        registry, session = self._baseline(
            tmp_path, [ChangeBatch(inserts=(("4", "eng", "bob"),))]
        )
        changes = session.directory / "changes.jsonl"
        with open(changes, "a", encoding="utf-8") as handle:
            handle.write('{"inserts": [["torn')  # cut mid-append
        fresh = SessionRegistry(resume_dir=tmp_path / "state")
        revived = fresh.revive("t", "s1")
        assert revived.engine.applied_batches == 1
        assert revived.engine.live("emp").num_rows == 4

    def test_budget_breach_rolls_back_to_journaled_state(self, tmp_path):
        registry, session = self._baseline(
            tmp_path, [ChangeBatch(inserts=(("4", "eng", "bob"),))]
        )
        ddl_before = session.engine.ddl()
        # An already-expired deadline breaches at the first governed
        # checkpoint inside maintenance — mid-mutation, the dirty case.
        session.engine.budget = Budget(
            deadline_seconds=1e-9, check_interval=1
        )
        with pytest.raises(BudgetExceeded):
            registry.apply_batch(
                session, ChangeBatch(inserts=(("5", "ops", "dan"),))
            )
        # The in-memory (possibly dirty) engine is gone ...
        assert registry.get("t", "s1") is None
        # ... and the durable state is the pre-batch journal.
        fresh = SessionRegistry(resume_dir=tmp_path / "state")
        revived = fresh.revive("t", "s1")
        assert revived.engine.applied_batches == 1
        assert revived.engine.ddl() == ddl_before


class TestDurableWrites:
    """Every file a session renames into place was fsynced first."""

    @staticmethod
    def _watch(monkeypatch):
        """Record fsynced paths and, per ``os.replace``, whether its
        source was among them."""
        synced: set[str] = set()
        replaced: list[tuple[str, bool]] = []
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            synced.add(os.readlink(f"/proc/self/fd/{fd}"))
            real_fsync(fd)

        def replace(src, dst):
            source = os.path.realpath(src)
            replaced.append((os.path.basename(dst), source in synced))
            real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        return replaced

    def _session(self, tmp_path):
        registry = SessionRegistry(resume_dir=tmp_path / "state")
        return registry, registry.create("t", CSV, "emp", SessionOptions(), "s1")

    def test_budget_rollback_fsyncs_before_rename(self, tmp_path, monkeypatch):
        registry, session = self._session(tmp_path)
        registry.apply_batch(session, ChangeBatch(inserts=(("4", "eng", "bob"),)))
        replaced = self._watch(monkeypatch)
        session.engine.budget = Budget(deadline_seconds=1e-9, check_interval=1)
        with pytest.raises(BudgetExceeded):
            registry.apply_batch(
                session, ChangeBatch(inserts=(("5", "ops", "dan"),))
            )
        assert ("changes.jsonl", True) in replaced
        assert all(fsynced for _, fsynced in replaced), replaced

    def test_schema_change_fsyncs_before_rename(self, tmp_path, monkeypatch):
        replaced = self._watch(monkeypatch)
        registry, session = self._session(tmp_path)
        # refutes dept -> mgr and mgr -> dept
        outcome = registry.apply_batch(
            session, ChangeBatch(inserts=(("4", "eng", "ann"),))
        )
        assert outcome.schema_changed
        names = [name for name, _ in replaced]
        assert {"meta.json", "journal.json", "migrations.json"} <= set(names)
        assert all(fsynced for _, fsynced in replaced), replaced

    def test_unchanged_schema_leaves_migrations_alone(self, tmp_path, monkeypatch):
        registry, session = self._session(tmp_path)
        replaced = self._watch(monkeypatch)
        outcome = registry.apply_batch(
            session, ChangeBatch(inserts=(("4", "eng", "bob"),))
        )
        assert not outcome.schema_changed
        assert [name for name, _ in replaced] == ["journal.json"]


# ----------------------------------------------------------------------
# In-process server harness
# ----------------------------------------------------------------------
class ServerThread:
    """A real daemon on a real socket, driven from a background thread."""

    def __init__(self, **config_kwargs):
        config_kwargs.setdefault("port", 0)
        self.config = ServerConfig(**config_kwargs)
        self.server: ReproServer | None = None
        self.loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        async def main():
            self.server = ReproServer(self.config)
            self.loop = asyncio.get_running_loop()
            ready = asyncio.Event()
            task = asyncio.create_task(
                self.server.run_until_shutdown(ready)
            )
            await ready.wait()
            self._ready.set()
            await task

        asyncio.run(main())

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(timeout=30), "server did not come up"
        return self

    def __exit__(self, *exc):
        assert self.loop is not None and self.server is not None
        self.loop.call_soon_threadsafe(self.server.request_shutdown)
        self._thread.join(timeout=30)
        assert not self._thread.is_alive(), "server did not drain"

    def client(self, tenant="default") -> ReproClient:
        assert self.server is not None
        return ReproClient(
            "127.0.0.1", self.server.bound_port, tenant=tenant
        )


class TestEndpoints:
    def test_full_session_lifecycle(self, tmp_path):
        with ServerThread(resume_dir=str(tmp_path / "state")) as harness:
            client = harness.client("alice")
            info = client.create_session(CSV, name="emp", session="s1")
            assert info["session"] == "s1"
            assert info["rows"] == 3
            assert info["applied_batches"] == 0

            outcome = client.apply_batch(
                "s1", {"inserts": [["4", "eng", "bob"]], "deletes": [0]}
            )
            assert outcome["inserts_applied"] == 1
            assert outcome["deletes_applied"] == 1
            assert outcome["applied_batches"] == 1

            # Server bytes == offline engine bytes for the same stream.
            engine = IncrementalNormalizer(read_csv(CSV, name="emp"))
            engine.apply_batch(
                ChangeBatch(inserts=(("4", "eng", "bob"),), deletes=(0,))
            )
            assert client.ddl("s1") == engine.ddl()

            schema = client.schema("s1")
            assert {r["name"] for r in schema["relations"]} == set(
                engine.result.instances
            )
            assert client.schema_text("s1").rstrip("\n") == (
                engine.schema.to_str()
            )

            sessions = client.list_sessions()
            assert [s["session"] for s in sessions] == ["s1"]

            view = client.normalize("s1")
            assert view["ddl"] == engine.ddl()
            assert view["applied_batches"] == 1

            client.delete_session("s1")
            with pytest.raises(ServerError) as excinfo:
                client.session_info("s1")
            assert excinfo.value.status == 404

    def test_error_taxonomy_status_codes(self, tmp_path):
        with ServerThread(resume_dir=str(tmp_path / "state")) as harness:
            client = harness.client()

            with pytest.raises(ServerError) as excinfo:
                client.session_info("ghost")
            assert excinfo.value.status == 404
            assert excinfo.value.code == "not_found"

            with pytest.raises(ServerError) as excinfo:
                client.create_session(b"a,a\n1,2\n", name="dup")
            assert excinfo.value.status == 400
            assert excinfo.value.code == "input_error"
            # duplicate-header context survives the wire
            assert excinfo.value.payload["error"]["duplicates"] == ["a"]

            with pytest.raises(ServerError) as excinfo:
                client.create_session(CSV, name="emp", deadline="bogus")
            assert excinfo.value.status == 400

            client.create_session(CSV, name="emp", session="s1")
            with pytest.raises(ServerError) as excinfo:
                client.create_session(CSV, name="emp", session="s1")
            assert excinfo.value.status == 409

            status, _, _ = client.request("PUT", "/v1/sessions/s1/ddl")
            assert status == 405
            status, _, _ = client.request("GET", "/nope")
            assert status == 404

    def test_budget_exceeded_maps_to_429_with_tags(self, tmp_path):
        # Wide enough that discovery is guaranteed to hit a governed
        # checkpoint after the (already-expired) 1 microsecond deadline.
        header = ",".join(f"c{i}" for i in range(8))
        rows = "\n".join(
            ",".join(f"v{(row * (col + 3)) % 17}" for col in range(8))
            for row in range(300)
        )
        big_csv = (header + "\n" + rows + "\n").encode("utf-8")
        with ServerThread(resume_dir=str(tmp_path / "state")) as harness:
            client = harness.client()
            with pytest.raises(ServerError) as excinfo:
                client.create_session(
                    big_csv, name="emp", deadline="0.000001"
                )
            error = excinfo.value
            assert error.status == 429
            assert error.code == "budget_exceeded"
            body = error.payload["error"]
            assert body["reason"] == "deadline"
            assert body["stage"]
            assert body["fidelity"] == "none"

    def test_tenants_are_namespaced(self, tmp_path):
        with ServerThread(resume_dir=str(tmp_path / "state")) as harness:
            alice, bob = harness.client("alice"), harness.client("bob")
            alice.create_session(CSV, name="emp", session="s1")
            with pytest.raises(ServerError) as excinfo:
                bob.session_info("s1")
            assert excinfo.value.status == 404
            assert bob.list_sessions() == []

    def test_evicted_session_revives_transparently(self, tmp_path):
        with ServerThread(
            resume_dir=str(tmp_path / "state"), max_sessions=1
        ) as harness:
            client = harness.client()
            client.create_session(CSV, name="emp", session="s1")
            ddl_s1 = client.ddl("s1")
            client.create_session(CSV, name="emp", session="s2")  # evicts s1
            stats = client.stats()["sessions"]
            assert stats["sessions_evicted"] >= 1
            # s1 comes back from its journal, byte-identical.
            assert client.ddl("s1") == ddl_s1
            stats = client.stats()["sessions"]
            assert stats["journal_hits"] >= 1
            assert stats["discovery_runs"] == 2  # one per created session

    def test_hostile_identifiers_cannot_escape_resume_dir(self, tmp_path):
        """Traversal in the tenant header or URL session id is a 400 on
        *every* route — lookup, revive, and DELETE included — so no
        request can read or rmtree outside --resume-dir."""
        state = tmp_path / "state"
        victim = tmp_path / "victim" / "s1"
        victim.mkdir(parents=True)
        (victim / "meta.json").write_text("{}", encoding="utf-8")
        with ServerThread(resume_dir=str(state)) as harness:
            evil = ReproClient(
                "127.0.0.1", harness.server.bound_port, tenant="../victim"
            )
            with pytest.raises(ServerError) as excinfo:
                evil.session_info("s1")
            assert excinfo.value.status == 400
            status, _, _ = evil.request("DELETE", "/v1/sessions/s1")
            assert status == 400
            client = harness.client()
            # '%2e%2e' unquotes to '..' in the path segment
            status, _, _ = client.request("DELETE", "/v1/sessions/%2e%2e")
            assert status == 400
            status, _, _ = client.request("GET", "/v1/sessions/%2e%2e/ddl")
            assert status == 400
        assert (victim / "meta.json").exists()

    def test_duplicate_create_race_maps_to_409(self, tmp_path):
        """Defeat the fast-path existence check the way a create/create
        race would: the registry's own duplicate detection must surface
        as the same 409, not a 400."""

        async def run():
            server = ReproServer(
                ServerConfig(resume_dir=str(tmp_path / "state"))
            )
            request = Request(
                method="POST",
                target="/v1/sessions?session=s1&name=emp",
                path="/v1/sessions",
                query={"session": "s1", "name": "emp"},
                headers={},
                body=CSV,
            )
            first = await server._dispatch(request)
            assert first.status == 201
            # Blind the pre-check; only registry.create's check remains.
            server.registry.get = lambda *a, **k: None
            server.registry.has_persisted = lambda *a, **k: False
            second = await server._dispatch(request)
            assert second.status == 409
            assert b"session_exists" in second.body

        asyncio.run(run())

    def test_concurrent_revival_revives_once(self, tmp_path):
        """Two requests hitting an evicted session must share one
        revival: a duplicate engine over the same changelog/journal
        files would diverge on the next batch."""

        async def run():
            server = ReproServer(
                ServerConfig(resume_dir=str(tmp_path / "state"))
            )
            await asyncio.to_thread(
                server.registry.create,
                "t", CSV, "emp", SessionOptions(), "s1",
            )
            server.registry.discard(server.registry.get("t", "s1"))
            assert server.registry.get("t", "s1") is None
            a, b = await asyncio.gather(
                server._session("t", "s1"), server._session("t", "s1")
            )
            assert a is b
            assert server.registry.counters["sessions_revived"] == 1

        asyncio.run(run())

    def test_delimiter_survives_query_encoding(self, tmp_path):
        """Client-side urlencode: a tab delimiter must round-trip the
        query string instead of corrupting the request target."""
        with ServerThread(resume_dir=str(tmp_path / "state")) as harness:
            client = harness.client()
            tsv = CSV.replace(b",", b"\t")
            info = client.create_session(
                tsv, name="emp", session="s1", delimiter="\t"
            )
            assert info["options"]["delimiter"] == "\t"
            assert info["rows"] == 3
            assert len(info["columns"]) == 3

    def test_spooled_upload_matches_buffered_upload(self, tmp_path):
        payload = _emp_csv(300)
        with ServerThread(
            resume_dir=str(tmp_path / "state"), spool_threshold_bytes=64
        ) as harness:
            client = harness.client("alice")
            info = client.create_session(payload, name="emp", session="s1")
            assert info["rows"] == 300
            ddl_spooled = client.ddl("s1")
            # The upload was streamed to disk, then *moved* into the
            # session directory — bytes intact.
            dataset = tmp_path / "state" / "alice" / "s1" / "dataset.csv"
            assert dataset.read_bytes() == payload
            # No spool file leaks behind.
            spool = tmp_path / "state" / ".spool"
            assert not any(spool.glob("*")) if spool.exists() else True
        with ServerThread(resume_dir=str(tmp_path / "state2")) as harness:
            client = harness.client("alice")
            client.create_session(payload, name="emp", session="s1")
            ddl_buffered = client.ddl("s1")
        assert ddl_spooled == ddl_buffered

    def test_failed_upload_leaves_no_session_directory(self, tmp_path):
        bad = b"a,a\n1,2\n" + b"x" * 128  # duplicate header -> 400
        with ServerThread(
            resume_dir=str(tmp_path / "state"), spool_threshold_bytes=64
        ) as harness:
            client = harness.client("carol")
            with pytest.raises(ServerError):
                client.create_session(bad, name="emp", session="broken")
            assert not (tmp_path / "state" / "carol" / "broken").exists()

    def test_session_persisted_with_storage_option_revives(self, tmp_path):
        """Sessions written when sessions took a ``storage`` option (and
        kept mmap pages under ``spill/``) still revive from their journal,
        and a create request that still sends ``storage=`` is served."""
        state = tmp_path / "state"
        batch = {"inserts": [["4", "eng", "zed"]], "deletes": [0]}
        with ServerThread(resume_dir=str(state)) as harness:
            client = harness.client("dora")
            client.create_session(CSV, name="emp", session="s1")
            client.apply_batch("s1", batch)
            ddl, migration = client.ddl("s1"), client.migration("s1")
        assert migration
        directory = state / "dora" / "s1"
        meta_path = directory / "meta.json"
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        meta["options"]["storage"] = "spill"
        meta_path.write_text(json.dumps(meta), encoding="utf-8")
        pages = directory / "spill" / "store-0"
        pages.mkdir(parents=True)
        (pages / "col0-g0.i32").write_bytes(b"\0" * 16)

        with ServerThread(resume_dir=str(state)) as harness:
            client = harness.client("dora")
            assert client.ddl("s1") == ddl
            assert client.migration("s1") == migration
            stats = client.stats()["sessions"]
            assert stats["journal_hits"] == 1
            assert stats["discovery_runs"] == 0
            client.create_session(CSV, name="emp", session="s2", storage="spill")
            client.apply_batch("s2", batch)
            assert client.ddl("s2") == ddl
            assert client.migration("s2") == migration

    def test_stats_and_health(self, tmp_path):
        with ServerThread(resume_dir=str(tmp_path / "state")) as harness:
            client = harness.client()
            assert client.health()["status"] == "ok"
            stats = client.stats()
            assert stats["server"]["requests_total"] >= 1
            assert stats["sessions"]["live_sessions"] == 0


def _emp_csv(rows: int) -> bytes:
    lines = ["emp,dept,mgr"]
    for i in range(rows):
        lines.append(f"{i},{i % 5},m{i % 5}")
    return ("\n".join(lines) + "\n").encode()


def _serial_ddl(csv_bytes: bytes, name: str, batches) -> str:
    """The offline single-tenant reference run for one change stream."""
    engine = IncrementalNormalizer(read_csv(csv_bytes, name=name))
    for batch in batches:
        engine.apply_batch(batch)
    return engine.ddl()


class TestConcurrentTenants:
    """Satellite 3: isolation under genuinely interleaved load."""

    TENANTS = {
        "alice": (
            b"emp,dept,mgr\n1,sales,ann\n2,sales,ann\n3,eng,bob\n",
            [
                ChangeBatch(inserts=(("4", "eng", "bob"),)),
                ChangeBatch(inserts=(("5", "ops", "cat"),), deletes=(0,)),
                ChangeBatch(deletes=(1,)),
            ],
        ),
        "bob": (
            b"sku,cat,tax\np1,food,low\np2,food,low\np3,tool,high\n",
            [
                ChangeBatch(inserts=(("p4", "tool", "high"),)),
                ChangeBatch(inserts=(("p5", "food", "low"),)),
                ChangeBatch(deletes=(2,)),
            ],
        ),
        "carol": (
            b"s,c,term\ns1,db,fall\ns2,db,fall\ns3,ml,spring\n",
            [
                ChangeBatch(inserts=(("s4", "ml", "spring"),)),
                ChangeBatch(deletes=(0,), inserts=(("s5", "db", "fall"),)),
                ChangeBatch(inserts=(("s6", "os", "winter"),)),
            ],
        ),
    }

    def _drive(self, harness, tenant, csv_bytes, batches, barrier):
        client = harness.client(tenant)
        client.create_session(csv_bytes, name="rel", session="s")
        barrier.wait(timeout=60)  # maximize interleaving across tenants
        for batch in batches:
            client.apply_batch("s", batch.to_json())
        return tenant, client.ddl("s"), client.migration("s")

    def test_interleaved_tenants_match_serial_runs(self, tmp_path):
        with ServerThread(resume_dir=str(tmp_path / "state")) as harness:
            barrier = threading.Barrier(len(self.TENANTS))
            with ThreadPoolExecutor(len(self.TENANTS)) as pool:
                futures = [
                    pool.submit(
                        self._drive, harness, tenant, csv, batches, barrier
                    )
                    for tenant, (csv, batches) in self.TENANTS.items()
                ]
                results = {f.result()[0]: f.result()[1:] for f in futures}

        for tenant, (csv_bytes, batches) in self.TENANTS.items():
            served_ddl, served_migration = results[tenant]
            assert served_ddl == _serial_ddl(csv_bytes, "rel", batches), (
                f"tenant {tenant} diverged from its serial reference run"
            )
            engine = IncrementalNormalizer(read_csv(csv_bytes, name="rel"))
            log = []
            for batch in batches:
                outcome = engine.apply_batch(batch)
                if outcome.schema_changed:
                    log.append(
                        f"-- batch {outcome.batch_index} "
                        f"({outcome.relation})\n" + outcome.migration.to_sql()
                    )
            expected = "\n".join(log) if log else "-- No schema changes.\n"
            assert served_migration == expected

    def test_eviction_pressure_never_breaks_active_tenants(self, tmp_path):
        """max_sessions=1 under 3 concurrent tenants: every request must
        still succeed (evicted sessions revive from their journals)."""
        with ServerThread(
            resume_dir=str(tmp_path / "state"), max_sessions=1
        ) as harness:
            barrier = threading.Barrier(len(self.TENANTS))
            with ThreadPoolExecutor(len(self.TENANTS)) as pool:
                futures = [
                    pool.submit(
                        self._drive, harness, tenant, csv, batches, barrier
                    )
                    for tenant, (csv, batches) in self.TENANTS.items()
                ]
                results = {f.result()[0]: f.result()[1:] for f in futures}
            stats = harness.client().stats()["sessions"]

        assert stats["sessions_evicted"] >= 1, (
            "the test meant to exercise eviction pressure but none happened"
        )
        for tenant, (csv_bytes, batches) in self.TENANTS.items():
            assert results[tenant][0] == _serial_ddl(
                csv_bytes, "rel", batches
            )


class TestServeSubmitParsers:
    def test_serve_parser_defaults(self):
        from repro.cli import build_serve_parser

        args = build_serve_parser().parse_args([])
        assert args.port == 8651
        assert args.resume_dir is None

    def test_submit_parser_accepts_actions(self):
        from repro.cli import build_submit_parser

        args = build_submit_parser().parse_args(
            ["data.csv", "--session", "s1", "--ddl", "-", "--stats"]
        )
        assert args.file == "data.csv"
        assert args.ddl == "-"
        assert args.stats

    def test_cli_dispatches_serve_help(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--help"])
        assert excinfo.value.code == 0
        assert "daemon" in capsys.readouterr().out
