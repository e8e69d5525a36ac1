"""Per-tenant session state for the normalization daemon.

A **session** is one uploaded dataset plus the live machinery that
keeps its normalization hot: the
:class:`~repro.incremental.engine.IncrementalNormalizer` (which owns
the :class:`~repro.incremental.structures.LiveRelation` encoded
columns and the maintained
:class:`~repro.incremental.cover.IncrementalCover`), the accumulated
migration log, and the bookkeeping the registry needs for fairness and
eviction.  Repeat requests against a session never pay rediscovery —
that is the entire point of the daemon (ROADMAP item 1).

The :class:`SessionRegistry` maps ``(tenant, session_id)`` to sessions
with two bounded-resource policies on top:

* **LRU eviction** — above ``max_sessions`` the least-recently-used
  idle session is dropped from memory (its persisted form, if any,
  survives and revives on next touch);
* **idle expiry** — sessions untouched for ``idle_ttl`` seconds are
  dropped the same way.

Neither policy ever touches a session with in-flight work: eviction
candidates must have a zero ``busy`` count, so an active tenant cannot
lose its session mid-request (pinned by
``tests/test_server.py::TestEvictionSafety``).

**Durability.**  With a resume directory, every session persists its
three durable inputs — the raw uploaded CSV, the applied-batch change
log (JSONL, one fsynced append per batch), and the engine's incremental
journal (atomic rewrite after every batch, the same
:mod:`repro.incremental.journal` format the CLI uses) — plus the
accumulated migration log.  :meth:`SessionRegistry.revive` rebuilds a
session from that directory: if the journal is present the engine is
restored via :func:`~repro.incremental.journal.resume_engine` — covers
intact, **no rediscovery** — and only a missing/unreadable journal
falls back to a fresh discovery run.  The ``journal_hits`` /
``journal_misses`` / ``discovery_runs`` counters make the difference
observable (``GET /v1/stats``), which is how the kill-9 acceptance test
proves a restart never rediscovers.

Write ordering per batch: changelog append → engine apply (which
rewrites the journal) → migration-log rewrite, only when the batch
changed the schema.  Every whole-file write (journal, migration log,
changelog rollback, ``meta.json``) goes through
:func:`~repro.runtime.checkpointing.write_durably`: a power cut leaves
the old file or the new one, never a torn one, and a rollback that
returned is on disk.  A crash between the
first two leaves a changelog tail the journal has not seen; revival
replays the journaled prefix and then *applies* the tail through the
engine, so the session converges to the state the batch would have
produced.  A torn final changelog line (the append itself was cut) is
detected and dropped.  On a :class:`BudgetExceeded` inside an apply the
registry rolls the changelog back to its pre-batch length and drops the
in-memory engine, so the next touch revives the last journaled state.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path

from repro.discovery.base import FD_ALGORITHMS
from repro.incremental.changes import ChangeBatch
from repro.incremental.engine import BatchOutcome, IncrementalNormalizer
from repro.incremental.journal import resume_engine
from repro.io.csv_io import read_csv
from repro.model.instance import RelationInstance
from repro.runtime.checkpointing import write_durably
from repro.runtime.errors import CheckpointError, InputError
from repro.runtime.governor import Budget, parse_duration, parse_memory

__all__ = [
    "Session",
    "SessionExistsError",
    "SessionOptions",
    "SessionRegistry",
]

#: tenants, session ids, and relation names become path components of
#: the resume directory; keep them boring
_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

_META_FILE = "meta.json"
_DATASET_FILE = "dataset.csv"
_CHANGES_FILE = "changes.jsonl"
_JOURNAL_FILE = "journal.json"
_MIGRATIONS_FILE = "migrations.json"


def validate_name(kind: str, value: str) -> str:
    """Validate a tenant/session/relation identifier (path-safe)."""
    if not isinstance(value, str) or not _NAME_RE.match(value):
        raise InputError(
            f"invalid {kind} {value!r}: use 1-64 characters from "
            "[A-Za-z0-9._-], starting with a letter or digit"
        )
    return value


class SessionExistsError(InputError):
    """Duplicate ``(tenant, session_id)``; the app maps this to 409."""


@dataclass(frozen=True, slots=True)
class SessionOptions:
    """The per-session knob set; everything the engine config needs.

    Budget fields keep their human-readable CLI spellings (``"5s"``,
    ``"512MB"``) so the persisted form round-trips exactly and the
    served results stay byte-identical to an offline
    ``repro apply-batch`` run with the same flags.
    """

    algorithm: str = "hyfd"
    target: str = "bcnf"
    closure: str = "optimized"
    delimiter: str = ","
    has_header: bool = True
    csv_errors: str = "strict"
    deadline: str | None = None
    memory_limit: str | None = None

    def __post_init__(self) -> None:
        if self.algorithm not in FD_ALGORITHMS:
            raise InputError(
                f"unknown algorithm {self.algorithm!r}; choose from "
                f"{sorted(FD_ALGORITHMS)}"
            )
        if self.target not in ("bcnf", "3nf"):
            raise InputError(
                f"unknown target {self.target!r} (the incremental engine "
                "maintains bcnf or 3nf)"
            )
        if self.closure not in ("naive", "improved", "optimized"):
            raise InputError(f"unknown closure algorithm {self.closure!r}")
        if self.csv_errors not in ("strict", "pad", "skip"):
            raise InputError(f"unknown csv_errors policy {self.csv_errors!r}")
        # Parse eagerly so a bad budget string is a 400 at session
        # creation, not a surprise inside the first governed batch.
        self.budget()

    def budget(self) -> Budget | None:
        if not (self.deadline or self.memory_limit):
            return None
        return Budget(
            deadline_seconds=(
                parse_duration(self.deadline) if self.deadline else None
            ),
            max_memory_bytes=(
                parse_memory(self.memory_limit) if self.memory_limit else None
            ),
        )

    def engine_kwargs(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "target": self.target,
            "closure_algorithm": self.closure,
            "budget": self.budget(),
        }

    def to_json(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "target": self.target,
            "closure": self.closure,
            "delimiter": self.delimiter,
            "has_header": self.has_header,
            "csv_errors": self.csv_errors,
            "deadline": self.deadline,
            "memory_limit": self.memory_limit,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "SessionOptions":
        """The options a session directory's ``meta.json`` persisted.

        The algorithm is taken as recorded, even one this build no
        longer registers (``dfd``): revival from a journal runs no
        discovery, and the name must still equal the journal's.  Keys
        this build has no option for (``storage``, the candidate cap)
        are dropped.
        """
        known = set(cls.__dataclass_fields__) - {"algorithm"}
        options = cls(**{k: v for k, v in payload.items() if k in known})
        if "algorithm" in payload:
            object.__setattr__(options, "algorithm", payload["algorithm"])
        return options

    @classmethod
    def from_params(cls, params: dict) -> "SessionOptions":
        """Build options from query parameters (all strings)."""
        kwargs: dict = {}
        for key in ("algorithm", "target", "closure", "delimiter",
                    "deadline", "memory_limit", "csv_errors"):
            value = params.get(key)
            if value:
                kwargs[key] = value
        header = params.get("header")
        if header is not None:
            kwargs["has_header"] = header not in ("0", "false", "no")
        return cls(**kwargs)


class Session:
    """One tenant's live dataset + engine + bookkeeping."""

    __slots__ = (
        "tenant",
        "session_id",
        "relation_name",
        "options",
        "engine",
        "migration_log",
        "created_at",
        "last_used",
        "busy",
        "resumed_from_journal",
        "directory",
        "requests",
    )

    def __init__(
        self,
        tenant: str,
        session_id: str,
        relation_name: str,
        options: SessionOptions,
        engine: IncrementalNormalizer,
        directory: Path | None,
        resumed_from_journal: bool = False,
    ) -> None:
        self.tenant = tenant
        self.session_id = session_id
        self.relation_name = relation_name
        self.options = options
        self.engine = engine
        self.migration_log: list[str] = []
        self.created_at = time.time()
        self.last_used = time.monotonic()
        self.busy = 0
        self.resumed_from_journal = resumed_from_journal
        self.directory = directory
        self.requests = 0

    @property
    def key(self) -> tuple[str, str]:
        return (self.tenant, self.session_id)

    def touch(self) -> None:
        self.last_used = time.monotonic()
        self.requests += 1

    def info(self) -> dict:
        """The JSON view of this session (``GET /v1/sessions/{id}``)."""
        engine = self.engine
        live = engine.live(self.relation_name)
        return {
            "tenant": self.tenant,
            "session": self.session_id,
            "relation": self.relation_name,
            "columns": list(live.columns),
            "rows": live.num_rows,
            "applied_batches": engine.applied_batches,
            "relations": len(engine.result.instances)
            if engine.result is not None
            else 0,
            "options": self.options.to_json(),
            "resumed_from_journal": self.resumed_from_journal,
            "persisted": self.directory is not None,
            "requests": self.requests,
            "created_at": self.created_at,
        }

    # ------------------------------------------------------------------
    # Batch application with durable write ordering
    # ------------------------------------------------------------------
    def apply_batch(self, batch: ChangeBatch) -> BatchOutcome:
        """Changelog append → engine apply (journals) → migration log.

        Raises whatever the engine raises; on :class:`BudgetExceeded`
        the caller (registry) rolls the changelog back and invalidates
        the in-memory engine so the journaled state is what survives.
        """
        self._append_changelog(batch)
        outcome = self.engine.apply_batch(batch)
        if outcome.schema_changed:
            self.migration_log.append(
                f"-- batch {outcome.batch_index} "
                f"({outcome.relation})\n" + outcome.migration.to_sql()
            )
            self._write_migrations()
        return outcome

    def migration_sql(self) -> str:
        """The accumulated migration plans, CLI ``--migration`` format."""
        return (
            "\n".join(self.migration_log)
            if self.migration_log
            else "-- No schema changes.\n"
        )

    # ------------------------------------------------------------------
    # Persistence plumbing
    # ------------------------------------------------------------------
    def _append_changelog(self, batch: ChangeBatch) -> None:
        if self.directory is None:
            return
        line = json.dumps(batch.to_json(), sort_keys=True)
        path = self.directory / _CHANGES_FILE
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def rollback_changelog(self, applied: int) -> None:
        """Truncate the changelog back to ``applied`` batches."""
        if self.directory is None:
            return
        path = self.directory / _CHANGES_FILE
        if not path.exists():
            return
        lines = path.read_text(encoding="utf-8").splitlines()[:applied]
        write_durably(path, "".join(line + "\n" for line in lines))

    def _write_migrations(self) -> None:
        if self.directory is None:
            return
        write_durably(
            self.directory / _MIGRATIONS_FILE,
            json.dumps(self.migration_log, indent=2),
        )


def _load_changelog_lines(path: Path) -> list[ChangeBatch]:
    """Parse the session changelog, dropping a torn final line.

    A crash can cut the final append mid-line; that batch was never
    acknowledged nor applied, so dropping it is the correct recovery.
    A malformed line anywhere *else* means real corruption.
    """
    if not path.exists():
        return []
    lines = path.read_text(encoding="utf-8").splitlines()
    batches: list[ChangeBatch] = []
    for number, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
            batches.append(ChangeBatch.from_json(payload, coerce_str=True))
        except (ValueError, InputError) as exc:
            if number == len(lines) - 1:
                break  # torn tail append; the batch was never applied
            raise CheckpointError(
                f"changelog {path} line {number + 1} is corrupt: {exc}"
            ) from exc
    return batches


class SessionRegistry:
    """All live sessions + the LRU/expiry policies + durable storage."""

    def __init__(
        self,
        max_sessions: int = 64,
        idle_ttl: float = 3600.0,
        resume_dir: str | Path | None = None,
    ) -> None:
        if max_sessions < 1:
            raise InputError("max_sessions must be >= 1")
        if idle_ttl <= 0:
            raise InputError("idle_ttl must be positive")
        self.max_sessions = max_sessions
        self.idle_ttl = idle_ttl
        self.resume_dir = Path(resume_dir) if resume_dir is not None else None
        if self.resume_dir is not None:
            self.resume_dir.mkdir(parents=True, exist_ok=True)
        #: insertion order == recency order (moved on every touch)
        self._sessions: dict[tuple[str, str], Session] = {}
        self.counters = {
            "sessions_created": 0,
            "sessions_revived": 0,
            "sessions_evicted": 0,
            "sessions_expired": 0,
            "sessions_deleted": 0,
            "journal_hits": 0,
            "journal_misses": 0,
            "discovery_runs": 0,
            "batches_applied": 0,
        }

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, tenant: str, session_id: str) -> Session | None:
        session = self._sessions.get((tenant, session_id))
        if session is not None:
            self._touch(session)
        return session

    def _touch(self, session: Session) -> None:
        session.touch()
        # dicts preserve insertion order; re-inserting moves to the end,
        # which keeps iteration order == LRU order with O(1) updates.
        self._sessions.pop(session.key, None)
        self._sessions[session.key] = session

    def sessions_of(self, tenant: str) -> list[Session]:
        return [s for s in self._sessions.values() if s.tenant == tenant]

    def __len__(self) -> int:
        return len(self._sessions)

    # ------------------------------------------------------------------
    # Creation (runs in a worker thread — does discovery)
    # ------------------------------------------------------------------
    def create(
        self,
        tenant: str,
        csv_source: "bytes | str | Path",
        relation_name: str,
        options: SessionOptions,
        session_id: str | None = None,
    ) -> Session:
        """Ingest a dataset and run governed discovery + normalization.

        ``csv_source`` is either the raw CSV bytes or a *path* to a
        spooled upload (see :func:`repro.server.protocol.read_request`).
        A path is taken over: with persistence it is moved (renamed)
        into the session directory and parsed straight off disk, so the
        dataset never occupies the server's heap whole.
        """
        validate_name("tenant", tenant)
        validate_name("relation name", relation_name)
        if session_id is None:
            session_id = uuid.uuid4().hex[:12]
        validate_name("session id", session_id)
        if (tenant, session_id) in self._sessions or self._persisted_dir(
            tenant, session_id
        ):
            raise SessionExistsError(
                f"session {session_id!r} already exists for tenant "
                f"{tenant!r}",
            )

        source_path = (
            Path(csv_source) if isinstance(csv_source, (str, Path)) else None
        )
        directory = self._session_dir(tenant, session_id)
        journal_path = None
        created_directory = False
        if directory is not None:
            created_directory = not directory.exists()
            directory.mkdir(parents=True, exist_ok=True)
            dataset = directory / _DATASET_FILE
            if source_path is not None:
                shutil.move(str(source_path), dataset)
            else:
                dataset.write_bytes(csv_source)
            source_path = dataset
            journal_path = directory / _JOURNAL_FILE

        try:
            instance = read_csv(
                source_path if source_path is not None else csv_source,
                name=relation_name,
                delimiter=options.delimiter,
                has_header=options.has_header,
                on_error=options.csv_errors,
            )
            engine = IncrementalNormalizer(
                instance,
                journal_path=journal_path,
                **options.engine_kwargs(),
            )
        except BaseException:
            # The dataset was moved in but the session never came to
            # exist (bad CSV, budget breach, ...); leave no half-made
            # directory behind.  meta.json is written only on success,
            # so a crash here can never revive as a broken session.
            if created_directory and directory is not None:
                shutil.rmtree(directory, ignore_errors=True)
            raise
        if directory is not None:
            meta = {
                "tenant": tenant,
                "session": session_id,
                "relation": relation_name,
                "options": options.to_json(),
            }
            write_durably(
                directory / _META_FILE, json.dumps(meta, indent=2, sort_keys=True)
            )
        self.counters["discovery_runs"] += 1
        session = Session(
            tenant, session_id, instance.name, options, engine, directory
        )
        self._register(session)
        self.counters["sessions_created"] += 1
        return session

    # ------------------------------------------------------------------
    # Revival (runs in a worker thread — restores without rediscovery)
    # ------------------------------------------------------------------
    def has_persisted(self, tenant: str, session_id: str) -> bool:
        return self._persisted_dir(tenant, session_id) is not None

    def revive(self, tenant: str, session_id: str) -> Session:
        """Rebuild a persisted session; journal present ⇒ no rediscovery.

        Any changelog tail the journal has not seen (a crash between
        append and apply, or a budget rollback race) is applied through
        the engine, so the revived session converges to the last state
        the change stream describes.
        """
        directory = self._persisted_dir(tenant, session_id)
        if directory is None:
            raise InputError(
                f"no persisted session {session_id!r} for tenant {tenant!r}"
            )
        try:
            meta = json.loads(
                (directory / _META_FILE).read_text(encoding="utf-8")
            )
            options = SessionOptions.from_json(meta["options"])
            relation_name = meta["relation"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise CheckpointError(
                f"session directory {directory} is corrupt: {exc}"
            ) from exc

        batches = _load_changelog_lines(directory / _CHANGES_FILE)
        journal_path = directory / _JOURNAL_FILE

        resumed = False
        source = read_csv(
            directory / _DATASET_FILE,
            name=relation_name,
            delimiter=options.delimiter,
            has_header=options.has_header,
            on_error=options.csv_errors,
        )
        if journal_path.exists():
            engine = resume_engine(
                [source],
                batches,
                journal_path,
                **options.engine_kwargs(),
            )
            self.counters["journal_hits"] += 1
            resumed = True
        else:
            # The process died before the first journal write (or the
            # journal was lost); discovery is unavoidable exactly once.
            engine = IncrementalNormalizer(
                source, journal_path=journal_path, **options.engine_kwargs()
            )
            self.counters["journal_misses"] += 1
            self.counters["discovery_runs"] += 1

        session = Session(
            tenant,
            session_id,
            relation_name,
            options,
            engine,
            directory,
            resumed_from_journal=resumed,
        )
        try:
            migrations = directory / _MIGRATIONS_FILE
            if migrations.exists():
                session.migration_log = list(
                    json.loads(migrations.read_text(encoding="utf-8"))
                )
        except (OSError, ValueError):
            session.migration_log = []

        # Converge: apply the changelog tail the journal never saw.
        for batch in batches[engine.applied_batches:]:
            outcome = engine.apply_batch(batch)
            if outcome.schema_changed:
                session.migration_log.append(
                    f"-- batch {outcome.batch_index} "
                    f"({outcome.relation})\n" + outcome.migration.to_sql()
                )
            self.counters["batches_applied"] += 1
        session._write_migrations()

        self._register(session)
        self.counters["sessions_revived"] += 1
        return session

    # ------------------------------------------------------------------
    # Batches
    # ------------------------------------------------------------------
    def apply_batch(
        self, session: Session, batch: ChangeBatch
    ) -> BatchOutcome:
        """Apply one batch with budget-rollback semantics.

        On :class:`BudgetExceeded` the changelog is rolled back and the
        in-memory engine dropped; a persisted session revives at its
        last journaled (pre-batch) state on next touch, so a 429 means
        "not applied — retry with a bigger budget".  Without
        persistence the pre-batch state cannot be restored and the
        session is dropped outright (the 429 payload says so).
        """
        from repro.runtime.errors import BudgetExceeded

        applied_before = session.engine.applied_batches
        try:
            outcome = session.apply_batch(batch)
        except BudgetExceeded:
            session.rollback_changelog(applied_before)
            self.discard(session)
            raise
        self.counters["batches_applied"] += 1
        return outcome

    # ------------------------------------------------------------------
    # Eviction policies
    # ------------------------------------------------------------------
    def _register(self, session: Session) -> None:
        self._sessions[session.key] = session
        self.evict_over_capacity()

    def evict_over_capacity(self) -> list[Session]:
        """Drop LRU idle sessions until within ``max_sessions``.

        Busy sessions are never dropped, and neither is the
        most-recently-used entry (the session just created or touched);
        if that leaves no victim the registry runs over capacity rather
        than killing live work.
        """
        evicted = []
        while len(self._sessions) > self.max_sessions:
            candidates = list(self._sessions.values())[:-1]
            victim = next(
                (s for s in candidates if s.busy == 0), None
            )
            if victim is None:
                break
            del self._sessions[victim.key]
            self.counters["sessions_evicted"] += 1
            evicted.append(victim)
        return evicted

    def expire_idle(self, now: float | None = None) -> list[Session]:
        """Drop sessions idle longer than ``idle_ttl`` (never busy ones)."""
        now = time.monotonic() if now is None else now
        expired = [
            s
            for s in self._sessions.values()
            if s.busy == 0 and now - s.last_used > self.idle_ttl
        ]
        for session in expired:
            del self._sessions[session.key]
            self.counters["sessions_expired"] += 1
        return expired

    def discard(self, session: Session) -> None:
        """Drop the in-memory engine only (persisted state survives)."""
        self._sessions.pop(session.key, None)

    def delete(self, session: Session) -> None:
        """Drop a session *and* its persisted state (``DELETE`` verb)."""
        self._sessions.pop(session.key, None)
        if session.directory is not None and session.directory.exists():
            shutil.rmtree(session.directory, ignore_errors=True)
        self.counters["sessions_deleted"] += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        return {
            "live_sessions": len(self._sessions),
            "max_sessions": self.max_sessions,
            "idle_ttl_seconds": self.idle_ttl,
            "persistence": self.resume_dir is not None,
            **self.counters,
        }

    # ------------------------------------------------------------------
    # Disk layout
    # ------------------------------------------------------------------
    def _session_dir(self, tenant: str, session_id: str) -> Path | None:
        if self.resume_dir is None:
            return None
        # Every caller-supplied identifier becomes a path component
        # here; validating at the choke point means no lookup path
        # (has_persisted/revive/delete) can escape resume_dir even if a
        # route forgets to validate first.
        validate_name("tenant", tenant)
        validate_name("session id", session_id)
        return self.resume_dir / tenant / session_id

    def _persisted_dir(self, tenant: str, session_id: str) -> Path | None:
        directory = self._session_dir(tenant, session_id)
        if directory is None:
            return None
        if not (directory / _META_FILE).exists():
            return None
        return directory


# Re-exported for the app layer's width checks; not part of the public
# session API.
RelationInstance = RelationInstance
