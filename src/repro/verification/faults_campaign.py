"""Fault-injection campaigns over the resource-governed pipeline.

Where the differential/metamorphic campaign (``repro verify``) checks
*what* the pipeline computes, this campaign checks *how it fails*: a
seeded :class:`~repro.runtime.faults.FaultPlan` fires one deterministic
fault at a checkpoint tick — a synthetic deadline/OOM breach or a
simulated ``kill -9`` — and the harness asserts the robustness
contract:

* a breach under ``degrade=True`` never escapes ``Normalizer.run``:
  the run completes and, if the fault actually fired, the degradation
  is visible in the fidelity report (a breached discovery attempt or a
  pipeline event),
* a breach never corrupts the result: every completed run's schema
  reconstructs the input's rows exactly (the same row multiset),
* a kill mid-run is survivable: resuming from the journaled checkpoint
  reproduces the *byte-identical* DDL of an uninterrupted reference
  run,
* a governor that fires nothing leaves the pipeline bit-for-bit
  unaffected (the governed result equals the reference).

Each seed's fault targets one checkpoint label its run reaches: a
governed run without a fault first records the tick of every checkpoint
per label (``pli``, ``hyfd-pairs``, ``closure-optimized``,
``scoring``, ``lattice-eval``, ...), seed ``s`` picks label
``(s // 3) mod n`` of the ``n`` it reached, in the order it reached
them, and the fault fires at one of that label's recorded ticks.  A
draw over ticks alone lands almost every fault in PLI construction,
which ticks once per row; cycling labels moves the fault through every
stage the pipeline has, DUCC's key search included.  Console entry
point: ``repro verify --faults``.
"""

from __future__ import annotations

import os
import random
import tempfile
from collections import Counter
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

from repro.core.normalize import Normalizer
from repro.datagen.random_tables import random_instance
from repro.io.ddl import schema_to_ddl
from repro.runtime.checkpointing import load_state
from repro.runtime.errors import BudgetExceeded, CheckpointError, ReproError
from repro.runtime.faults import FaultPlan, SimulatedKill

__all__ = ["FaultCampaignReport", "run_fault_campaign"]


@dataclass(slots=True)
class FaultCampaignReport:
    """Outcome of one fault-injection campaign."""

    seeds: list[int] = field(default_factory=list)
    fired: int = 0
    kills: int = 0
    resumes: int = 0
    degraded_results: int = 0
    worker_faults: int = 0
    respawns: int = 0
    quarantined: int = 0
    #: faults fired per checkpoint label
    fired_by_stage: Counter = field(default_factory=Counter)
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_str(self) -> str:
        lines = [
            f"fault campaign: {len(self.seeds)} seeds, "
            f"{self.fired} faults fired ({self.kills} kills, "
            f"{self.resumes} successful resumes), "
            f"{self.degraded_results} degraded results"
        ]
        if self.worker_faults or self.respawns or self.quarantined:
            lines[0] += (
                f", {self.worker_faults} worker faults "
                f"({self.respawns} respawns, "
                f"{self.quarantined} quarantined)"
            )
        lines[0] += ": " + (
            "all passed" if self.ok else f"{len(self.failures)} FAILURES"
        )
        if self.fired_by_stage:
            lines.append(
                "  fired per label: "
                + ", ".join(
                    f"{label} {count}"
                    for label, count in sorted(self.fired_by_stage.items())
                )
            )
        for failure in self.failures:
            lines.append(f"  FAIL {failure}")
        return "\n".join(lines)


def _make_instance(seed: int, num_rows: int, max_columns: int):
    import random

    rng = random.Random(seed * 0x9E3779B1 + 0xFA17)
    columns = rng.randint(4, max(4, max_columns))
    rows = rng.randint(12, max(12, num_rows))
    domains = [rng.randint(2, 5) for _ in range(columns)]
    return random_instance(seed, columns, rows, domain_size=domains)


def _normalizer(**kwargs) -> Normalizer:
    return Normalizer(algorithm="hyfd", **kwargs)


def _ddl(result) -> str:
    return schema_to_ddl(result.schema, result.instances)


class _LabelRecorder:
    """Takes a fault plan's place on a governed run and records, per
    checkpoint label, the governor tick of each checkpoint; it fires
    nothing."""

    mode = "record"  # no worker-fault mode: the pool ships it nowhere
    fired = False

    def __init__(self) -> None:
        self.ticks: dict[str, list[int]] = {}

    def on_tick(self, governor, stage: str) -> None:
        self.ticks.setdefault(stage, []).append(governor.ticks)


def _check_lossless(seed: int, report, result, instance) -> None:
    """The result's relations join back to exactly the input's rows."""
    rebuilt = result.reconstruct(instance.name)
    if Counter(rebuilt.iter_rows()) != Counter(instance.iter_rows()):
        report.failures.append(
            f"seed {seed}: the result does not reconstruct the input's "
            "rows (lossy decomposition)"
        )


def run_fault_campaign(
    seeds: int | Iterable[int],
    num_rows: int = 40,
    max_columns: int = 8,
    progress: Callable[[str], None] | None = None,
    workers: int | None = None,
) -> FaultCampaignReport:
    """Sweep fault seeds over the governed pipeline; see module docstring.

    With ``workers`` resolved above 1 (explicitly or via
    ``REPRO_WORKERS``), every odd seed becomes a *worker-fault* run:
    a ``worker_kill``/``worker_oom``/``worker_hang`` plan fires inside
    a pool worker mid-shard and the harness asserts the self-healing
    contract — the run completes, the recovery is visible in the pool
    counters, and the DDL is byte-identical to the serial reference.
    """
    if isinstance(seeds, int):
        seeds = range(seeds)
    from repro.parallel import resolve_workers

    resolved = resolve_workers(workers)
    report = FaultCampaignReport()
    for seed in seeds:
        report.seeds.append(seed)
        if resolved > 1 and seed % 2 == 1:
            if progress is not None:
                progress(f"worker-fault seed {seed}")
            _run_one_worker_fault(seed, report, num_rows, max_columns, resolved)
        else:
            if progress is not None:
                progress(f"fault seed {seed}")
            _run_one(seed, report, num_rows, max_columns)
    return report


def _run_one(
    seed: int,
    report: FaultCampaignReport,
    num_rows: int,
    max_columns: int,
) -> None:
    instance = _make_instance(seed, num_rows, max_columns)
    reference_ddl = _ddl(_normalizer().run(instance))
    recorder = _LabelRecorder()
    if _ddl(_normalizer(fault_plan=recorder).run(instance)) != reference_ddl:
        report.failures.append(
            f"seed {seed}: a governed run without a fault differs from "
            "the ungoverned reference"
        )
        return

    # Each run of three seeds faults one label with a timeout, an OOM
    # and a kill; the next three move on to the next label this seed's
    # run reaches.  The tick is one at which the label checkpoints, so
    # the fault always fires.
    from repro.runtime.faults import PROCESS_FAULT_MODES

    modes = len(PROCESS_FAULT_MODES)
    labels = list(recorder.ticks)
    stage = labels[(seed // modes) % len(labels)]
    plan = FaultPlan(
        mode=PROCESS_FAULT_MODES[seed % modes],
        at_tick=random.Random(seed).choice(recorder.ticks[stage]),
        stage=stage,
    )

    handle, ckpt = tempfile.mkstemp(prefix="repro-fault-", suffix=".json")
    os.close(handle)
    os.unlink(ckpt)  # the pipeline creates it atomically
    try:
        governed = _normalizer(fault_plan=plan, checkpoint_path=ckpt)
        try:
            import warnings

            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                result = governed.run(instance)
        except SimulatedKill:
            report.fired += 1
            report.kills += 1
            report.fired_by_stage[plan.fired_at_stage] += 1
            _check_resume(seed, report, instance, ckpt, reference_ddl)
            return
        except BudgetExceeded as exc:
            report.failures.append(
                f"seed {seed}: BudgetExceeded escaped run() despite "
                f"degrade=True ({exc})"
            )
            return
        except ReproError as exc:
            report.failures.append(
                f"seed {seed}: unexpected taxonomy error from run(): {exc!r}"
            )
            return
        except Exception as exc:  # noqa: BLE001 - the contract under test
            report.failures.append(
                f"seed {seed}: raw {type(exc).__name__} escaped run(): {exc!r}"
            )
            return

        if result.fidelity is None:
            report.failures.append(
                f"seed {seed}: governed run returned no fidelity report"
            )
            return
        _check_lossless(seed, report, result, instance)
        if not plan.fired:
            report.failures.append(
                f"seed {seed}: the fault at {stage!r} tick {plan.at_tick} "
                "never fired, so the governed run left the path its "
                "recording took"
            )
            return
        report.fired += 1
        report.fired_by_stage[plan.fired_at_stage] += 1
        breach_visible = bool(result.fidelity.events) or any(
            attempt.outcome == "breach"
            for fidelity in result.fidelity.relations.values()
            for attempt in fidelity.attempts
        )
        if not breach_visible:
            report.failures.append(
                f"seed {seed}: fault {plan.mode!r} fired at stage "
                f"{plan.fired_at_stage!r} but the fidelity report "
                "shows no breach"
            )
        if result.fidelity.degraded:
            report.degraded_results += 1
    finally:
        for leftover in (ckpt, ckpt + ".tmp"):
            try:
                os.unlink(leftover)
            except OSError:
                pass


def _check_resume(
    seed: int,
    report: FaultCampaignReport,
    instance,
    ckpt: str,
    reference_ddl: str,
) -> None:
    """After a simulated kill: resume from the journal, compare DDL."""
    if not os.path.exists(ckpt):
        # Killed before the first flush: nothing to resume, rerun fresh.
        resumed = _normalizer().run(instance)
    else:
        try:
            state = load_state(ckpt)
        except CheckpointError as exc:
            report.failures.append(
                f"seed {seed}: checkpoint unreadable after kill: {exc}"
            )
            return
        try:
            resumed = _normalizer(checkpoint_path=ckpt).run(
                instance, resume_state=state
            )
        except ReproError as exc:
            report.failures.append(f"seed {seed}: resume failed: {exc!r}")
            return
    report.resumes += 1
    _check_lossless(seed, report, resumed, instance)
    if _ddl(resumed) != reference_ddl:
        report.failures.append(
            f"seed {seed}: resumed run's DDL differs from the "
            "uninterrupted reference run"
        )


def _run_one_worker_fault(
    seed: int,
    report: FaultCampaignReport,
    num_rows: int,
    max_columns: int,
    workers: int,
) -> None:
    """One worker-fault chaos run: kill/OOM/hang a pool worker mid-shard.

    The self-healing contract under test: the supervisor respawns the
    dead (or killed-for-hanging) worker and retries the lost shard, the
    run completes without any error escaping, the recovery is visible
    in the pool counters, and — by the deterministic shard/merge
    contract — the DDL is byte-identical to the serial reference.
    """
    import random

    from repro.discovery.hyfd import hyfd as hyfd_module
    from repro.parallel import pool as pool_mod
    from repro.parallel import supervisor as supervisor_mod
    from repro.parallel.pool import pool_stats, shutdown_pool
    from repro.runtime.faults import WORKER_FAULT_MODES

    instance = _make_instance(seed, num_rows, max_columns)
    reference_ddl = _ddl(_normalizer().run(instance))

    mode = WORKER_FAULT_MODES[(seed // 2) % len(WORKER_FAULT_MODES)]
    # Worker governors count ticks per task, and a small campaign's
    # validation shard may check only one or two candidates, so keep
    # at_tick within the checkpoints every shard makes.
    rng = random.Random(seed * 0x51ED270 ^ 0xC8A05)
    plan = FaultPlan(mode=mode, at_tick=rng.randint(1, 2))

    # Force HyFD's validation and the pool path on these small campaign
    # tables (so faults land in validation shards), and keep hang
    # detection fast enough for a test-sized timeout.
    saved_budget = hyfd_module.ALL_PAIRS_BUDGET
    saved_threshold = pool_mod.SERIAL_THRESHOLD
    saved_hang = supervisor_mod.HANG_TIMEOUT
    hyfd_module.ALL_PAIRS_BUDGET = 0
    pool_mod.SERIAL_THRESHOLD = 0
    supervisor_mod.HANG_TIMEOUT = 0.75
    shutdown_pool()  # a fresh pool re-arms the one-shot fault flag
    try:
        import warnings

        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                result = _normalizer(fault_plan=plan, workers=workers).run(
                    instance
                )
        except ReproError as exc:
            report.failures.append(
                f"seed {seed}: worker fault {mode!r} escaped the "
                f"self-healing pool: {exc!r}"
            )
            return
        except Exception as exc:  # noqa: BLE001 - the contract under test
            report.failures.append(
                f"seed {seed}: raw {type(exc).__name__} escaped run() "
                f"under worker fault {mode!r}: {exc!r}"
            )
            return

        _check_lossless(seed, report, result, instance)
        stats = pool_stats()
        if plan.fired:
            report.fired += 1
            report.worker_faults += 1
            report.fired_by_stage[plan.fired_at_stage] += 1
            if stats is None:
                report.failures.append(
                    f"seed {seed}: worker fault {mode!r} fired but no "
                    "pool exists to account for the recovery"
                )
                return
            report.respawns += stats.respawns
            report.quarantined += stats.quarantined
            recovered = (
                stats.respawns > 0
                or stats.quarantined > 0
                or stats.pool_disabled
            )
            if not recovered:
                report.failures.append(
                    f"seed {seed}: worker fault {mode!r} fired at tick "
                    f"{plan.at_tick} but the pool counters show no "
                    "respawn, quarantine, or fallback"
                )
        if _ddl(result) != reference_ddl:
            report.failures.append(
                f"seed {seed}: DDL after worker fault {mode!r} differs "
                "from the serial reference"
            )
    finally:
        shutdown_pool()
        hyfd_module.ALL_PAIRS_BUDGET = saved_budget
        pool_mod.SERIAL_THRESHOLD = saved_threshold
        supervisor_mod.HANG_TIMEOUT = saved_hang
