"""Span recorder for the traced benchmark pass.

The recorder lives in the traced process (see ``traced_main.py``).  It
wraps the public functions of each layer from outside the program, so
no file under ``src/`` carries tracing code.  A span is
``[name, start, end, parent]``; the parent is the index of the span
that was open in the same context (a ``ContextVar``, so spans opened in
``asyncio.to_thread`` workers attach to the request that started
them).  Spans stay in memory and are written once, when the process
exits.

The analysis half (``summarize``, ``check_nesting``, ``layer_metrics``)
runs in the benchmark process on the written files.
"""

from __future__ import annotations

import contextvars
import functools
import json
import time
from pathlib import Path

_PARENT: contextvars.ContextVar[int] = contextvars.ContextVar(
    "e2e_span_parent", default=-1
)


class Recorder:
    """Raw spans plus named counters, kept in memory until ``dump``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` wrapped in a span; ``on_result(recorder, args, result)``
        runs after a successful call to attach counters."""
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, time.perf_counter(), None, _PARENT.get()]
            spans.append(record)
            token = _PARENT.set(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                _PARENT.reset(token)
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced

    def dump(self, path: str | Path) -> None:
        names: dict[str, int] = {}
        rows = []
        for name, start, end, parent in self.spans:
            # A span still open at exit (a thread cut off by interpreter
            # shutdown) ends at dump time.
            if end is None:
                end = time.perf_counter()
            rows.append([names.setdefault(name, len(names)), start, end, parent])
        payload = {"names": list(names), "spans": rows, "counters": self.counters}
        Path(path).write_text(json.dumps(payload), encoding="utf-8")


def load(path: str | Path) -> tuple[list[tuple[str, float, float, int]], dict]:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    names = payload["names"]
    spans = [
        (names[i], start, end, parent) for i, start, end, parent in payload["spans"]
    ]
    return spans, payload["counters"]


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total and self seconds.

    ``total`` counts only the outermost span of a name on each path, so
    a recursive or ``super()``-chained layer is not counted twice;
    ``self`` is a span's duration minus its direct children's.
    """
    child_time = _child_time(spans)
    summary: dict[str, dict[str, float]] = {}
    for index, (name, start, end, parent) in enumerate(spans):
        entry = summary.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
        entry["calls"] += 1
        entry["self"] += (end - start) - child_time[index]
        if not has_ancestor(spans, index, name):
            entry["total"] += end - start
    return summary


def has_ancestor(spans, index: int, name: str) -> bool:
    """Whether a span above ``index`` is named ``name``."""
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def _child_time(spans) -> list[float]:
    """Per span, the summed duration of its direct children."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return child_time


def check_nesting(spans, tolerance: float = 1e-4) -> list[str]:
    """Spans whose direct children sum to more than the span itself."""
    child_time = _child_time(spans)
    return [
        f"{spans[i][0]}: children {child_time[i]:.6f}s > span "
        f"{spans[i][2] - spans[i][1]:.6f}s"
        for i in range(len(spans))
        if child_time[i] > spans[i][2] - spans[i][1] + tolerance
    ]


def layer_metrics(summary: dict, counters: dict) -> dict[str, float]:
    """Map one traced process's summary and counters to metric values.

    Times are seconds; ``.calls``, ``.steps`` and the other bare names
    are counts.  The caller adds the ``surface.*`` and ``server.wait.*``
    values, which need the client-side latencies.
    """

    def total(name: str) -> float:
        return summary.get(name, {}).get("total", 0.0)

    def own(name: str) -> float:
        return summary.get(name, {}).get("self", 0.0)

    def calls(name: str) -> float:
        return summary.get(name, {}).get("calls", 0)

    lookups = counters.get("pli_hits", 0) + counters.get("pli_misses", 0)
    return {
        "io.read_csv.s": total("io.read_csv"),
        "io.ddl.s": total("io.ddl"),
        "structures.plicache.init.s": total("structures.plicache.init"),
        "structures.plicache.get.s": total("structures.plicache.get"),
        "structures.plicache.get.calls": calls("structures.plicache.get"),
        "structures.plicache.hit_ratio": (
            counters.get("pli_hits", 0) / lookups if lookups else 0.0
        ),
        "structures.fdtree.specialize.s": total("structures.fdtree.specialize"),
        "structures.fdtree.specialize.calls": calls("structures.fdtree.specialize"),
        "kernels.calls": counters.get("kernel_calls", 0),
        "kernels.rows": counters.get("kernel_rows", 0),
        "discovery.hyfd.s": total("discovery.hyfd"),
        "discovery.hyfd.self_s": own("discovery.hyfd"),
        "discovery.sampler.s": total("discovery.sampler"),
        "discovery.induction.s": total("discovery.induction"),
        "discovery.validation.self_s": own("discovery.validation"),
        "discovery.fds": counters.get("discovery.fds", 0),
        "core.closure.s": total("core.closure"),
        "core.keys.s": total("core.keys"),
        "core.violations.s": total("core.violations"),
        "core.scoring.s": total("core.scoring"),
        "core.scoring.ranked": counters.get("core.scoring.ranked", 0),
        "core.scoring.distinct.s": total("core.scoring.distinct"),
        "core.scoring.distinct.calls": calls("core.scoring.distinct"),
        "core.selection.s": total("core.selection"),
        "core.decomposition.s": total("core.decomposition"),
        "core.decomposition.steps": calls("core.decomposition"),
        "core.primary_key.s": total("core.primary_key"),
        "parallel.start.s": total("parallel.start"),
        "parallel.map.s": total("parallel.map"),
        "parallel.map.calls": calls("parallel.map"),
        "parallel.should.declined": counters.get("parallel.should.declined", 0),
        "parallel.tasks": counters.get("parallel.tasks", 0),
        "parallel.serial_fallbacks": counters.get("parallel.serial_fallbacks", 0),
        "parallel.export_s": counters.get("parallel.export_s", 0.0),
        "incremental.apply_batch.s": total("incremental.apply_batch"),
        "incremental.maintenance.s": counters.get("incremental.maintenance_s", 0.0),
        "incremental.refresh.s": counters.get("incremental.refresh_s", 0.0),
        "incremental.pairs_examined": counters.get("incremental.pairs_examined", 0),
        "incremental.validations": counters.get("incremental.validations", 0),
        "incremental.journal.s": total("incremental.journal"),
        "server.compute.batch.s": total("server.compute.batch"),
        "server.compute.ddl.s": total("server.compute.ddl"),
    }
