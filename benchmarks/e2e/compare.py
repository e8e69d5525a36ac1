"""Compare two sets of benchmark runs by the choosing-metrics §8 rule.

Usage::

    python3 benchmarks/e2e/compare.py PARENT.json CHANGE.json

Each file is what ``run.py --out`` writes (``{"runs": [...]}``), or
``results/baseline.json#K`` for set ``K`` of the committed baseline.
Run at least ten runs per side, alternating which side runs first.

Per (workload, end-to-end metric) it prints each side's median and
quartiles and the pair wins, then one verdict:

* ``regressed``  — the change's median is worse than the parent's by
  more than the metric's bound;
* ``unresolved`` — the parent's spread (IQR / median) exceeds the bound,
  unless every change run reads better than every parent run;
* ``improved``   — the change wins at least 9/10 of the pairs (ties
  count for neither) *and* the medians differ by more than the parent's
  interquartile range;
* ``unchanged``  — none of the above.

The metrics are ``BENCHMARK.json``'s end-to-end metrics with their
bounds, plus the user-facing times the runs report but the benchmark
does not gate (``REPORTED``; see README.md), each with a 10% bound.
Runs are paired by seed, so both sides must run the same seeds.  Gains
do not count when the change fails more operations than the parent.
Exit status: 1 if anything regressed or failed more, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load_runs(spec: str) -> list[dict]:
    path, _, index = spec.partition("#")
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    runs = payload["sets"][int(index or 0)]["runs"] if "sets" in payload else payload["runs"]
    return [run for run in runs if not run["trace"]]


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


#: reported, not gated: (unit, better, bound); ``*_p50_ms`` exist only
#: on served_stream
REPORTED = {
    "job_s": ("s", "lower", 0.1),
    "batch_p50_ms": ("ms", "lower", 0.1),
    "ddl_p50_ms": ("ms", "lower", 0.1),
}


def _pairs(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    """Pair runs by seed; a seed one side lacks is left unpaired."""
    by_seed = {run["seed"]: run for run in change}
    return [(run, by_seed[run["seed"]]) for run in parent if run["seed"] in by_seed]


def _value(run: dict, name: str) -> float | None:
    if name in run["metrics"]:
        return run["metrics"][name]["value"]
    return run["reported"].get(name)


def verdict(parent: list[float], change: list[float], pairs, bound: float,
            lower_is_better: bool) -> tuple[str, dict]:
    sign = 1.0 if lower_is_better else -1.0
    p1, pmed, p3 = _quartiles(parent)
    c1, cmed, c3 = _quartiles(change)
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    worse_by = sign * (cmed - pmed) / pmed if pmed else 0.0
    facts = {
        "parent": (pmed, p1, p3),
        "change": (cmed, c1, c3),
        "delta_pct": (cmed - pmed) / pmed * 100 if pmed else 0.0,
        "wins": wins,
        "pairs": len(pairs),
    }
    every_run_better = all(sign * (p - c) > 0 for p in parent for c in change)
    claim = (
        len(pairs) >= 10
        and wins >= 0.9 * len(pairs)
        and sign * (pmed - cmed) > p3 - p1
    )
    if worse_by > bound:
        return "regressed", facts
    if pmed and (p3 - p1) / pmed > bound and not every_run_better:
        return "unresolved", facts
    return ("improved" if claim else "unchanged"), facts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)

    spec = json.loads(args.benchmark.read_text(encoding="utf-8"))
    metrics = [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    ] + [(name, *entry) for name, entry in REPORTED.items()]
    parent_runs, change_runs = load_runs(args.parent), load_runs(args.change)
    bad = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        parent = [r for r in parent_runs if r["workload"] == workload]
        change = [r for r in change_runs if r["workload"] == workload]
        if not parent or not change:
            print(f"{workload}: missing runs (parent {len(parent)}, change {len(change)})")
            continue
        failed = (sum(r["failed"] for r in parent), sum(r["failed"] for r in change))
        print(f"{workload}: {len(parent)} parent / {len(change)} change runs, "
              f"failed operations {failed[0]} -> {failed[1]}")
        if failed[1] > failed[0]:
            print("  more operations failed: no gain counts")
            bad += 1
        pairs = _pairs(parent, change)
        for name, unit, better, bound in metrics:
            if _value(parent[0], name) is None:
                continue
            outcome, facts = verdict(
                [_value(r, name) for r in parent],
                [_value(r, name) for r in change],
                [(_value(p, name), _value(c, name)) for p, c in pairs],
                bound,
                better == "lower",
            )
            if outcome == "improved" and failed[1] > failed[0]:
                outcome = "unchanged"
            bad += outcome == "regressed"
            (pm, p1, p3), (cm, c1, c3) = facts["parent"], facts["change"]
            print(
                f"  {name:<12} parent {pm:.4g} [{p1:.4g}, {p3:.4g}]  "
                f"change {cm:.4g} [{c1:.4g}, {c3:.4g}] {unit}  "
                f"{facts['delta_pct']:+.1f}%  wins {facts['wins']}/{facts['pairs']}  "
                f"bound {bound:.0%}  -> {outcome}"
            )
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
