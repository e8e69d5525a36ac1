"""How governed runs end: a sweep over deadlines, memory limits and caps.

Runs the normalize CLI under ``--deadline``, ``--memory-limit`` and
``--max-candidates`` budgets on the end-to-end benchmark inputs (made
by ``e2e/workloads.py``) and on the EXPERIMENTS.md profile datasets,
and records for every run:

* the exit code;
* ``pipeline_s``, the wall time of ``Normalizer.run`` (the span a
  deadline covers: it starts after the CSV is parsed), and
  ``process_s``, the wall time of the whole process;
* each discovery attempt (stage, outcome, breach reason);
* each relation's fidelity (``exact``, ``partial``, ``none``, ...);
* whether the DDL is golden (byte-equal to the unbudgeted run's DDL
  on the same side) and how many relations the schema keeps.

A *side* is a ``src`` directory, so one invocation compares two
commits: ``--side NAME=PATH`` is repeatable, and runs alternate between
sides budget by budget, so load drift hits both alike::

    git archive <parent> | tar -x -C /tmp/parent
    PYTHONPATH=src python benchmarks/bench_budget_sweep.py \\
        --side parent=/tmp/parent/src --side change=src --runs 3

The default is this checkout's ``src`` alone, as ``change``.  Results go
to ``benchmarks/results/BENCH_budget_sweep.json``: the raw runs, and per
budget and side the number of runs ending with golden DDL, with exact
discovery, the relations kept, the largest ``pipeline_s`` overshoot of a
deadline, and whether the outcome flipped between runs.

Profile budgets are shares of each profile's unbudgeted ``pipeline_s``
on the first side, so both sides get the same seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULT = HERE / "results" / "BENCH_budget_sweep.json"

#: e2e input → (the CSV ``workloads.py`` writes for it, extra CLI args)
E2E_INPUTS = {
    "figure4_wide": ("figure4_wide", []),
    "tall_narrow": ("tall_narrow", []),
    "tall_narrow_w2": ("tall_narrow", ["--workers", "2"]),
    "served_stream": ("served_stream", []),
}

#: CLI budgets per e2e input
E2E_BUDGETS = {
    "figure4_wide": [
        ("--deadline", "1s"),
        ("--deadline", "2s"),
        ("--deadline", "4s"),
        ("--deadline", "8s"),
        ("--deadline", "12s"),
        ("--deadline", "16s"),
        ("--memory-limit", "25mb"),
        ("--memory-limit", "28mb"),
        ("--max-candidates", "20000"),
    ],
    "tall_narrow": [
        ("--deadline", "1s"),
        ("--deadline", "2s"),
        ("--deadline", "4s"),
        ("--deadline", "8s"),
        ("--memory-limit", "40mb"),
        ("--memory-limit", "50mb"),
        ("--memory-limit", "60mb"),
        ("--memory-limit", "70mb"),
    ],
    "tall_narrow_w2": [
        ("--deadline", "1s"),
        ("--deadline", "2s"),
        ("--memory-limit", "50mb"),
        ("--memory-limit", "70mb"),
    ],
    "served_stream": [
        ("--deadline", "0.25s"),
        ("--deadline", "0.5s"),
        ("--memory-limit", "30mb"),
    ],
}

#: profile datasets at their EXPERIMENTS.md sizes: (generator, rows)
PROFILES = {
    "horse": ("horse_like", 300),
    "plista": ("plista_like", 600),
    "amalgam": ("amalgam_like", 45),
    "flight": ("flight_like", 700),
}
#: profile deadlines, as shares of the unbudgeted ``pipeline_s``
PROFILE_SHARES = (0.10, 0.25, 0.50, 0.75)
PROFILE_CANDIDATES = (100, 1_000, 10_000, 100_000)


# ----------------------------------------------------------------------
# The child: one CLI run with Normalizer.run timed
# ----------------------------------------------------------------------
def child(stats_path: str, cli_args: list[str]) -> int:
    """Run ``repro.cli.main(cli_args)`` and write what it did as JSON."""
    from repro.cli import main
    from repro.core import normalize

    run = normalize.Normalizer.run
    record = {"pipeline_s": 0.0, "fidelity": None, "relations": None}

    def timed(self, *args, **kwargs):
        started = time.perf_counter()
        try:
            result = run(self, *args, **kwargs)
        finally:
            record["pipeline_s"] += time.perf_counter() - started
        record["relations"] = len(result.instances)
        if result.fidelity is not None:
            record["fidelity"] = result.fidelity.to_json()
        return result

    normalize.Normalizer.run = timed
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        record["exit"] = main(cli_args)
    Path(stats_path).write_text(json.dumps(record), encoding="utf-8")
    return 0


# ----------------------------------------------------------------------
# The parent
# ----------------------------------------------------------------------
def _make_inputs(work: Path, side_src: str) -> dict[str, Path]:
    """Write every input CSV under ``work``; returns name → CSV path."""
    env = dict(os.environ, PYTHONPATH=side_src)
    paths = {}
    for workload in sorted({csv for csv, _ in E2E_INPUTS.values()}):
        target = work / workload
        target.mkdir(parents=True, exist_ok=True)
        subprocess.run(
            [
                sys.executable,
                str(HERE / "e2e" / "workloads.py"),
                workload,
                "7",
                "full",
                str(target),
            ],
            env=env,
            check=True,
        )
        paths[workload] = target / "rel.csv"
    script = (
        "import sys\n"
        "from repro.datagen import profiles\n"
        "from repro.io.csv_io import write_csv\n"
        "name, rows, path = sys.argv[1], int(sys.argv[2]), sys.argv[3]\n"
        "write_csv(getattr(profiles, name)(num_rows=rows), path)\n"
    )
    for name, (generator, rows) in PROFILES.items():
        path = work / f"{name}.csv"
        subprocess.run(
            [sys.executable, "-c", script, generator, str(rows), str(path)],
            env=env,
            check=True,
        )
        paths[name] = path
    return paths


def _run(side_src: str, csv: Path, extra: list[str], budget: list[str], work: Path):
    """One child process; returns its record plus DDL and process time."""
    handle, stats = tempfile.mkstemp(suffix=".json", dir=work)
    os.close(handle)
    ddl = Path(stats).with_suffix(".sql")
    args = [str(csv), "--ddl", str(ddl), *extra, *budget]
    env = dict(os.environ, PYTHONPATH=side_src, PYTHONDONTWRITEBYTECODE="1")
    env.pop("REPRO_WORKERS", None)
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", stats, "--", *args],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    process_s = time.perf_counter() - started
    try:
        record = json.loads(Path(stats).read_text(encoding="utf-8"))
    except ValueError:
        record = {"exit": completed.returncode, "error": completed.stderr[-400:]}
    record["process_s"] = process_s
    record["ddl"] = ddl.read_text(encoding="utf-8") if ddl.exists() else None
    Path(stats).unlink()
    if ddl.exists():
        ddl.unlink()
    return record


def _summarize_run(record: dict, golden: str | None) -> dict:
    fidelity = record.get("fidelity") or {"relations": {}, "events": []}
    attempts = [
        [[a["stage"], a["outcome"], a["reason"]] for a in rel["attempts"]]
        for rel in fidelity["relations"].values()
    ]
    verdicts = [rel["fidelity"] for rel in fidelity["relations"].values()]
    return {
        "exit": record["exit"],
        "pipeline_s": round(record.get("pipeline_s", 0.0), 3),
        "process_s": round(record["process_s"], 3),
        "attempts": attempts,
        "fidelity": verdicts,
        "events": len(fidelity["events"]),
        "exact_discovery": bool(verdicts) and all(v == "exact" for v in verdicts),
        # a later attempt succeeded after the first one breached
        "rescued_by": [
            rel[-1][0]
            for rel in attempts
            if len(rel) > 1 and rel[-1][1] == "ok"
        ],
        "golden": record["ddl"] is not None and record["ddl"] == golden,
        "relations": record.get("relations"),
        "error": record.get("error"),
    }


def _summarize_budget(runs: list[dict], deadline_s: float | None) -> dict:
    outcomes = {(run["golden"], run["relations"]) for run in runs}
    summary = {
        "runs": len(runs),
        "failed": sum(run["exit"] != 0 for run in runs),
        "golden": sum(run["golden"] for run in runs),
        "exact_discovery": sum(run["exact_discovery"] for run in runs),
        "rescued": sum(bool(run["rescued_by"]) for run in runs),
        "relations": [run["relations"] for run in runs],
        "pipeline_s_median": round(
            statistics.median(run["pipeline_s"] for run in runs), 3
        ),
        "process_s_median": round(
            statistics.median(run["process_s"] for run in runs), 3
        ),
        "flip": len(outcomes) > 1,
    }
    if deadline_s is not None:
        summary["overshoot_s_max"] = round(
            max(run["pipeline_s"] for run in runs) - deadline_s, 3
        )
    return summary


def _deadline_seconds(budget: list[str]) -> float | None:
    from repro.runtime.governor import parse_duration

    return parse_duration(budget[1]) if budget[0] == "--deadline" else None


def sweep(sides: dict[str, str], runs: int, only: set[str] | None) -> dict:
    names = list(sides)
    with tempfile.TemporaryDirectory(prefix="budget-sweep-") as tmp:
        work = Path(tmp)
        csvs = _make_inputs(work, sides[names[0]])

        cases = []  # (input, csv, extra args, budget args)
        references: dict[str, dict] = {}
        for name, (workload, extra) in E2E_INPUTS.items():
            for flag, value in E2E_BUDGETS[name]:
                cases.append((name, csvs[workload], extra, [flag, value]))
        for name in PROFILES:
            for cap in PROFILE_CANDIDATES:
                cases.append((name, csvs[name], [], ["--max-candidates", str(cap)]))
        if only:
            cases = [case for case in cases if case[0] in only]

        # Unbudgeted references per input and side: golden DDL, and
        # the pipeline time profile deadlines are shares of.
        for name in dict.fromkeys(case[0] for case in cases):
            csv, extra = next((c[1], c[2]) for c in cases if c[0] == name)
            references[name] = {}
            for side in names:
                record = _run(sides[side], csv, extra, [], work)
                references[name][side] = record
                print(f"reference {name} [{side}]: {record['pipeline_s']:.2f}s",
                      file=sys.stderr)
            if name in PROFILES:
                base = references[name][names[0]]["pipeline_s"]
                for share in PROFILE_SHARES:
                    deadline = f"{base * share * 1000:.1f}ms"
                    cases.append((name, csv, extra, ["--deadline", deadline]))

        results: dict[tuple, dict[str, list]] = {}
        for rep in range(runs):
            order = names if rep % 2 == 0 else names[::-1]
            for name, csv, extra, budget in cases:
                for side in order:
                    record = _run(sides[side], csv, extra, budget, work)
                    golden = references[name][side]["ddl"]
                    summary = _summarize_run(record, golden)
                    key = (name, " ".join(extra + budget))
                    results.setdefault(key, {}).setdefault(side, []).append(summary)
                    print(
                        f"[{rep}] {name} {' '.join(budget)} [{side}]: "
                        f"exit {summary['exit']}, {summary['pipeline_s']}s, "
                        f"golden={summary['golden']}, "
                        f"relations={summary['relations']}, "
                        f"attempts={summary['attempts']}",
                        file=sys.stderr,
                    )

    budgets = []
    for (name, flags), per_side in results.items():
        deadline = _deadline_seconds(flags.split()[-2:])
        entry = {
            "input": name,
            "budget": flags,
            "summary": {
                side: _summarize_budget(per_side[side], deadline)
                for side in names
            },
            "runs": per_side,
        }
        budgets.append(entry)
    return {
        "host": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
        },
        "sides": names,
        "runs_per_budget": runs,
        "references": {
            name: {
                side: {
                    "pipeline_s": round(record["pipeline_s"], 3),
                    "process_s": round(record["process_s"], 3),
                    "relations": record["relations"],
                }
                for side, record in per_side.items()
            }
            for name, per_side in references.items()
        },
        "references_agree": all(
            len({record["ddl"] for record in per_side.values()}) == 1
            for per_side in references.values()
        ),
        "budgets": budgets,
        "totals": {
            side: {
                "runs": sum(b["summary"][side]["runs"] for b in budgets),
                "failed": sum(b["summary"][side]["failed"] for b in budgets),
                "golden": sum(b["summary"][side]["golden"] for b in budgets),
                "exact_discovery": sum(
                    b["summary"][side]["exact_discovery"] for b in budgets
                ),
                "rescued": sum(b["summary"][side]["rescued"] for b in budgets),
                "flips": sum(b["summary"][side]["flip"] for b in budgets),
            }
            for side in names
        },
    }


def main(argv: list[str]) -> int:
    if argv and argv[0] == "--child":
        return child(argv[1], argv[3:])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--side",
        action="append",
        metavar="NAME=SRC",
        help="a src directory to sweep, repeatable (default: change=src)",
    )
    parser.add_argument("--runs", type=int, default=3, help="runs per budget")
    parser.add_argument(
        "--only", nargs="*", help="sweep only these inputs (by name)"
    )
    parser.add_argument(
        "--out", default=str(RESULT), help="where to write the JSON"
    )
    args = parser.parse_args(argv)
    given = args.side or [f"change={HERE.parent / 'src'}"]
    pairs = [side.split("=", 1) for side in given]
    sides = {name: str(Path(src).resolve()) for name, src in pairs}
    document = sweep(sides, args.runs, set(args.only) if args.only else None)
    write(document, Path(args.out))
    print(json.dumps(document["totals"], indent=1))
    return 0


def write(document: dict, path: Path) -> None:
    """The document as JSON, one budget (with all its runs) per line."""
    fields = []
    for key, value in document.items():
        if key == "budgets":
            rows = ",\n  ".join(json.dumps(entry) for entry in value)
            fields.append(f'"budgets": [\n  {rows}\n ]')
        else:
            fields.append(f"{json.dumps(key)}: {json.dumps(value)}")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("{\n " + ",\n ".join(fields) + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
