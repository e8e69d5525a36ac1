# Convenience targets mirroring the CI workflow (.github/workflows/ci.yml).

PYTHON ?= python

.PHONY: verify verify-parallel verify-kernels verify-lattice serve-smoke fuzz fuzz-faults fuzz-chaos fuzz-incremental fuzz-kernels fuzz-lattice bench bench-engine bench-fdtree bench-incremental bench-parallel bench-serve bench-e2e-smoke bench-budget-smoke bench-discovery-smoke

# Tier-1 suite — the gate every change must keep green (see ROADMAP.md).
verify:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q

# Tier-1 again with the process pool engaged (docs/PARALLEL.md).
verify-parallel:
	REPRO_WORKERS=2 PYTHONPATH=src $(PYTHON) -m pytest -x -q

# The kernel differential file pins each backend and compares numpy
# against the pure-Python oracle (docs/KERNELS.md); the FD-tree file
# pins the tree against its naive oracle.  Without numpy
# (pip install -e .[perf]) the numpy cases skip.  CI's tier1 job runs
# them with numpy on Python 3.10 and without it on 3.12.
verify-kernels:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q tests/test_kernels_differential.py tests/test_fdtree_differential.py

# The FD-tree differential suite plus the metamorphic suite, which runs
# the pipeline under both kernel backends (docs/ALGORITHMS.md).
verify-lattice:
	PYTHONPATH=src $(PYTHON) -m pytest -q tests/test_fdtree_differential.py tests/test_lattice_metamorphic.py -m "not fuzz"

# Daemon end-to-end smoke: real `repro serve` subprocess, upload →
# batches → DDL via `repro submit`, byte-diffed against the offline
# CLI, SIGTERM drain, kill -9 + --resume-dir revival with zero
# rediscovery (docs/SERVER.md).
serve-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest -x -q tests/test_server_smoke.py tests/test_server.py

# Differential/metamorphic verification campaign (docs/TESTING.md).
fuzz:
	PYTHONPATH=src $(PYTHON) -m repro verify --seeds 50 --repro-out fuzz-repros.py
	PYTHONPATH=src $(PYTHON) -m pytest -q -m fuzz

# Fault-injection campaign: breach/kill at checkpoint ticks, assert the
# robustness contract (docs/ROBUSTNESS.md).
fuzz-faults:
	PYTHONPATH=src $(PYTHON) -m repro verify --faults --seeds 25

# Worker-fault chaos campaign: real SIGKILL/exit/hang faults inside
# pool workers mid-shard; the self-healing pool must recover every
# seed with DDL byte-identical to the serial reference
# (docs/PARALLEL.md, failure-modes matrix).
fuzz-chaos:
	REPRO_WORKERS=2 PYTHONPATH=src $(PYTHON) -m repro verify --faults --seeds 25 --workers 2

# Incremental-differential campaign: seeded batch streams against the
# incremental engine, asserting byte-identical covers/keys/DDL vs
# from-scratch runs (docs/INCREMENTAL.md).
fuzz-incremental:
	PYTHONPATH=src $(PYTHON) -m repro verify --incremental --seeds 25 --batches 10

# Kernel-differential campaign: numpy vs python identity on the full
# kernel surface, plus the verification harness on the default
# backend (numpy when installed).
fuzz-kernels:
	KERNEL_FUZZ_SEEDS=50 PYTHONPATH=src $(PYTHON) -m pytest -q -m fuzz tests/test_kernels_differential.py
	PYTHONPATH=src $(PYTHON) -m repro verify --seeds 25

# Lattice fuzz campaign: seeded op-sequence/cover equivalence vs the
# naive oracle.
fuzz-lattice:
	LATTICE_FUZZ_SEEDS=50 PYTHONPATH=src $(PYTHON) -m pytest -q -m fuzz tests/test_fdtree_differential.py tests/test_lattice_metamorphic.py

# Full paper-reproduction benchmark harness (writes benchmarks/results/).
bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --benchmark-only -q

# Partition-engine micro-benchmarks only (the PLI hot path), under both
# kernel backends (enforces the ≥5x large-preset gate, writes
# BENCH_partition_engine.json).
bench-engine:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_partition_engine.py --benchmark-only -q

# FD-tree micro-benchmarks: wide-lattice sweeps and induction on the
# level-indexed tree (asserts no gate, writes BENCH_fdtree.json).
bench-fdtree:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_fdtree.py --benchmark-only -q

# Incremental maintenance vs. full re-discovery under append streams.
bench-incremental:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_incremental.py --benchmark-only -q

# Per-call-site pool speedup, serial vs 2 workers, identity asserted
# (writes BENCH_parallel_scaling.json; a speedup needs >= 2 CPUs).
bench-parallel:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_parallel_scaling.py --benchmark-only -q

# Daemon latency/throughput: cold create vs warm reads (≥5x gate) and
# 1/4/16-tenant interleaved throughput (writes BENCH_serve.json).
bench-serve:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_serve_latency.py --benchmark-only -q

# End-to-end benchmark smoke (~15 s at --scale smoke): DDL and
# migration digests of all four workloads against golden.json, and the
# tracer's invariants (benchmarks/e2e/README.md).
bench-e2e-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/e2e -q

# Budget-sweep smoke (a few seconds): this checkout on the smallest
# profile under one deadline and one memory budget, so a flag the
# sweep passes cannot disappear unnoticed.
bench-budget-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_budget_sweep.py -q -k smoke

# All-pairs budget smoke (a few seconds): two tiny relations, one on
# each side of HyFD's ALL_PAIRS_BUDGET; the all-pairs path must run
# exactly below it, with the same cover as sampling and validation.
bench-discovery-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_discovery_comparison.py -q -k smoke
