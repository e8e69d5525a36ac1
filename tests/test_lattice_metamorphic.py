"""Kernel-backend metamorphic tests: the pipeline is representation-blind.

The kernel backend (``python`` vs ``numpy``) is a pure representation
choice; discovered covers, keys, and the final decomposed schema must
be byte-identical under both pins.  This is the end-to-end counterpart
of the per-operation differential suites in
``test_kernels_differential.py`` and ``test_fdtree_differential.py``.
"""

import pytest

from repro import kernels
from repro.datagen.random_tables import random_instance
from repro.verification.planted import plant_instance

NUMPY = kernels.numpy_available()

GRID = ["python", "numpy"]


def grid():
    return [backend for backend in GRID if backend != "numpy" or NUMPY]


@pytest.fixture(autouse=True)
def _restore():
    yield
    kernels.set_backend(None)


def per_config(fn):
    """Run ``fn`` once per kernel backend; return the map."""
    results = {}
    for backend in grid():
        kernels.set_backend(backend)
        results[backend] = fn()
    return results


def assert_uniform(results):
    baseline_key = "python"
    baseline = results[baseline_key]
    for config, value in results.items():
        assert value == baseline, f"{config} diverges from {baseline_key}"


INSTANCES = [
    lambda: random_instance(71, 5, 120, domain_size=2, null_rate=0.3),
    lambda: random_instance(72, 4, 200, domain_size=[2, 3, 50, 200]),
    lambda: plant_instance(73, num_columns=6, num_rows=120, null_rate=0.15).instance,
    lambda: random_instance(74, 3, 1, domain_size=2),  # single row
    lambda: random_instance(75, 3, 0, domain_size=2),  # empty relation
]


@pytest.mark.parametrize("make", INSTANCES)
@pytest.mark.parametrize("null_equals_null", [True, False])
class TestDiscoveryInvariance:
    def test_hyfd_tane_covers_identical(self, make, null_equals_null):
        from repro.discovery.base import discover_fds

        instance = make()

        def discover():
            out = {}
            for algorithm in ("hyfd", "tane"):
                fds = discover_fds(
                    instance, algorithm, null_equals_null=null_equals_null
                )
                out[algorithm] = sorted((fd.lhs, fd.rhs) for fd in fds)
            return out

        assert_uniform(per_config(discover))


class TestPipelineInvariance:
    def test_decomposed_schema_identical(self):
        from repro.core.normalize import normalize
        from repro.io.ddl import schema_to_ddl

        instance = plant_instance(
            81, num_columns=6, num_rows=100, null_rate=0.1
        ).instance

        def run():
            result = normalize(instance)
            return schema_to_ddl(result.schema, result.instances)

        assert_uniform(per_config(run))

    def test_incremental_engine_identical(self):
        from repro.incremental import ChangeBatch, IncrementalNormalizer

        base = random_instance(82, 4, 60, domain_size=3, null_rate=0.2)
        extra = random_instance(83, 4, 12, domain_size=3, null_rate=0.2)
        rows = [extra.row(r) for r in range(extra.num_rows)]
        batches = [
            ChangeBatch(inserts=rows[:6], deletes=()),
            ChangeBatch(inserts=rows[6:], deletes=(2, 11)),
        ]

        def run():
            engine = IncrementalNormalizer(base)
            for batch in batches:
                engine.apply_batch(batch)
            return engine.ddl()

        assert_uniform(per_config(run))


@pytest.mark.fuzz
class TestVerifyCampaignInvariance:
    """The seeded end-to-end verification campaign passes under every
    kernel backend (nightly)."""

    @pytest.mark.parametrize("backend", GRID)
    def test_verify_seeds(self, backend):
        if backend == "numpy" and not NUMPY:
            pytest.skip("numpy not installed")
        from repro.verification.runner import main_verify

        kernels.set_backend(backend)
        rc = main_verify(["--seeds", "6", "--rows", "16", "--quiet"])
        assert rc == 0
