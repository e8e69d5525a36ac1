"""Differential tests: numpy kernels vs the pure-Python oracle.

The numpy backend must reproduce the interpreted loops *byte for byte*:
identical stripped-partition CSR buffers (same clusters, same cluster
order, same row order), the identical violating row pair per refuted
FD, and identical ``{agree mask: pair count}`` dicts in the same key
order — on planted and random instances, under both NULL semantics,
including single-row and empty-relation edge cases.  When numpy is not installed the comparisons are skipped but
backend selection itself is still exercised.
"""

import os

import pytest

from repro import kernels
from repro.datagen.random_tables import random_instance
from repro.runtime.errors import InputError
from repro.structures.encoding import EncodedRelation
from repro.structures.partitions import PLICache, StrippedPartition
from repro.verification.planted import plant_instance
from tests.helpers import normalize_modules

NUMPY = kernels.numpy_available()
requires_numpy = pytest.mark.skipif(not NUMPY, reason="numpy not installed")


@pytest.fixture(autouse=True)
def _restore_backend(monkeypatch):
    # Force the vectorized paths: the registry's small-input dispatch
    # would otherwise send every one of these small fixtures to the
    # python oracle and the comparison would be vacuous.
    monkeypatch.setattr(kernels, "SMALL_INPUT_THRESHOLD", 0)
    yield
    kernels.set_backend(None)


def csr(partition: StrippedPartition) -> tuple[bytes, bytes, int]:
    return (
        partition.row_data.tobytes(),
        partition.offsets.tobytes(),
        partition.num_rows,
    )


def agree_counts(encoding: EncodedRelation, pairs) -> dict[int, int]:
    """The counts contract built from the scalar ``agree_set`` helper:
    each distinct mask once, in first-occurrence order, with its count."""
    counts: dict[int, int] = {}
    for left, right in pairs:
        agree = encoding.agree_set(left, right)
        counts[agree] = counts.get(agree, 0) + 1
    return counts


def ordered(counts: dict[int, int]) -> list[tuple[int, int]]:
    """A counts dict as its item list, so comparisons see key order."""
    return list(counts.items())


def per_backend(fn):
    """Run ``fn`` once per backend and return {backend: result}."""
    results = {}
    for backend in ("python", "numpy"):
        kernels.set_backend(backend)
        results[backend] = fn()
    kernels.set_backend(None)
    return results


INSTANCES = [
    lambda: random_instance(11, 5, 120, domain_size=2, null_rate=0.3),
    lambda: random_instance(12, 4, 200, domain_size=[2, 3, 50, 200]),
    lambda: random_instance(13, 6, 80, domain_size=4, null_rate=0.6),
    lambda: plant_instance(21, num_columns=6, num_rows=150, null_rate=0.2).instance,
    lambda: plant_instance(22, num_columns=4, num_rows=60).instance,
    lambda: random_instance(14, 3, 1, domain_size=2),  # single row
    lambda: random_instance(15, 3, 0, domain_size=2),  # empty relation
    lambda: random_instance(16, 2, 40, domain_size=1),  # constant columns
]


@requires_numpy
@pytest.mark.parametrize("make", INSTANCES)
@pytest.mark.parametrize("null_equals_null", [True, False])
class TestPartitionIdentity:
    def test_single_attribute_partitions(self, make, null_equals_null):
        instance = make()
        encoding = instance.encoded(null_equals_null)

        def build():
            return [
                csr(
                    StrippedPartition.from_value_ids(
                        encoding.codes[attr], encoding.null_codes[attr]
                    )
                )
                for attr in range(encoding.arity)
            ]

        results = per_backend(build)
        assert results["python"] == results["numpy"]

    def test_pairwise_intersections(self, make, null_equals_null):
        instance = make()
        encoding = instance.encoded(null_equals_null)

        def build():
            singles = [
                StrippedPartition.from_value_ids(
                    encoding.codes[attr], encoding.null_codes[attr]
                )
                for attr in range(encoding.arity)
            ]
            out = []
            for a in range(encoding.arity):
                for b in range(encoding.arity):
                    if a != b:
                        out.append(csr(singles[a].intersect(singles[b])))
                        out.append(
                            csr(singles[a].intersect_ids(encoding.codes[b]))
                        )
            return out

        results = per_backend(build)
        assert results["python"] == results["numpy"]

    def test_violation_scans(self, make, null_equals_null):
        instance = make()
        encoding = instance.encoded(null_equals_null)

        def scan():
            out = []
            for lhs_attr in range(encoding.arity):
                partition = StrippedPartition.from_value_ids(
                    encoding.codes[lhs_attr], encoding.null_codes[lhs_attr]
                )
                rhs = [a for a in range(encoding.arity) if a != lhs_attr]
                probes = [encoding.codes[a] for a in rhs]
                out.append(partition.find_violations(rhs, probes))
                for attr, probe in zip(rhs, probes):
                    out.append(partition.find_violating_pair(probe))
                    out.append(partition.refines_column(probe))
            return out

        results = per_backend(scan)
        assert results["python"] == results["numpy"]

    def test_agree_sets(self, make, null_equals_null):
        instance = make()
        encoding = instance.encoded(null_equals_null)
        n = encoding.num_rows
        lefts = [i % n for i in range(0, 3 * n, 3)] if n else []
        rights = [(i * 7 + 1) % n for i in range(len(lefts))] if n else []

        results = per_backend(
            lambda: (
                ordered(encoding.agree_sets_batch(lefts, rights)),
                ordered(encoding.agree_sets_vs(0, range(n))),
            )
        )
        assert results["python"] == results["numpy"]
        # The scalar helper is the historical oracle for both.
        batch, versus = results["python"]
        assert batch == ordered(agree_counts(encoding, zip(lefts, rights)))
        assert versus == ordered(
            agree_counts(encoding, ((0, right) for right in range(n)))
        )
        assert sum(count for _, count in batch) == len(lefts)
        assert sum(count for _, count in versus) == n


@requires_numpy
class TestWideRelations:
    def test_agree_masks_beyond_64_attributes(self):
        # 70 columns exercises the multi-word uint64 packing path.
        columns = [
            [(row * (attr + 1)) % 3 for row in range(40)] for attr in range(70)
        ]
        columns[3] = [None if row % 4 else row % 2 for row in range(40)]
        lefts = list(range(0, 40, 2))
        rights = list(range(1, 40, 2))
        for null_equals_null in (True, False):
            encoding = EncodedRelation.encode(columns, null_equals_null)
            results = per_backend(
                lambda: (
                    ordered(encoding.agree_sets_batch(lefts, rights)),
                    ordered(encoding.agree_sets_vs(5, range(40))),
                )
            )
            assert results["python"] == results["numpy"]
            batch, versus = results["python"]
            assert batch == ordered(agree_counts(encoding, zip(lefts, rights)))
            assert versus == ordered(
                agree_counts(encoding, ((5, right) for right in range(40)))
            )
            assert sum(count for _, count in batch) == len(lefts)
            assert any(mask >> 64 for mask, _ in batch)
            # Fewer distinct masks than pairs, so the counts are exercised.
            assert any(count > 1 for _, count in versus)


@requires_numpy
class TestHybridDispatch:
    def test_small_inputs_delegate_to_python(self, monkeypatch):
        """At the default threshold a tiny call runs the oracle loop."""
        from repro.kernels import npbackend, pybackend

        monkeypatch.undo()  # restore the real SMALL_INPUT_THRESHOLD
        threshold = kernels.SMALL_INPUT_THRESHOLD
        assert threshold > 0
        kernels.set_backend("numpy")
        assert kernels.for_size(threshold - 1) is pybackend
        assert kernels.for_size(threshold) is npbackend
        kernels.set_backend("python")
        assert kernels.for_size(threshold + 16) is pybackend

        calls = []
        real = pybackend.from_value_ids
        monkeypatch.setattr(
            pybackend,
            "from_value_ids",
            lambda codes, null: calls.append(len(codes)) or real(codes, null),
        )
        small = [0, 1, 0, 1]
        large = [i % 7 for i in range(threshold + 16)]
        kernels.set_backend("numpy")
        first = StrippedPartition.from_value_ids(small, None)
        second = StrippedPartition.from_value_ids(large, None)
        assert calls == [len(small)]  # only the tiny call delegated
        kernels.set_backend("python")
        assert csr(first) == csr(StrippedPartition.from_value_ids(small, None))
        assert csr(second) == csr(StrippedPartition.from_value_ids(large, None))


class TestImportBySize:
    """The registry imports numpy only for calls large enough to use it."""

    NUMPY_MODULES = {"numpy", "repro.kernels.npbackend"}

    def test_small_input_never_imports_numpy(self, tmp_path):
        assert self.NUMPY_MODULES.isdisjoint(normalize_modules(tmp_path, 200))

    @requires_numpy
    def test_large_input_loads_npbackend(self, tmp_path):
        assert self.NUMPY_MODULES <= normalize_modules(tmp_path, 2_000)


@requires_numpy
class TestCacheAndDiscovery:
    def test_plicache_chains_identical(self):
        instance = random_instance(31, 6, 150, domain_size=3, null_rate=0.2)
        masks = [0b11, 0b101, 0b111, 0b11010, 0b111111]

        def build():
            cache = PLICache(instance)
            return [csr(cache.get(mask)) for mask in masks]

        results = per_backend(build)
        assert results["python"] == results["numpy"]

    def test_hyfd_and_tane_covers_identical(self):
        from repro.discovery.hyfd.hyfd import HyFD
        from repro.discovery.tane import Tane

        instance = plant_instance(
            33, num_columns=6, num_rows=120, null_rate=0.15
        ).instance

        def discover():
            instance.invalidate_caches()
            return (
                sorted((fd.lhs, fd.rhs) for fd in HyFD().discover(instance)),
                sorted((fd.lhs, fd.rhs) for fd in Tane().discover(instance)),
            )

        results = per_backend(discover)
        assert results["python"] == results["numpy"]


class TestBackendSelection:
    def test_default_is_auto(self):
        """Unpinned, the registry picks numpy whenever it is importable."""
        kernels.set_backend(None)
        expected = "numpy" if NUMPY else "python"
        assert kernels.backend_name() == expected
        assert kernels.active().name == expected

    def test_set_backend_rejects_unknown(self):
        for name in ("cuda", "auto"):
            with pytest.raises(InputError):
                kernels.set_backend(name)

    def test_counters_record_calls_and_rows(self):
        kernels.set_backend("python")
        mark = kernels.counters_snapshot()
        StrippedPartition.from_value_ids([0, 1, 0, 1, 2], None)
        delta = kernels.counters_delta(mark)
        assert delta["kernel_pli_from_ids_calls"] == 1
        assert delta["kernel_pli_from_ids_rows"] == 5

    def test_profile_records_backend(self):
        from repro.profiling import profile

        instance = random_instance(41, 3, 20, domain_size=2)
        kernels.set_backend("python")
        report = profile(instance)
        assert report.counters["kernel_backend"] == "python"
        assert report.counters["kernel_pli_from_ids_calls"] > 0


@requires_numpy
@pytest.mark.fuzz
class TestKernelFuzz:
    """Wider seeded campaign (nightly CI): full-surface identity."""

    @pytest.mark.parametrize("seed", range(int(os.environ.get("KERNEL_FUZZ_SEEDS", 25))))
    def test_random_instances_identical(self, seed):
        instance = random_instance(
            seed,
            2 + seed % 6,
            (seed * 37) % 300,
            domain_size=1 + seed % 5,
            null_rate=(seed % 4) * 0.2,
        )
        for null_equals_null in (True, False):
            encoding = instance.encoded(null_equals_null)

            def full_surface():
                singles = [
                    StrippedPartition.from_value_ids(
                        encoding.codes[attr], encoding.null_codes[attr]
                    )
                    for attr in range(encoding.arity)
                ]
                out = [csr(p) for p in singles]
                product = StrippedPartition.single_cluster(encoding.num_rows)
                for attr, single in enumerate(singles):
                    product = product.intersect(single)
                    out.append(csr(product))
                    out.append(
                        product.find_violations(
                            list(range(encoding.arity)), encoding.codes
                        )
                    )
                n = encoding.num_rows
                if n:
                    out.append(ordered(encoding.agree_sets_vs(n - 1, range(n - 1))))
                return out

            results = per_backend(full_surface)
            assert results["python"] == results["numpy"], (
                f"seed={seed} null_equals_null={null_equals_null}"
            )
