"""Tests for the columnar partition engine.

Covers the CSR stripped-partition layout, the shared value encoding
(including NULL-semantics edge cases), the single-pass multi-RHS
validator, and the PLI cache's popcount index / frontier / counters.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen.random_tables import random_instance
from repro.discovery.hyfd.induction import build_positive_cover
from repro.discovery.hyfd.validation import validate_tree
from repro.io.datasets import (
    address_example,
    denormalized_university,
    planets_example,
)
from repro.model.attributes import iter_bits
from repro.model.instance import RelationInstance
from repro.structures.encoding import ChunkedEncoder, EncodedRelation, encode_column
from repro.structures.partitions import (
    PLICache,
    StrippedPartition,
    column_value_ids,
)
from tests.helpers import assert_encodings_identical


def signature(partition):
    return {frozenset(cluster) for cluster in partition.clusters}


def _nullable_instance() -> RelationInstance:
    base = address_example()
    columns = [list(column) for column in base.columns_data]
    columns[0][1] = None
    columns[2][0] = None
    columns[2][3] = None
    return RelationInstance(base.relation, columns)


FIXTURES = {
    "address": address_example,
    "nullable": _nullable_instance,
    "planets": planets_example,
    "university": denormalized_university,
}


class TestCSRLayout:
    def test_offsets_are_csr(self):
        p = StrippedPartition([[0, 1], [2, 3, 4]], 5)
        assert list(p.offsets) == [0, 2, 5]
        assert list(p.row_data) == [0, 1, 2, 3, 4]
        assert p.num_clusters == 2

    def test_cluster_accessors_match(self):
        p = StrippedPartition([[1, 3], [0, 2, 4]], 5)
        assert p.cluster(0) == [1, 3]
        assert p.cluster(1) == [0, 2, 4]
        assert [list(c) for c in p.iter_clusters()] == p.clusters

    def test_singletons_stripped_by_constructor(self):
        p = StrippedPartition([[0], [1, 2], [3]], 4)
        assert signature(p) == {frozenset({1, 2})}

    def test_from_value_ids_matches_from_column(self):
        values = ["a", "b", "a", None, None, "b", "c"]
        for nen in (True, False):
            codes, _, null_code = encode_column(values, nen)
            via_ids = StrippedPartition.from_value_ids(codes, null_code)
            via_column = StrippedPartition.from_column(values, nen)
            assert via_ids.clusters == via_column.clusters

    def test_null_cluster_ordered_last(self):
        # NULLs appear first in the data but their cluster stays last,
        # matching the historical raw-value grouping order.
        p = StrippedPartition.from_column([None, None, "x", "x"])
        assert p.clusters == [[2, 3], [0, 1]]


class TestEncoding:
    def test_codes_match_column_value_ids(self):
        instance = random_instance(3, 4, 30, domain_size=3, null_rate=0.3)
        for nen in (True, False):
            encoding = instance.encoded(nen)
            for attr in range(instance.arity):
                assert list(encoding.codes[attr]) == column_value_ids(
                    instance.columns_data[attr], nen
                )

    def test_encoding_memoized_per_semantics(self):
        instance = random_instance(4, 3, 10)
        assert instance.encoded(True) is instance.encoded(True)
        assert instance.encoded(False) is instance.encoded(False)
        assert instance.encoded(True) is not instance.encoded(False)

    def test_encoding_invalidated_on_row_append(self):
        # append_rows extends the stored encoding and rebuilds the
        # NULL != NULL view: both match a table built with the row.
        instance = random_instance(4, 2, 5)
        grown = RelationInstance(
            instance.relation,
            [list(column) + ["fresh"] for column in instance.columns_data],
        )
        assert grown.encoded().num_rows == 6
        assert instance.encoded().num_rows == 5
        distinct_nulls = instance.encoded(False)
        instance.append_rows([("fresh",) * instance.arity])
        assert instance.encoded(False) is not distinct_nulls
        for nen in (True, False):
            assert_encodings_identical(instance.encoded(nen), grown.encoded(nen))

    def test_all_null_column_null_equals_null(self):
        codes, cardinality, null_code = encode_column([None, None, None], True)
        assert list(codes) == [0, 0, 0]
        assert cardinality == 1
        assert null_code == 0
        p = StrippedPartition.from_value_ids(codes, null_code)
        assert signature(p) == {frozenset({0, 1, 2})}

    def test_all_null_column_null_not_equal(self):
        codes, cardinality, null_code = encode_column([None, None, None], False)
        assert len(set(codes)) == 3
        assert cardinality == 3
        assert null_code is None
        p = StrippedPartition.from_value_ids(codes, null_code)
        assert p.is_unique  # every NULL is its own stripped singleton

    def test_single_non_null_value_column(self):
        values = [None, "only", None]
        same = encode_column(values, True)[0]
        assert same[0] == same[2] != same[1]
        distinct_codes, _, null_code = encode_column(values, False)
        assert len(set(distinct_codes)) == 3
        assert null_code is None
        assert StrippedPartition.from_value_ids(distinct_codes).is_unique

    def test_agree_set_null_semantics(self):
        encoding_eq = EncodedRelation.encode([[None, None], ["x", "x"]], True)
        assert encoding_eq.agree_set(0, 1) == 0b11
        encoding_ne = EncodedRelation.encode([[None, None], ["x", "x"]], False)
        assert encoding_ne.agree_set(0, 1) == 0b10  # NULLs never agree

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=2, max_value=20),
    )
    @settings(max_examples=25)
    def test_agree_set_matches_probe_loop(self, seed, cols, rows):
        instance = random_instance(seed, cols, rows, domain_size=2, null_rate=0.3)
        for nen in (True, False):
            encoding = instance.encoded(nen)
            probes = [
                column_value_ids(instance.columns_data[i], nen)
                for i in range(cols)
            ]
            for left in range(rows):
                for right in range(left + 1, min(rows, left + 4)):
                    expected = 0
                    for attr in range(cols):
                        if probes[attr][left] == probes[attr][right]:
                            expected |= 1 << attr
                    assert encoding.agree_set(left, right) == expected

    @pytest.mark.parametrize("fixture", sorted(FIXTURES))
    @pytest.mark.parametrize("null_equals_null", [True, False])
    def test_chunked_encoder_matches_encode(self, fixture, null_equals_null):
        instance = FIXTURES[fixture]()
        whole = EncodedRelation.encode(instance.columns_data, null_equals_null)
        rows = list(zip(*instance.columns_data))
        encoder = ChunkedEncoder(instance.arity, null_equals_null=null_equals_null)
        for start in range(0, len(rows), 3):
            encoder.add_rows(rows[start : start + 3])
        chunked = encoder.finish()
        assert_encodings_identical(whole, chunked)
        # The decode tables invert the dictionaries exactly.
        tables = chunked.tables
        for attr, column in enumerate(instance.columns_data):
            decoded = [tables[attr][code] for code in chunked.codes[attr]]
            if null_equals_null:
                assert decoded == list(column)

    def test_finish_twice_raises(self):
        encoder = ChunkedEncoder(2)
        encoder.add_rows([("x", "y")])
        encoder.finish()
        with pytest.raises(ValueError):
            encoder.finish()

    def test_ragged_extend_rejected_before_any_write(self):
        instance = address_example()
        encoding = EncodedRelation.encode(instance.columns_data, True)
        untouched = EncodedRelation.encode(instance.columns_data, True)
        bad = [["a"], ["b", "extra"]] + [["c"]] * (encoding.arity - 2)
        with pytest.raises(ValueError):
            encoding.extend(bad)
        assert_encodings_identical(untouched, encoding)


class TestIntersectIds:
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=25),
    )
    @settings(max_examples=40)
    def test_matches_general_intersect(self, seed, rows):
        instance = random_instance(seed, 3, rows, domain_size=2, null_rate=0.2)
        encoding = instance.encoded()
        a = StrippedPartition.from_value_ids(
            encoding.codes[0], encoding.null_codes[0]
        )
        b = StrippedPartition.from_value_ids(
            encoding.codes[1], encoding.null_codes[1]
        )
        assert a.intersect_ids(encoding.codes[1]).clusters == a.intersect(b).clusters

    def test_probe_buffer_left_clean(self):
        # The shared probe buffer belongs to the python backend; pin it
        # so the assertion is meaningful even when numpy is the default.
        from repro import kernels
        from repro.kernels import pybackend

        kernels.set_backend("python")
        try:
            instance = random_instance(1, 3, 200, domain_size=3)
            a = StrippedPartition.from_column(instance.columns_data[0])
            b = StrippedPartition.from_column(instance.columns_data[1])
            a.intersect(b)
            assert all(v == -1 for v in pybackend._PROBE_BUFFER)
            # a sparse partition takes the element-wise reset path
            sparse = StrippedPartition([[0, 1]], 200)
            a.intersect(sparse)
            assert all(v == -1 for v in pybackend._PROBE_BUFFER)
        finally:
            kernels.set_backend(None)


class TestMultiRHSValidator:
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=0, max_value=20),
    )
    @settings(max_examples=40)
    def test_matches_per_attribute_scan(self, seed, cols, rows):
        instance = random_instance(seed, cols, rows, domain_size=2, null_rate=0.2)
        cache = PLICache(instance)
        partition = cache.get(0b1)
        attrs = list(range(1, cols))
        probes = [cache.probe(a) for a in attrs]
        got = partition.find_violations(attrs, probes)
        for attr, probe in zip(attrs, probes):
            assert got.get(attr) == partition.find_violating_pair(probe)

    def test_empty_rhs_list(self):
        p = StrippedPartition([[0, 1]], 2)
        assert p.find_violations([], []) == {}

    def test_single_sweep_per_lhs_and_level(self, monkeypatch):
        """One partition scan per (LHS, level) regardless of RHS fan-out."""
        # a key column plus 4 dependent columns: every {A} -> X is valid,
        # so validation of LHS {A} must check 4 RHS attributes.
        instance = random_instance(7, 5, 30, domain_size=2)
        cache = PLICache(instance)

        sweeps: list[tuple[int, ...]] = []
        original_multi = StrippedPartition.find_violations
        original_single = StrippedPartition.find_violating_pair

        def counting_multi(self, rhs_attrs, probes):
            sweeps.append(tuple(rhs_attrs))
            return original_multi(self, rhs_attrs, probes)

        def forbidden_single(self, probe):  # pragma: no cover - must not run
            raise AssertionError(
                "validation must use the multi-RHS single-pass validator"
            )

        monkeypatch.setattr(StrippedPartition, "find_violations", counting_multi)
        monkeypatch.setattr(
            StrippedPartition, "find_violating_pair", forbidden_single
        )

        tree = build_positive_cover(5, [])
        validate_tree(tree, cache, sampler=None)

        # Every sweep covers the full RHS fan-out of its LHS node at once:
        # the number of sweeps equals the number of validated LHS nodes,
        # never the number of (LHS, RHS) pairs.
        assert sweeps, "validation ran no sweeps"
        multi_rhs_sweeps = [s for s in sweeps if len(s) > 1]
        assert multi_rhs_sweeps, "no sweep validated several RHS at once"
        # the root node {} -> all 5 attributes is one sweep, not five
        assert sweeps[0] == (0, 1, 2, 3, 4)


class TestPLICacheEngine:
    def test_stats_counters(self):
        instance = random_instance(2, 4, 20, domain_size=2)
        cache = PLICache(instance)
        assert cache.stats.hits == cache.stats.misses == 0
        cache.get(0b11)
        assert cache.stats.misses == 1
        cache.get(0b11)
        assert cache.stats.hits == 1
        assert cache.stats.evictions == 0
        assert cache.stats.as_dict() == {
            "pli_hits": 1,
            "pli_misses": 1,
            "pli_evictions": 0,
        }

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=2**5 - 1),
    )
    @settings(max_examples=30)
    def test_results_identical_under_eviction(self, seed, mask):
        instance = random_instance(seed, 5, 25, domain_size=2, null_rate=0.2)
        untouched = PLICache(instance)
        forgetting = PLICache(instance)
        for m in (0b11, 0b1100, 0b111, 0b1110, 0b11100, 0b11001, 0b10011):
            forgetting.get(m)
        forgetting.forget_below(3)
        assert forgetting.stats.evictions > 0
        # the empty set and single attributes are permanent; the popcount
        # index still names exactly the cached masks
        assert {m for m in forgetting._cache if m.bit_count() < 2} == {
            0, *(1 << attr for attr in range(5))
        }
        assert all(m.bit_count() != 2 for m in forgetting._cache)
        indexed = {m for bucket in forgetting._by_popcount.values() for m in bucket}
        assert indexed == {m for m in forgetting._cache if m != 0}
        assert signature(forgetting.get(mask)) == signature(untouched.get(mask))

    def test_popcount_index_prefers_largest_subset(self):
        instance = random_instance(5, 6, 30, domain_size=2)
        cache = PLICache(instance)
        cache.get(0b11)
        cache.get(0b111)  # caches the 2- and the 3-attribute product
        assert cache._best_cached_subset(0b1111) == 0b111

    def test_build_caches_only_the_requested_partition(self):
        instance = random_instance(6, 6, 30, domain_size=2)
        cache = PLICache(instance)
        built = cache.get(0b1111)  # three products from a single
        assert [m for m in cache._cache if m.bit_count() >= 2] == [0b1111]
        assert {m for bucket in cache._by_popcount.values() for m in bucket} == {
            0b1111, *(1 << attr for attr in range(6))
        }
        assert cache.get(0b1111) is built
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)

    def test_forget_below_keeps_the_frontier(self):
        instance = random_instance(6, 6, 30, domain_size=2)
        cache = PLICache(instance)
        for mask in (0b11, 0b111, 0b1111):  # a pair, a triple and 0b1111
            cache.get(mask)
        cache.forget_below(3)
        multi = sorted(m.bit_count() for m in cache._cache if m.bit_count() >= 2)
        assert multi == [3, 4]  # the pair is gone
        assert cache.stats.evictions == 1
        cache.forget_below(3)  # nothing left below 3: no new evictions
        assert cache.stats.evictions == 1

    def test_discovery_correct_with_tiny_cache(self, monkeypatch):
        from repro.discovery.bruteforce import BruteForceFD
        from repro.discovery.hyfd import HyFD
        from repro.discovery.hyfd import hyfd as hyfd_module
        from tests.helpers import canon_fds

        # Validation reaches 4-attribute LHSs here, so it forgets pairs;
        # with the pair budget at 0 these 40 rows reach validation.
        monkeypatch.setattr(hyfd_module, "ALL_PAIRS_BUDGET", 0)
        instance = random_instance(21, 7, 40, domain_size=3, null_rate=0.1)
        expected = canon_fds(BruteForceFD().discover(instance))
        algo = HyFD(workers=1)
        assert canon_fds(algo.discover(instance)) == expected
        assert algo.last_cache_stats is not None
        assert algo.last_cache_stats.evictions > 0


def _record_sweeps(monkeypatch) -> list[tuple[int, int | None]]:
    """Record ``(|lhs|, smallest cached multi-attribute size)`` at every
    validation sweep, for any cache the sweep's partition came from."""
    requested: list[tuple[PLICache, int]] = []
    swept: list[tuple[int, int | None]] = []
    original_get = PLICache.get
    original_sweep = StrippedPartition.find_violations

    def get(cache, mask):
        requested.append((cache, mask))
        return original_get(cache, mask)

    def sweep(partition, rhs_attrs, probes):
        cache, lhs = requested[-1]
        assert cache._cache[lhs] is partition
        sizes = [m.bit_count() for m in cache._cache if m.bit_count() >= 2]
        swept.append((lhs.bit_count(), min(sizes, default=None)))
        return original_sweep(partition, rhs_attrs, probes)

    monkeypatch.setattr(PLICache, "get", get)
    monkeypatch.setattr(StrippedPartition, "find_violations", sweep)
    return swept


def _assert_frontier_only(swept: list[tuple[int, int | None]]) -> None:
    assert max(size for size, _ in swept) >= 4, "validation never went deep"
    for size, smallest in swept:
        assert smallest is None or smallest >= size - 1, (size, smallest)


class TestValidationFrontier:
    """HyFD's validation keeps only the partitions its next builds use:
    sweeping an LHS of k attributes, the cache holds none below k - 1."""

    def test_serial_levels(self, monkeypatch):
        instance = random_instance(21, 7, 40, domain_size=3, null_rate=0.1)
        cache = PLICache(instance)
        swept = _record_sweeps(monkeypatch)
        tree = build_positive_cover(instance.arity, [])
        validate_tree(tree, cache, sampler=None)
        _assert_frontier_only(swept)
        assert cache.stats.evictions > 0

    def test_pool_shards(self, monkeypatch):
        # validate_shard runs in-process against a real shared-memory
        # export, one shard per level, as the pool would send them.
        from repro.discovery.hyfd.validation import validate_shard
        from repro.parallel.shm import export_encoding
        from repro.parallel.tasks import attached_cache, reset_worker_caches

        instance = random_instance(22, 6, 40, domain_size=3, null_rate=0.1)
        arity = instance.arity
        levels: dict[int, list] = {}
        for lhs in range(1 << arity):
            rhs = [a for a in range(arity) if not lhs >> a & 1]
            if rhs:
                levels.setdefault(lhs.bit_count(), []).append((lhs, rhs))
        shared = export_encoding(instance.encoded(True))
        try:
            swept = _record_sweeps(monkeypatch)
            for size in sorted(levels):
                validate_shard({"handle": shared.handle, "items": levels[size]})
            evictions = attached_cache(shared.handle).stats.evictions
        finally:
            reset_worker_caches()
            shared.close()
        _assert_frontier_only(swept)
        assert len(swept) == sum(len(items) for items in levels.values())
        assert evictions > 0

    @pytest.mark.parametrize("null_equals_null", [True, False])
    @pytest.mark.parametrize("seed", [3, 17, 40])
    def test_hyfd_matches_bruteforce(self, monkeypatch, seed, null_equals_null):
        from repro.discovery.bruteforce import BruteForceFD
        from repro.discovery.hyfd import HyFD
        from repro.discovery.hyfd import hyfd as hyfd_module
        from tests.helpers import canon_fds

        monkeypatch.setattr(hyfd_module, "ALL_PAIRS_BUDGET", 0)
        instance = random_instance(seed, 7, 30, domain_size=3, null_rate=0.2)
        expected = canon_fds(BruteForceFD(null_equals_null).discover(instance))
        algo = HyFD(null_equals_null, workers=1)
        assert canon_fds(algo.discover(instance)) == expected


class TestNullSemanticsThroughStack:
    """null_equals_null=False exercised end to end on hostile columns."""

    def _instance_with(self, columns):
        from repro.model.instance import RelationInstance
        from repro.model.schema import Relation

        names = tuple(f"c{i}" for i in range(len(columns)))
        return RelationInstance(Relation("nulls", names), columns)

    def test_all_null_column_probes_and_partitions(self):
        instance = self._instance_with(
            [[None, None, None], ["x", "x", "y"]]
        )
        cache = PLICache(instance, null_equals_null=False)
        assert len(set(cache.probe(0))) == 3
        assert cache.get(0b01).is_unique
        assert signature(cache.get(0b10)) == {frozenset({0, 1})}
        assert cache.get(0b11).is_unique

    def test_all_null_column_agree_sets(self):
        instance = self._instance_with([[None, None], [None, "v"]])
        eq_cache = PLICache(instance, null_equals_null=True)
        ne_cache = PLICache(instance, null_equals_null=False)
        assert eq_cache.agree_set(0, 1) == 0b01
        assert ne_cache.agree_set(0, 1) == 0

    def test_single_non_null_value_partitions(self):
        instance = self._instance_with([[None, "only", None, "only"]])
        eq_cache = PLICache(instance, null_equals_null=True)
        assert signature(eq_cache.get(0b1)) == {
            frozenset({1, 3}),
            frozenset({0, 2}),
        }
        ne_cache = PLICache(instance, null_equals_null=False)
        assert signature(ne_cache.get(0b1)) == {frozenset({1, 3})}

    def test_hyfd_on_all_null_column(self):
        from repro.discovery.bruteforce import BruteForceFD
        from repro.discovery.hyfd import HyFD
        from tests.helpers import canon_fds

        instance = self._instance_with(
            [[None] * 6, ["a", "a", "b", "b", "c", "c"], [None, "v"] * 3]
        )
        for nen in (True, False):
            expected = canon_fds(
                BruteForceFD(null_equals_null=nen).discover(instance)
            )
            got = canon_fds(HyFD(null_equals_null=nen).discover(instance))
            assert got == expected
