"""Component-level tests for HyFD's sampler, induction, and validation."""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.datagen.random_tables import random_instance
from repro.discovery.bruteforce import distinct_agree_sets
from repro.discovery.hyfd import HyFD
from repro.discovery.hyfd import hyfd as hyfd_module
from repro.discovery.hyfd.induction import (
    apply_agree_set,
    build_positive_cover,
    specialize,
)
from repro.discovery.hyfd import sampler as sampler_module
from repro.discovery.hyfd.sampler import Sampler
from repro.discovery.hyfd.validation import validate_tree
from repro.model.attributes import iter_bits
from repro.model.instance import RelationInstance
from repro.model.schema import Relation
from repro.runtime.governor import Governor, activate, checkpoint
from repro.structures.fdtree import FDTree
from repro.structures.partitions import PLICache
from repro.verification.planted import plant_instance


class TestSampler:
    def test_negative_cover_only_contains_true_agree_sets(self):
        instance = random_instance(3, 4, 20, domain_size=2)
        cache = PLICache(instance)
        sampler = Sampler(instance, cache)
        sampler.initial_rounds()
        truth = set(distinct_agree_sets(instance))
        # duplicate-row pairs agree on everything; that full agree set
        # refutes nothing and is excluded by distinct_agree_sets
        full = instance.full_mask()
        assert sampler.negative_cover - {full} <= truth

    def test_exhaustion_on_tiny_input(self):
        instance = random_instance(1, 2, 3, domain_size=1)
        sampler = Sampler(instance, PLICache(instance))
        rounds = 0
        while not sampler.exhausted and rounds < 100:
            sampler.next_round()
            rounds += 1
        assert sampler.exhausted

    def test_compare_deduplicates(self):
        instance = random_instance(2, 3, 6, domain_size=1)  # all rows equal
        sampler = Sampler(instance, PLICache(instance))
        # all-equal rows agree on everything -> full agree set is still
        # recorded as evidence the first time, None afterwards
        first = sampler.compare(0, 1)
        second = sampler.compare(2, 3)
        assert (first is None) or (second is None)

    def test_comparisons_counted(self):
        instance = random_instance(4, 3, 15, domain_size=2)
        sampler = Sampler(instance, PLICache(instance))
        sampler.initial_rounds()
        assert sampler.comparisons > 0


class _ListSampler:
    """The list-of-lists sampler the CSR one replaced, kept as its oracle.

    Clusters are Python lists sorted by the full record, and every
    pair's agree set comes from the scalar ``EncodedRelation.agree_set``
    whatever the kernel backend.
    """

    def __init__(self, instance, cache):
        self.arity = instance.arity
        self._encoding = cache.encoding
        self._probes = self._encoding.codes
        self._clusters = [
            [
                sorted(cluster, key=self._record_key)
                for cluster in cache.get(1 << attr).iter_clusters()
            ]
            for attr in range(self.arity)
        ]
        self.negative_cover = set()
        self._distances = [0] * self.arity
        self._queue = [(-1.0, attr) for attr in range(self.arity)]
        heapq.heapify(self._queue)
        self.comparisons = 0

    def _record_key(self, row):
        return tuple(probe[row] for probe in self._probes)

    def compare(self, left, right):
        self.comparisons += 1
        agree = self._encoding.agree_set(left, right)
        if agree in self.negative_cover:
            return None
        self.negative_cover.add(agree)
        return agree

    def _run_window(self, attr, distance):
        compared = 0
        fresh = []
        for cluster in self._clusters[attr]:
            checkpoint("hyfd-sample", units=max(len(cluster) - distance, 1))
            for index in range(len(cluster) - distance):
                compared += 1
                agree = self.compare(cluster[index], cluster[index + distance])
                if agree is not None:
                    fresh.append(agree)
        return compared, fresh

    @property
    def exhausted(self):
        return not self._queue

    def next_round(self):
        if not self._queue:
            return []
        _, attr = heapq.heappop(self._queue)
        self._distances[attr] += 1
        distance = self._distances[attr]
        largest = max((len(c) for c in self._clusters[attr]), default=0)
        compared, fresh = self._run_window(attr, distance)
        if distance < largest - 1:
            efficiency = len(fresh) / compared if compared else 0.0
            heapq.heappush(self._queue, (-efficiency, attr))
        return fresh


class _TickLog:
    """Fault-plan hook that records every governor tick."""

    def __init__(self):
        self.calls = []

    def on_tick(self, governor, stage):
        self.calls.append((stage, governor.ticks))


def _unique_and_constant():
    rows = [(index, "k", index % 3) for index in range(12)]
    return RelationInstance.from_rows(Relation("t", ("id", "k", "v")), rows)


ORACLE_CASES = {
    "planted_3": lambda: plant_instance(3, 6, 60, null_rate=0.1).instance,
    "planted_8": lambda: plant_instance(
        8, 5, 90, null_rate=0.2, max_domain=6
    ).instance,
    "zero_rows": lambda: random_instance(1, 3, 0),
    "one_row": lambda: random_instance(1, 3, 1),
    "unique_and_constant": _unique_and_constant,
    "wide_70": lambda: random_instance(5, 70, 40, domain_size=3, null_rate=0.1),
}

#: rounds compared per case (the small cases exhaust long before)
MAX_ORACLE_ROUNDS = 150


def _assert_matches_list_sampler(backend, null_equals_null, case):
    kernels.set_backend(backend)
    try:
        instance = ORACLE_CASES[case]()
        cache = PLICache(instance, null_equals_null=null_equals_null)
        sides = []
        for cls in (_ListSampler, Sampler):
            log = _TickLog()
            governor = Governor(fault_plan=log)
            with activate(governor):
                sides.append((cls(instance, cache), governor, log))
        (expected, expected_gov, expected_log), (got, got_gov, got_log) = sides
        for _ in range(MAX_ORACLE_ROUNDS):
            with activate(expected_gov):
                fresh_expected = expected.next_round()
            with activate(got_gov):
                fresh_got = got.next_round()
            assert fresh_got == fresh_expected
            assert got.negative_cover == expected.negative_cover
            assert got.comparisons == expected.comparisons
            assert got._distances == expected._distances
            assert got._queue == expected._queue
            assert got_gov.ticks == expected_gov.ticks
            assert got_log.calls == expected_log.calls
            if expected.exhausted:
                break
        assert got.exhausted == expected.exhausted
    finally:
        kernels.set_backend(None)


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
@pytest.mark.parametrize("null_equals_null", [True, False])
@pytest.mark.parametrize("backend", ["python", "numpy"])
def test_csr_sampler_matches_list_sampler(
    monkeypatch, backend, null_equals_null, case
):
    if backend == "numpy":
        if not kernels.numpy_available():
            pytest.skip("numpy not installed")
        # Vectorize even these small relations and windows, or the
        # registry would send them to the python path.
        monkeypatch.setattr(kernels, "SMALL_INPUT_THRESHOLD", 0)
    _assert_matches_list_sampler(backend, null_equals_null, case)


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
@pytest.mark.parametrize("null_equals_null", [True, False])
def test_csr_sampler_matches_list_sampler_in_small_chunks(
    monkeypatch, null_equals_null, case
):
    """The vectorized window walked in chunks of a few positions, so
    every window of the larger cases spans several chunks and most
    clusters straddle a chunk boundary."""
    if not kernels.numpy_available():
        pytest.skip("numpy not installed")
    monkeypatch.setattr(kernels, "SMALL_INPUT_THRESHOLD", 0)
    monkeypatch.setattr(sampler_module, "CHUNK_POSITIONS", 7)
    _assert_matches_list_sampler("numpy", null_equals_null, case)


class TestInduction:
    def test_initial_cover_is_most_general(self):
        tree = build_positive_cover(3, [])
        assert dict(tree.iter_all()) == {0: 0b111}

    def test_agree_set_specializes(self):
        # pair agrees exactly on {A}: refutes {} -> B and {} -> C.
        tree = build_positive_cover(3, [0b001])
        fds = dict(tree.iter_all())
        # {} -> A survives; B and C candidates move to LHS {B}/{C} etc.
        assert fds.get(0, 0) == 0b001
        assert tree.contains_fd(0b010, 2)  # {B} -> C candidate
        assert tree.contains_fd(0b100, 1)  # {C} -> B candidate

    def test_specialize_respects_generalizations(self):
        tree = FDTree(3)
        tree.add(0b010, 0b100)  # {B} -> C
        # specializing {} -> C with agree {A} must not add {B} -> C twice
        specialize(tree, 0, 2, 0b001)
        level2 = list(tree.iter_level(2))
        assert level2 == []

    def test_max_lhs_pruning_drops_large_candidates(self):
        tree = FDTree(4)
        tree.add(0b0011, 0b0100)
        removed = apply_agree_set(tree, 0b1011, max_lhs_size=2)
        assert removed == 1
        # the only legal extension attribute is outside the agree set:
        # none exists below the bound, so nothing may exceed LHS size 2.
        for lhs, _ in tree.iter_all():
            assert lhs.bit_count() <= 2

    def test_antichain_invariant_random(self):
        instance = random_instance(11, 5, 20, domain_size=2)
        agree_sets = distinct_agree_sets(instance)
        tree = build_positive_cover(5, agree_sets)
        stored = list(tree.iter_all())
        for lhs, rhs in stored:
            for other_lhs, other_rhs in stored:
                if other_lhs != lhs and other_lhs & ~lhs == 0:
                    assert not (rhs & other_rhs), "generalization stored twice"


class TestValidation:
    @given(
        st.integers(min_value=0, max_value=50_000),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=18),
    )
    @settings(max_examples=20)
    def test_validation_from_empty_cover_equals_oracle(self, seed, cols, rows):
        """Even with no sampling evidence, validation alone is exact."""
        from repro.discovery.bruteforce import BruteForceFD
        from tests.helpers import canon_fds

        instance = random_instance(seed, cols, rows, domain_size=2)
        cache = PLICache(instance)
        tree = build_positive_cover(cols, [])
        validate_tree(tree, cache, sampler=None)
        got = {
            (lhs, attr)
            for lhs, rhs in tree.iter_all()
            for attr in range(cols)
            if rhs >> attr & 1
        }
        assert got == canon_fds(BruteForceFD().discover(instance))

    def test_switch_threshold_zero_forces_sampling(self):
        instance = random_instance(5, 4, 25, domain_size=2)
        cache = PLICache(instance)
        sampler = Sampler(instance, cache)
        tree = build_positive_cover(4, [])
        # threshold 0 switches on any failure until the sampler drains.
        validate_tree(tree, cache, sampler=sampler, switch_threshold=0.0)
        from repro.discovery.bruteforce import BruteForceFD
        from tests.helpers import canon_fds

        got = {
            (lhs, attr)
            for lhs, rhs in tree.iter_all()
            for attr in range(4)
            if rhs >> attr & 1
        }
        assert got == canon_fds(BruteForceFD().discover(instance))


class TestAllPairs:
    """Below ``ALL_PAIRS_BUDGET`` HyFD compares every row pair and
    inducts the cover from them; nothing is sampled or validated."""

    @staticmethod
    def _spy_sampler(monkeypatch):
        built = []
        original = Sampler.__init__

        def init(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(Sampler, "__init__", init)
        return built

    @pytest.mark.parametrize("max_lhs_size", [None, 2])
    @pytest.mark.parametrize("null_equals_null", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cover_equals_validation_in_iteration_order(
        self, monkeypatch, seed, null_equals_null, max_lhs_size
    ):
        instance = random_instance(seed, 7, 40, domain_size=3, null_rate=0.15)
        built = self._spy_sampler(monkeypatch)

        def discover():
            return list(
                HyFD(
                    null_equals_null=null_equals_null, max_lhs_size=max_lhs_size
                ).discover(instance).items()
            )

        pairs = discover()
        assert built == []
        monkeypatch.setattr(hyfd_module, "ALL_PAIRS_BUDGET", 0)
        validated = discover()
        assert len(built) == 1
        assert pairs == validated

    def test_pair_path_runs_only_below_the_budget(self, monkeypatch):
        # The budget counts rows per column: at 4, a 3-column relation
        # compares all pairs up to 11 rows.
        monkeypatch.setattr(hyfd_module, "ALL_PAIRS_BUDGET", 4)
        built = self._spy_sampler(monkeypatch)
        HyFD().discover(random_instance(4, 3, 11, domain_size=2))
        assert built == []
        HyFD().discover(random_instance(4, 3, 12, domain_size=2))
        assert len(built) == 1

    def test_one_checkpoint_per_row_under_its_own_label(self):
        instance = random_instance(6, 5, 30, domain_size=3)
        log = _TickLog()
        with activate(Governor(fault_plan=log)):
            algorithm = HyFD()
            algorithm.discover(instance)
        pair_ticks = [ticks for stage, ticks in log.calls if stage == "hyfd-pairs"]
        # ticks grow by the row's pair count: 29, 28, ..., 1
        assert len(pair_ticks) == 29
        assert [b - a for a, b in zip(pair_ticks, pair_ticks[1:])] == list(
            range(28, 0, -1)
        )
        assert algorithm.last_cache_stats.as_dict() == {
            "pli_hits": 0,
            "pli_misses": 0,
            "pli_evictions": 0,
        }

    def test_breach_mid_pass_attaches_the_induced_cover(self):
        """The partial is the cover induced from the rows compared so
        far: inexact, yet it generalizes every FD of the exact cover."""
        from repro.runtime.errors import BudgetExceeded
        from repro.runtime.faults import FaultPlan

        instance = random_instance(8, 6, 40, domain_size=3)
        exact = HyFD().discover(instance)
        plan = FaultPlan(mode="timeout", at_tick=300, stage="hyfd-pairs")
        with activate(Governor(fault_plan=plan)):
            with pytest.raises(BudgetExceeded) as excinfo:
                HyFD().discover(instance)
        assert plan.fired
        partial = excinfo.value.partial
        assert not excinfo.value.partial_exact
        assert dict(partial.items()) != dict(exact.items())
        for lhs, rhs in exact.items():
            for attr in iter_bits(rhs):
                assert any(
                    general & ~lhs == 0 and general_rhs >> attr & 1
                    for general, general_rhs in partial.items()
                ), (lhs, attr)
