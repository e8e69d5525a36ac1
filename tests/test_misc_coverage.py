"""Targeted tests for smaller branches across the library."""

from repro.core.normalize import Normalizer, normalize
from repro.core.result import DecompositionStep
from repro.discovery.dfd import DFD
from repro.discovery.tane import Tane
from repro.structures.bloom import BloomFilter


class TestNormalizerVariants:
    def test_improved_closure_pipeline(self, address):
        result = normalize(
            address, algorithm="bruteforce", closure_algorithm="improved"
        )
        assert result.total_values == 27

    def test_naive_closure_pipeline(self, address):
        result = normalize(
            address, algorithm="bruteforce", closure_algorithm="naive"
        )
        assert result.total_values == 27

    def test_tane_instance_pipeline(self, address):
        result = normalize(address, algorithm=Tane())
        assert result.total_values == 27

    def test_dfd_instance_pipeline(self, address):
        result = normalize(address, algorithm=DFD(seed=1))
        assert result.total_values == 27

    def test_exact_distinct_pipeline(self, address):
        result = normalize(address, algorithm="bruteforce", exact_distinct=True)
        assert result.total_values == 27

    def test_max_lhs_size_forwarded(self, address):
        normalizer = Normalizer(algorithm="hyfd", max_lhs_size=2)
        assert normalizer.algorithm.max_lhs_size == 2

    def test_3nf_address(self, address):
        # the address example's violating FD splits no other LHS, so
        # 3NF and BCNF coincide here
        result = normalize(address, algorithm="bruteforce", target="3nf")
        assert result.total_values == 27


class TestBloomEdges:
    def test_with_capacity_zero_items(self):
        bloom = BloomFilter.with_capacity(0)
        bloom.add("x")
        assert "x" in bloom

    def test_minimum_bits_enforced(self):
        assert BloomFilter.with_capacity(1).num_bits >= 64


class TestResultRendering:
    def test_decomposition_step_to_str(self):
        step = DecompositionStep(
            parent="r",
            parent_columns=("a", "b", "c"),
            r1="r",
            r2="r_b",
            lhs=("b",),
            rhs=("c",),
            chosen_rank=0,
            num_candidates=3,
            score=0.75,
        )
        text = step.to_str()
        assert "r: split on b -> c" in text
        assert "rank 1/3" in text

    def test_result_without_steps(self, address):
        from repro.core.selection import ScriptedDecider

        result = normalize(
            address,
            algorithm="bruteforce",
            decider=ScriptedDecider(fd_choices=[None]),
        )
        text = result.to_str()
        assert "Decomposition log" not in text
        assert "values: 30 -> 30" in text


class TestCliErrorPaths:
    def test_load_fds_requires_single_file(self, tmp_path, capsys):
        from repro.cli import main
        from repro.io.csv_io import write_csv
        from repro.io.datasets import address_example, planets_example

        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_csv(address_example(), a)
        write_csv(planets_example(), b)
        assert main([str(a), str(b), "--load-fds", "whatever.json"]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_4nf_requires_single_file(self, tmp_path, capsys):
        from repro.cli import main
        from repro.io.csv_io import write_csv
        from repro.io.datasets import address_example, planets_example

        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_csv(address_example(), a)
        write_csv(planets_example(), b)
        assert main([str(a), str(b), "--target", "4nf"]) == 2
        assert "exactly one" in capsys.readouterr().err


class TestFourNFOptions:
    def test_lhs_bound_zero_only_considers_nothing(self):
        from repro.extensions.fournf import FourNFNormalizer
        from repro.model.instance import RelationInstance
        from repro.model.schema import Relation

        rows = [("t", "b", "s"), ("t", "b2", "s2")]
        instance = RelationInstance.from_rows(
            Relation("r", ("x", "y", "z")), rows
        )
        result = FourNFNormalizer(
            algorithm="bruteforce", max_mvd_lhs_size=0
        ).run(instance)
        # with LHS bound 0 only empty-LHS MVDs exist, and those are
        # skipped by design -> no MVD steps
        assert result.mvd_steps == []


class TestSchemaColumnsSubset:
    def test_helper(self):
        from repro.model.schema import columns_subset

        assert columns_subset(("a", "b", "c"), 0b101) == ("a", "c")
