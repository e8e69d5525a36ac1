"""Shrinker tests: minimization quality and repro emission."""

import pytest

from repro.datagen.random_tables import random_instance
from repro.model.instance import RelationInstance
from repro.model.schema import Relation
from repro.verification.shrinker import shrink_instance, to_pytest_repro


def _has_marker(instance: RelationInstance) -> bool:
    return any(
        value == "MARKER"
        for column in instance.columns_data
        for value in column
    )


class TestShrink:
    def test_single_marker_row_and_column_survive(self):
        instance = RelationInstance(
            Relation("t", ("a", "b", "c", "d")),
            [
                [0, 1, 2, 3, 4, 5],
                [0, 0, "MARKER", 0, 0, 0],
                [9, 9, 9, 9, 9, 9],
                [7, 7, 7, 7, 7, 7],
            ],
        )
        shrunk = shrink_instance(instance, _has_marker)
        assert shrunk.arity == 1
        assert shrunk.num_rows == 1
        assert shrunk.columns == ("b",)
        assert [list(column) for column in shrunk.columns_data] == [["MARKER"]]

    def test_interacting_rows_kept(self):
        # failure needs two distinct values in column a: minimal = 2 rows
        predicate = lambda inst: len(set(inst.column(0))) >= 2  # noqa: E731
        instance = random_instance(3, 3, 20, domain_size=4)
        shrunk = shrink_instance(instance, predicate)
        assert shrunk.num_rows == 2
        assert shrunk.arity == 1

    def test_initial_predicate_must_hold(self):
        instance = random_instance(0, 2, 4)
        with pytest.raises(ValueError, match="does not hold"):
            shrink_instance(instance, lambda inst: False)

    def test_budget_exhaustion_returns_best_so_far(self):
        instance = random_instance(1, 4, 30, domain_size=2)
        shrunk = shrink_instance(
            instance, lambda inst: inst.num_rows >= 1, max_evaluations=5
        )
        # not fully minimal, but valid and no larger than the input
        assert shrunk.num_rows <= instance.num_rows
        assert shrunk.arity <= instance.arity


class TestReproEmission:
    def test_emitted_module_executes(self):
        instance = RelationInstance(
            Relation("shrunk", ("x", "y")), [[1, None], ["a", "b"]]
        )
        source = to_pytest_repro(
            instance,
            "instance.num_rows > 99",  # falsy: the emitted assert passes
            comment="demo repro",
        )
        namespace: dict = {}
        exec(compile(source, "<repro>", "exec"), namespace)
        namespace["test_shrunk_repro"]()  # must not raise

    def test_emitted_module_fails_while_bug_reproduces(self):
        instance = RelationInstance(Relation("shrunk", ("x",)), [[1, 2]])
        source = to_pytest_repro(instance, "instance.num_rows == 2")
        namespace: dict = {}
        exec(compile(source, "<repro>", "exec"), namespace)
        with pytest.raises(AssertionError):
            namespace["test_shrunk_repro"]()

    def test_repro_contains_instance_literal_and_comment(self):
        instance = RelationInstance(
            Relation("r", ("only",)), [[None, "v"]]
        )
        source = to_pytest_repro(
            instance,
            "False",
            imports=("import math",),
            test_name="test_custom_name",
            comment="seed 7",
        )
        assert "Relation('r', ('only',))" in source
        assert "[None, 'v']" in source
        assert "# seed 7" in source
        assert "import math" in source
        assert "def test_custom_name():" in source
