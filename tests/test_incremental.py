"""Tests for the dynamic-data constraint monitor extension."""

import pytest

from repro.core.normalize import normalize
from repro.incremental import ConstraintMonitor
from repro.io.csv_io import read_csv


@pytest.fixture()
def monitor(address):
    result = normalize(address, algorithm="bruteforce")
    return ConstraintMonitor(result), result


def _relation_by_columns(result, columns):
    for name, instance in result.instances.items():
        if set(instance.columns) == set(columns):
            return name, instance
    raise AssertionError(f"no relation with columns {columns}")


class TestCheckInsert:
    def test_clean_insert(self, monitor):
        mon, result = monitor
        name, _ = _relation_by_columns(result, {"Postcode", "City", "Mayor"})
        violations = mon.check_insert(name, [("10115", "Berlin", "Giffey")])
        assert violations == []

    def test_duplicate_primary_key(self, monitor):
        mon, result = monitor
        name, _ = _relation_by_columns(result, {"Postcode", "City", "Mayor"})
        violations = mon.check_insert(name, [("14482", "Potsdam2", "X")])
        assert len(violations) == 1
        assert violations[0].kind == "primary-key"

    def test_duplicate_within_batch(self, monitor):
        mon, result = monitor
        name, _ = _relation_by_columns(result, {"Postcode", "City", "Mayor"})
        rows = [("99999", "A", "B"), ("99999", "C", "D")]
        violations = mon.check_insert(name, rows)
        assert any(v.kind == "primary-key" for v in violations)

    def test_null_in_key(self, monitor):
        mon, result = monitor
        name, _ = _relation_by_columns(result, {"Postcode", "City", "Mayor"})
        violations = mon.check_insert(name, [(None, "A", "B")])
        assert violations[0].kind == "null-key"

    def test_dangling_foreign_key(self, monitor):
        mon, result = monitor
        name, _ = _relation_by_columns(result, {"First", "Last", "Postcode"})
        violations = mon.check_insert(name, [("New", "Person", "00000")])
        assert any(v.kind == "foreign-key" for v in violations)

    def test_valid_foreign_key(self, monitor):
        mon, result = monitor
        name, _ = _relation_by_columns(result, {"First", "Last", "Postcode"})
        violations = mon.check_insert(name, [("New", "Person", "14482")])
        assert violations == []

    def test_unknown_relation(self, monitor):
        mon, _ = monitor
        with pytest.raises(KeyError):
            mon.check_insert("nope", [])

    def test_wrong_width(self, monitor):
        mon, result = monitor
        name, _ = _relation_by_columns(result, {"Postcode", "City", "Mayor"})
        with pytest.raises(ValueError, match="width"):
            mon.check_insert(name, [("x",)])


class TestApply:
    def test_apply_inserts(self, monitor):
        mon, result = monitor
        name, instance = _relation_by_columns(
            result, {"Postcode", "City", "Mayor"}
        )
        before = instance.num_rows
        mon.apply(name, [("10115", "Berlin", "Giffey")])
        assert instance.num_rows == before + 1
        # the new key now blocks duplicates
        violations = mon.check_insert(name, [("10115", "X", "Y")])
        assert violations and violations[0].kind == "primary-key"

    def test_apply_refuses_violations(self, monitor):
        mon, result = monitor
        name, _ = _relation_by_columns(result, {"Postcode", "City", "Mayor"})
        with pytest.raises(ValueError, match="refusing"):
            mon.apply(name, [("14482", "Potsdam2", "X")])


class TestUniversalRouting:
    def test_consistent_row_routes_cleanly(self, monitor):
        mon, _ = monitor
        # an entirely new person in an existing city: consistent
        row = ("Nora", "Klein", "14482", "Potsdam", "Jakobs")
        assert mon.route_universal_row("address", row) == []

    def test_fd_violation_detected(self, monitor):
        mon, _ = monitor
        # 14482 now claims a different mayor -> the discovered FD
        # Postcode -> Mayor no longer holds for the new data.
        row = ("Nora", "Klein", "14482", "Potsdam", "Schmidt")
        violations = mon.route_universal_row("address", row)
        assert len(violations) == 1
        assert violations[0].kind == "functional-dependency"

    def test_apply_routes_into_all_relations(self, monitor):
        mon, result = monitor
        row = ("Nora", "Klein", "10115", "Berlin", "Giffey")
        assert mon.route_universal_row("address", row, apply=True) == []
        people = _relation_by_columns(result, {"First", "Last", "Postcode"})[1]
        cities = _relation_by_columns(result, {"Postcode", "City", "Mayor"})[1]
        assert ("Nora", "Klein", "10115") in set(people.iter_rows())
        assert ("10115", "Berlin", "Giffey") in set(cities.iter_rows())

    def test_existing_dimension_row_not_duplicated(self, monitor):
        mon, result = monitor
        cities = _relation_by_columns(result, {"Postcode", "City", "Mayor"})[1]
        before = cities.num_rows
        row = ("Nora", "Klein", "14482", "Potsdam", "Jakobs")
        mon.route_universal_row("address", row, apply=True)
        assert cities.num_rows == before  # 14482 already present

    def test_unknown_original(self, monitor):
        mon, _ = monitor
        with pytest.raises(KeyError):
            mon.route_universal_row("nope", ())

    def test_wrong_width(self, monitor):
        mon, _ = monitor
        with pytest.raises(ValueError, match="width"):
            mon.route_universal_row("address", ("x",))

    def test_violating_row_not_applied(self, monitor):
        mon, result = monitor
        cities = _relation_by_columns(result, {"Postcode", "City", "Mayor"})[1]
        before = cities.num_rows
        row = ("Nora", "Klein", "14482", "Potsdam", "Schmidt")
        violations = mon.route_universal_row("address", row, apply=True)
        assert violations
        assert cities.num_rows == before


class TestMultiOriginalRouting:
    def test_rows_route_only_to_own_fragments(self, address):
        from repro.io.datasets import denormalized_university

        university = denormalized_university()
        result = normalize([address, university], algorithm="bruteforce")
        monitor = ConstraintMonitor(result)
        # a new address row must not touch university fragments
        row = ("Nora", "Klein", "10115", "Berlin", "Giffey")
        assert monitor.route_universal_row("address", row, apply=True) == []
        for name, instance in result.instances.items():
            if "name" in instance.columns:  # a university fragment
                assert "Nora" not in {
                    v for col in instance.columns_data for v in col
                }

    def test_university_row_routes(self, address):
        from repro.io.datasets import denormalized_university

        university = denormalized_university()
        result = normalize([address, university], algorithm="bruteforce")
        monitor = ConstraintMonitor(result)
        row = ("Lovelace", "INF9", "Informatics", "90000", "H9", "Fri")
        assert monitor.route_universal_row("university", row) == []


class TestCopyOnWrite:
    """Result instances share storage with the input; writes must not."""

    @staticmethod
    def _snapshot(instance):
        return [list(column) for column in instance.columns_data], instance.num_rows

    def test_conform_csv_input_is_never_written(self):
        source = read_csv(b"k,v\n1,a\n2,b\n3,a\n", name="kv")
        before = self._snapshot(source)
        result = normalize(source)
        assert not result.steps  # already BCNF: the result is the input, renamed
        monitor = ConstraintMonitor(result)
        monitor.apply("kv", [("4", "c")])
        assert monitor.route_universal_row("kv", ("5", "d"), apply=True) == []
        assert result.instances["kv"].num_rows == 5
        assert self._snapshot(source) == before

    def test_decomposed_list_input_is_never_written(self, address):
        before = self._snapshot(address)
        result = normalize(address, algorithm="bruteforce")
        r1 = result.instances["address"]  # R1 keeps the parent's name
        assert result.steps and r1.arity < address.arity
        monitor = ConstraintMonitor(result)
        monitor.apply("address", [("New", "Person", "14482")])
        row = ("Nora", "Klein", "10115", "Berlin", "Giffey")
        assert monitor.route_universal_row("address", row, apply=True) == []
        assert r1.num_rows == address.num_rows + 2
        assert self._snapshot(address) == before

    def test_shared_encodings_refuse_extend(self, address):
        address.encoded()
        for view in (address.project(0b00111), address.rename("copy")):
            encoding = view.encoded()
            with pytest.raises(ValueError, match="dictionaries"):
                encoding.extend([["x"]] * view.arity)
        assert address.encoded().num_rows == address.num_rows
