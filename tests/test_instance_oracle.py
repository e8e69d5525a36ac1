"""Every statistic a :class:`RelationInstance` answers, against a
reference that scans the decoded rows.

The references below recompute each statistic from ``iter_rows()``
alone, value by value, the way the list-backed instance once did: a
dictionary loop for the encodings, ``str`` lengths for the value
score, value-tuple sets for distinct counts, a cell scan for NULLs and
DDL types.  Every way of building an instance is covered: ``from_rows``,
``read_csv``, ``rename``, R1 and R2 projections, ``append_rows`` and a
``LiveRelation`` snapshot after inserts and deletes.
"""

from __future__ import annotations

import csv
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.incremental.structures import LiveRelation
from repro.io.csv_io import read_csv
from repro.io.datasets import (
    address_example,
    denormalized_university,
    planets_example,
)
from repro.io.ddl import _infer_type
from repro.model.attributes import bits_of
from repro.model.instance import RelationInstance
from repro.model.schema import Relation


# ----------------------------------------------------------------------
# Value-scanning references
# ----------------------------------------------------------------------
def ref_columns(instance: RelationInstance) -> list[list]:
    rows = list(instance.iter_rows())
    return [[row[i] for row in rows] for i in range(instance.arity)]


def ref_encode(column: list, null_equals_null: bool) -> tuple[list[int], int, int | None]:
    """First-occurrence ids; NULLs share one id or each get a fresh one."""
    ids: dict = {}
    codes: list[int] = []
    next_id = 0
    null_code = None
    for value in column:
        if value is None:
            if null_equals_null:
                if null_code is None:
                    null_code = next_id
                    next_id += 1
                codes.append(null_code)
            else:
                codes.append(next_id)
                next_id += 1
            continue
        if value not in ids:
            ids[value] = next_id
            next_id += 1
        codes.append(ids[value])
    return codes, next_id, null_code


def ref_max_value_length(columns: list[list], mask: int) -> int:
    picked = [columns[i] for i in bits_of(mask)]
    if not picked or not picked[0]:
        return 0
    return max(
        sum(len(str(value)) for value in row if value is not None)
        for row in zip(*picked)
    )


def ref_distinct_count(columns: list[list], num_rows: int, mask: int) -> int:
    picked = [columns[i] for i in bits_of(mask)]
    if not picked:
        return 1 if num_rows else 0
    return len(set(zip(*picked)))


def ref_has_null_in(columns: list[list], mask: int) -> bool:
    return any(value is None for i in bits_of(mask) for value in columns[i])


def ref_infer_type(column: list) -> str:
    values = [value for value in column if value is not None]

    def is_int(value) -> bool:
        if isinstance(value, bool):
            return False
        if isinstance(value, int):
            return True
        try:
            int(str(value))
        except ValueError:
            return False
        return True

    if values and all(is_int(value) for value in values):
        return "INTEGER"
    return "TEXT"


def assert_matches_reference(instance: RelationInstance) -> None:
    columns = ref_columns(instance)
    num_rows = instance.num_rows
    assert all(len(column) == num_rows for column in columns)
    for nen in (True, False):
        encoding = instance.encoded(nen)
        assert encoding.num_rows == num_rows
        assert encoding.null_equals_null is nen
        for attr, column in enumerate(columns):
            codes, cardinality, null_code = ref_encode(column, nen)
            assert list(encoding.codes[attr]) == codes
            assert encoding.cardinalities[attr] == cardinality
            assert encoding.null_codes[attr] == null_code
    null_mask = 0
    for attr in range(instance.arity):
        if ref_has_null_in(columns, 1 << attr):
            null_mask |= 1 << attr
    assert instance.null_mask() == null_mask
    for mask in range(1 << instance.arity):
        assert instance.has_null_in(mask) == ref_has_null_in(columns, mask)
        assert instance.max_value_length(mask) == ref_max_value_length(
            columns, mask
        )
        assert instance.distinct_count(mask) == ref_distinct_count(
            columns, num_rows, mask
        )
        picked = [columns[i] for i in bits_of(mask)]
        expected_rows = list(zip(*picked)) if picked else []
        assert list(instance.iter_projected_rows(mask)) == expected_rows
    for attr, name in enumerate(instance.columns):
        assert _infer_type(instance, name, "TEXT") == ref_infer_type(
            columns[attr]
        )


# ----------------------------------------------------------------------
# Every way of building an instance
# ----------------------------------------------------------------------
def _csv_bytes(instance: RelationInstance) -> bytes:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(instance.columns)
    for row in instance.iter_rows():
        writer.writerow(["" if value is None else value for value in row])
    return buffer.getvalue().encode("utf-8")


def derived_instances(instance: RelationInstance) -> dict[str, RelationInstance]:
    """``instance`` and everything derived from it, by construction path."""
    rows = list(instance.iter_rows())
    arity = instance.arity
    relation = Relation(instance.name, instance.columns)
    out = {
        "from_rows": RelationInstance.from_rows(relation, rows),
        "read_csv": read_csv(_csv_bytes(instance), name=instance.name),
        "rename": instance.rename("renamed"),
    }
    low = (1 << max(1, arity - 1)) - 1 if arity > 1 else 1
    high = ((1 << arity) - 1) & ~1 if arity > 1 else 1
    for label, mask in (("low", low), ("high", high)):
        out[f"r1_{label}"] = instance.project(mask, name="r1")
        out[f"r2_{label}"] = instance.project(mask, name="r2", dedup=True)
    appended = instance.rename("appended")
    appended.append_rows(rows[:3] + [tuple(None for _ in range(arity))])
    out["append_rows"] = appended
    grown = instance.project(low, name="grown", dedup=True)
    grown.append_rows([row[: grown.arity] for row in rows[-2:]])
    out["append_rows_r2"] = grown
    live = LiveRelation(instance)
    if rows:
        live.insert_rows(rows[:2] + [tuple(None for _ in range(arity))])
        live.delete_ids(live.row_ids[: max(1, len(live.row_ids) // 3)])
        live.insert_rows(rows[-1:])
    out["live_snapshot"] = live.snapshot_instance()
    return out


def _nullable_address() -> RelationInstance:
    base = address_example()
    columns = [list(column) for column in base.columns_data]
    columns[0][1] = None
    columns[2][0] = None
    columns[2][3] = None
    return RelationInstance(base.relation, columns)


FIXTURES = {
    "address": address_example,
    "nullable_address": _nullable_address,
    "planets": planets_example,
    "university": denormalized_university,
}


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
def test_fixture_statistics_match_reference(fixture):
    base = FIXTURES[fixture]()
    assert_matches_reference(base)
    for label, instance in derived_instances(base).items():
        try:
            assert_matches_reference(instance)
        except AssertionError as error:  # pragma: no cover - diagnostics
            raise AssertionError(f"{fixture}/{label}: {error}") from error


_CELLS = st.one_of(
    st.none(),
    st.sampled_from(["a", "bb", "ccc", "7", "12", "x y", "007"]),
    st.integers(min_value=-3, max_value=12),
)


@st.composite
def _instances(draw, csv_safe: bool):
    arity = draw(st.integers(min_value=1, max_value=4))
    cells = _CELLS
    if csv_safe:
        cells = st.one_of(
            st.none(), st.sampled_from(["a", "bb", "ccc", "7", "12", "x y"])
        )
    rows = draw(
        st.lists(st.tuples(*[cells] * arity), min_size=0, max_size=12)
    )
    columns = tuple(f"c{i}" for i in range(arity))
    return RelationInstance.from_rows(Relation("h", columns), rows)


@given(_instances(csv_safe=False))
@settings(max_examples=40, deadline=None)
def test_random_instances_match_reference(instance):
    assert_matches_reference(instance)
    for label, derived in derived_instances(instance).items():
        if label == "read_csv":
            continue  # CSV cells come back as text; checked below
        assert_matches_reference(derived)


@given(_instances(csv_safe=True))
@settings(max_examples=25, deadline=None)
def test_random_csv_round_trips_match_reference(instance):
    assert_matches_reference(derived_instances(instance)["read_csv"])


# ----------------------------------------------------------------------
# One storage form
# ----------------------------------------------------------------------
def assert_codes_only(instance: RelationInstance) -> None:
    """Codes in ``array('i')`` vectors plus one table entry per id: no
    per-cell Python list anywhere in the instance."""
    from array import array

    encoding = instance.encoded()
    for codes, table, cardinality in zip(
        encoding.codes, encoding.tables, encoding.cardinalities
    ):
        assert isinstance(codes, array) and codes.typecode == "i"
        assert len(table) == cardinality
    for slot in type(instance).__slots__:
        assert not isinstance(getattr(instance, slot), list)
    assert isinstance(instance.columns_data, tuple)
    with pytest.raises(TypeError):
        instance.columns_data[0] = []


def test_results_and_served_snapshots_store_no_cell_lists():
    from repro.core.normalize import Normalizer
    from repro.incremental import ChangeBatch, IncrementalNormalizer

    university = denormalized_university()
    result = Normalizer().run(university)
    assert len(result.instances) > 1
    for instance in (university, *result.instances.values()):
        assert_codes_only(instance)
    engine = IncrementalNormalizer(university)
    rows = list(university.iter_rows())
    engine.apply_batch(ChangeBatch(inserts=rows[:2], deletes=(0, 3)))
    live = engine.live(university.name)
    assert_codes_only(live.snapshot_instance())
    for instance in engine.result.instances.values():
        assert_codes_only(instance)


def test_values_equal_across_types_decode_to_the_first_seen():
    # 1, 1.0 and True compare (and hash) equal, so discovery has always
    # given them one id; the instance now also decodes all three to the
    # first of them.  A CSV cannot produce this: every cell is a str.
    instance = RelationInstance.from_rows(
        Relation("t", ("a", "b")), [(1, "x"), (1.0, "y"), (True, "z")]
    )
    assert list(instance.encoded().codes[0]) == [0, 0, 0]
    assert list(instance.column("a")) == [1, 1, 1]
    assert all(type(value) is int for value in instance.column("a"))
    assert instance.decode_table("a") == [1]
    assert _infer_type(instance, "a", "TEXT") == "INTEGER"


def test_appending_to_an_input_leaves_its_results_unchanged():
    from repro.core.normalize import normalize

    university = denormalized_university()
    result = normalize(university)
    before = {
        name: list(part.iter_rows()) for name, part in result.instances.items()
    }
    university.append_rows([tuple("w" for _ in range(university.arity))])
    assert university.num_rows == len(before[university.name]) + 1
    assert {
        name: list(part.iter_rows()) for name, part in result.instances.items()
    } == before
