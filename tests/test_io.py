"""Tests for CSV I/O, bundled datasets, and DDL export."""

import csv

import pytest

from repro.io import csv_io
from repro.io.csv_io import read_csv, write_csv
from repro.io.datasets import (
    address_example,
    denormalized_university,
    planets_example,
)
from repro.io.ddl import schema_to_ddl
from repro.model.instance import RelationInstance
from repro.model.schema import ForeignKey, Relation, Schema
from tests.helpers import assert_encodings_identical


class TestCsvRoundTrip:
    def test_roundtrip(self, tmp_path):
        instance = address_example()
        path = tmp_path / "address.csv"
        write_csv(instance, path)
        back = read_csv(path)
        assert back.columns == instance.columns
        assert list(back.iter_rows()) == list(instance.iter_rows())

    def test_nulls_roundtrip_as_empty(self, tmp_path):
        instance = RelationInstance.from_rows(
            Relation("t", ("a", "b")), [("x", None), (None, "y")]
        )
        path = tmp_path / "t.csv"
        write_csv(instance, path)
        back = read_csv(path)
        assert list(back.iter_rows()) == [("x", None), (None, "y")]

    def test_empty_not_null_mode(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\nx,\n", encoding="utf-8")
        back = read_csv(path, empty_as_null=False)
        assert list(back.iter_rows()) == [("x", "")]

    def test_no_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("1,2\n3,4\n", encoding="utf-8")
        back = read_csv(path, has_header=False)
        assert back.columns == ("col_0", "col_1")
        assert back.num_rows == 2

    def test_name_defaults_to_stem(self, tmp_path):
        path = tmp_path / "mydata.csv"
        path.write_text("a\n1\n", encoding="utf-8")
        assert read_csv(path).name == "mydata"

    def test_custom_delimiter(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a;b\n1;2\n", encoding="utf-8")
        back = read_csv(path, delimiter=";")
        assert back.columns == ("a", "b")

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="expected 2 fields"):
            read_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match="empty"):
            read_csv(path)


class TestChunkedIngest:
    def test_streaming_read_csv_matches_classic(self, tmp_path, monkeypatch):
        base = denormalized_university()
        columns = [list(column) for column in base.columns_data]
        columns[1][2] = columns[1][5] = columns[4][0] = None
        path = tmp_path / "u.csv"
        write_csv(RelationInstance(base.relation, columns), path)
        # Oracle independent of the chunked encoder: parse every row up
        # front, then build the instance from one tuple per row.
        with open(path, newline="", encoding="utf-8-sig") as handle:
            header, *rows = csv.reader(handle)
        classic = RelationInstance.from_rows(
            Relation(path.stem, tuple(header)),
            [tuple(value or None for value in row) for row in rows],
        )
        # Three rows per chunk: the 8 rows and their NULLs span chunks.
        monkeypatch.setattr(csv_io, "CHUNK_ROWS", 3)
        streamed = read_csv(path)
        assert streamed.columns == classic.columns
        assert [list(c) for c in streamed.columns_data] == [
            list(c) for c in classic.columns_data
        ]
        for semantics in (True, False):
            assert_encodings_identical(
                classic.encoded(semantics), streamed.encoded(semantics)
            )


class TestCsvHardening:
    """Hostile-input behavior of read_csv: structured errors + repair
    policies (see docs/ROBUSTNESS.md)."""

    def test_bom_is_always_stripped(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfa,b\n1,2\n")
        back = read_csv(path)
        assert back.columns == ("a", "b")

    def test_ragged_error_carries_context(self, tmp_path):
        from repro.runtime.errors import InputError

        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n3\n", encoding="utf-8")
        with pytest.raises(InputError) as exc_info:
            read_csv(path)
        context = exc_info.value.context
        assert context["row"] == 3
        assert context["file"] == str(path)

    def test_ragged_pad_policy(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1\n1,2,3\n", encoding="utf-8")
        back = read_csv(path, on_error="pad")
        assert list(back.iter_rows()) == [("1", None), ("1", "2")]

    def test_ragged_skip_policy(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1\n5,6\n", encoding="utf-8")
        back = read_csv(path, on_error="skip")
        assert list(back.iter_rows()) == [("5", "6")]

    def test_undecodable_bytes_strict(self, tmp_path):
        from repro.runtime.errors import InputError

        path = tmp_path / "latin1.csv"
        path.write_bytes(b"a,b\nx,caf\xe9\n")  # latin-1 é: invalid UTF-8
        with pytest.raises(InputError, match="not valid UTF-8"):
            read_csv(path)

    def test_undecodable_bytes_replaced_under_pad(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"a,b\nx,caf\xe9\n")
        back = read_csv(path, on_error="pad")
        assert list(back.iter_rows()) == [("x", "caf�")]

    def test_missing_file(self, tmp_path):
        from repro.runtime.errors import InputError

        with pytest.raises(InputError, match="not found"):
            read_csv(tmp_path / "absent.csv")

    def test_header_only_file_is_valid(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n", encoding="utf-8")
        back = read_csv(path)
        assert back.columns == ("a", "b")
        assert back.num_rows == 0

    def test_empty_header_rejected(self, tmp_path):
        from repro.runtime.errors import InputError

        path = tmp_path / "t.csv"
        path.write_text("\n1,2\n", encoding="utf-8")
        with pytest.raises(InputError, match="no columns"):
            read_csv(path)

    def test_unknown_policy_rejected(self, tmp_path):
        from repro.runtime.errors import InputError

        path = tmp_path / "t.csv"
        path.write_text("a\n1\n", encoding="utf-8")
        with pytest.raises(InputError, match="unknown on_error policy"):
            read_csv(path, on_error="mend")

    def test_errors_are_value_errors(self, tmp_path):
        # InputError subclasses ValueError for pre-taxonomy callers.
        with pytest.raises(ValueError):
            read_csv(tmp_path / "absent.csv")


class TestCsvInMemorySources:
    """read_csv over bytes / file-like sources (the server ingest path)."""

    def test_bytes_source(self):
        instance = read_csv(b"a,b\n1,2\n3,4\n", name="t")
        assert instance.name == "t"
        assert instance.columns == ("a", "b")
        assert list(instance.iter_rows()) == [("1", "2"), ("3", "4")]

    def test_bytes_default_name(self):
        assert read_csv(b"a\n1\n").name == "relation"

    def test_bytes_matches_file(self, tmp_path):
        text = "a,b,c\n1,2,\n4,,6\n"
        path = tmp_path / "t.csv"
        path.write_text(text, encoding="utf-8")
        from_path = read_csv(path)
        from_bytes = read_csv(text.encode("utf-8"), name="t")
        assert from_bytes.columns == from_path.columns
        assert list(from_bytes.iter_rows()) == list(from_path.iter_rows())

    def test_binary_stream_source(self):
        import io

        instance = read_csv(io.BytesIO(b"a,b\nx,y\n"), name="s")
        assert list(instance.iter_rows()) == [("x", "y")]

    def test_text_stream_source(self):
        import io

        instance = read_csv(io.StringIO("a,b\nx,y\n"), name="s")
        assert list(instance.iter_rows()) == [("x", "y")]

    def test_stream_name_used_for_relation(self, tmp_path):
        path = tmp_path / "emp.csv"
        path.write_text("a\n1\n", encoding="utf-8")
        with open(path, "rb") as handle:
            assert read_csv(handle).name == "emp"

    def test_bytes_bom_stripped(self):
        instance = read_csv(b"\xef\xbb\xbfa,b\n1,2\n")
        assert instance.columns == ("a", "b")

    def test_bytes_undecodable_strict(self):
        from repro.runtime.errors import InputError

        with pytest.raises(InputError, match="not valid UTF-8"):
            read_csv(b"a,b\n\xff\xfe,2\n")

    def test_bytes_undecodable_pad(self):
        instance = read_csv(b"a,b\n\xff,2\n", on_error="pad")
        assert list(instance.iter_rows()) == [("�", "2")]

    def test_empty_bytes_rejected(self):
        from repro.runtime.errors import InputError

        with pytest.raises(InputError, match="empty"):
            read_csv(b"")

    def test_unsupported_source_rejected(self):
        from repro.runtime.errors import InputError

        with pytest.raises(InputError, match="unsupported CSV source"):
            read_csv(12345)


def _source(kind, data, tmp_path):
    """``data`` (bytes) as a path, a bytes object or a binary stream."""
    import io

    if kind == "path":
        path = tmp_path / "t.csv"
        path.write_bytes(data)
        return path
    if kind == "bytes":
        return data
    return io.BytesIO(data)


@pytest.mark.parametrize("kind", ["path", "bytes", "stream"])
class TestTaxonomyAcrossSources:
    """Every source kind goes through the same chunked reader, so each
    defect gets the same error or repair whatever the source is."""

    def test_ragged_rows_under_each_policy(self, tmp_path, monkeypatch, kind):
        from repro.runtime.errors import InputError

        # Two rows per chunk: the defects straddle chunk boundaries.
        monkeypatch.setattr(csv_io, "CHUNK_ROWS", 2)
        data = b"a,b\n1,2\n3,4\n5\n6,7,8\n9,10\n"
        with pytest.raises(InputError) as info:
            read_csv(_source(kind, data, tmp_path))
        assert info.value.context["row"] == 4
        assert info.value.context["columns"] == 2
        padded = read_csv(_source(kind, data, tmp_path), on_error="pad")
        assert list(padded.iter_rows()) == [
            ("1", "2"),
            ("3", "4"),
            ("5", None),
            ("6", "7"),
            ("9", "10"),
        ]
        skipped = read_csv(_source(kind, data, tmp_path), on_error="skip")
        assert list(skipped.iter_rows()) == [("1", "2"), ("3", "4"), ("9", "10")]

    def test_bom_stripped(self, tmp_path, kind):
        instance = read_csv(_source(kind, b"\xef\xbb\xbfa,b\n1,2\n", tmp_path))
        assert instance.columns == ("a", "b")

    def test_undecodable_bytes(self, tmp_path, kind):
        from repro.runtime.errors import InputError

        data = b"a,b\nx,caf\xe9\n"
        with pytest.raises(InputError, match="not valid UTF-8"):
            read_csv(_source(kind, data, tmp_path))
        for policy in ("pad", "skip"):
            repaired = read_csv(_source(kind, data, tmp_path), on_error=policy)
            assert list(repaired.iter_rows()) == [("x", "caf\ufffd")]

    def test_duplicate_header(self, tmp_path, kind):
        from repro.runtime.errors import InputError

        with pytest.raises(InputError, match="duplicate column names") as info:
            read_csv(_source(kind, b"x,y,x\n1,2,3\n", tmp_path))
        assert info.value.context["duplicates"] == ["x"]

    def test_empty_input(self, tmp_path, kind):
        from repro.runtime.errors import InputError

        with pytest.raises(InputError, match="empty"):
            read_csv(_source(kind, b"", tmp_path))


class TestDuplicateHeader:
    """Duplicate column names are an InputError, never silently renamed."""

    def test_duplicate_header_rejected(self, tmp_path):
        from repro.runtime.errors import InputError

        path = tmp_path / "t.csv"
        path.write_text("a,b,a\n1,2,3\n", encoding="utf-8")
        with pytest.raises(InputError, match="duplicate column names"):
            read_csv(path)

    def test_duplicate_header_carries_context(self):
        from repro.runtime.errors import InputError

        with pytest.raises(InputError) as info:
            read_csv(b"x,y,x,y,z\n1,2,3,4,5\n", name="t")
        assert info.value.context["row"] == 1
        assert info.value.context["duplicates"] == ["x", "y"]

    def test_duplicate_header_rejected_under_pad(self):
        # on_error policies repair *rows*; a broken header has no repair.
        from repro.runtime.errors import InputError

        with pytest.raises(InputError, match="duplicate column names"):
            read_csv(b"a,a\n1,2\n", on_error="pad")


class TestBundledDatasets:
    def test_address_shape(self):
        instance = address_example()
        assert instance.arity == 5
        assert instance.num_rows == 6

    def test_planets_fd(self):
        from tests.helpers import fd_holds

        planets = planets_example()
        atmosphere = planets.relation.mask_of(["Atmosphere"])
        rings = planets.relation.mask_of(["Rings"])
        assert fd_holds(planets, atmosphere, rings)

    def test_university_fds(self):
        from tests.helpers import fd_holds

        uni = denormalized_university()
        name = uni.relation.mask_of(["name"])
        dept_salary = uni.relation.mask_of(["department", "salary"])
        label = uni.relation.mask_of(["label"])
        room_date = uni.relation.mask_of(["room", "date"])
        assert fd_holds(uni, name, dept_salary)
        assert fd_holds(uni, label, room_date)


class TestDDL:
    def make_schema(self):
        target = Relation("dim", ("id", "name"), primary_key=("id",))
        fact = Relation(
            "fact",
            ("fid", "id", "value"),
            primary_key=("fid",),
            foreign_keys=[ForeignKey(("id",), "dim", ("id",))],
        )
        return Schema([fact, target])

    def test_referenced_tables_emitted_first(self):
        ddl = schema_to_ddl(self.make_schema())
        assert ddl.index('CREATE TABLE "dim"') < ddl.index('CREATE TABLE "fact"')

    def test_constraints_present(self):
        ddl = schema_to_ddl(self.make_schema())
        assert 'PRIMARY KEY ("id")' in ddl
        assert 'FOREIGN KEY ("id") REFERENCES "dim" ("id")' in ddl

    def test_type_inference(self):
        schema = Schema([Relation("t", ("n", "s"))])
        instances = {
            "t": RelationInstance.from_rows(
                Relation("t", ("n", "s")), [(1, "x"), (2, "y")]
            )
        }
        ddl = schema_to_ddl(schema, instances)
        assert '"n" INTEGER' in ddl
        assert '"s" TEXT' in ddl

    def test_type_inference_same_for_lazy_columns(self):
        # NULL first, mixed, all NULL, ints, negative ints, text.
        rows = [
            (None, "1", None, "7", "-3", "a"),
            ("2", "x", None, "8", "4", "b"),
            ("3", "2", None, "7", "-3", "a"),
        ]
        relation = Relation("t", ("a", "b", "c", "d", "e", "f"))
        lists = RelationInstance.from_rows(relation, rows)
        text = "\n".join(
            ",".join("" if v is None else v for v in row)
            for row in [relation.columns, *rows]
        )
        lazy = read_csv(text.encode(), name="t")
        expected = schema_to_ddl(Schema([relation]), {"t": lists})
        assert schema_to_ddl(Schema([relation]), {"t": lazy}) == expected
        assert '"a" INTEGER' in expected and '"b" TEXT' in expected
        assert '"c" TEXT' in expected and '"e" INTEGER' in expected
        # An R1-style projection shares the lazy columns.
        part = lazy.project(0b110110)
        assert schema_to_ddl(Schema([part.relation]), {"t": part}) == (
            schema_to_ddl(Schema([part.relation]), {"t": lists.project(0b110110)})
        )

    def test_without_instances_text_type(self):
        ddl = schema_to_ddl(Schema([Relation("t", ("a",))]))
        assert '"a" TEXT' in ddl

    def test_pk_columns_not_null(self):
        ddl = schema_to_ddl(Schema([Relation("t", ("a", "b"), primary_key=("a",))]))
        assert '"a" TEXT NOT NULL' in ddl
        assert '"b" TEXT NOT NULL' not in ddl

    def test_cycle_does_not_hang(self):
        a = Relation(
            "a", ("x", "y"), foreign_keys=[ForeignKey(("y",), "b", ("y",))]
        )
        b = Relation(
            "b", ("y", "x"), foreign_keys=[ForeignKey(("x",), "a", ("x",))]
        )
        ddl = schema_to_ddl(Schema([a, b]))
        assert ddl.count("CREATE TABLE") == 2

    def test_identifier_quoting(self):
        ddl = schema_to_ddl(Schema([Relation('we"ird', ("a",))]))
        assert '"we""ird"' in ddl

    def test_executes_on_sqlite(self, tmp_path):
        import sqlite3

        ddl = schema_to_ddl(self.make_schema())
        conn = sqlite3.connect(":memory:")
        conn.executescript(ddl)
        tables = {
            row[0]
            for row in conn.execute(
                "SELECT name FROM sqlite_master WHERE type='table'"
            )
        }
        assert {"dim", "fact"} <= tables
